"""One way to stand up a PALAEMON deployment.

Every protocol of the paper's §III/§IV runs on the same assembly: an SGX
platform registered with IAS, a PALAEMON instance that has run the Fig 6
startup protocol, a PALAEMON CA that certifies the instance's MRENCLAVE,
an optional policy board, and clients that attested the instance through
the CA. :class:`Deployment` builds exactly that::

    deployment = Deployment(seed=b"demo")
    client = deployment.client("me")
    client.create_policy(deployment.palaemon, policy)

Everything draws from one seeded
:class:`~repro.crypto.primitives.DeterministicRandom`, so two deployments
with the same arguments are byte-identical. All instances of a deployment
share its simulator, IAS, CA, board evaluator and telemetry domain.
"""

from __future__ import annotations

from typing import Collection, Dict, Optional, Sequence

from repro.core.board import ApprovalService, BoardEvaluator
from repro.core.ca import PalaemonCA
from repro.core.client import PalaemonClient
from repro.core.policy import BoardSpec, PolicyBoardMember
from repro.core.service import PalaemonService
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import Telemetry
from repro.sim.core import Simulator
from repro.sim.network import Site
from repro.tee.ias import IntelAttestationService
from repro.tee.platform import SGXPlatform


class Deployment:
    """A started, CA-certified PALAEMON instance and what it runs on.

    ``board`` names the policy-board members (each gets a 512-bit key and
    an :class:`~repro.core.board.ApprovalService` at ``approval-<name>``);
    ``threshold`` is the board's f+1 and ``veto`` the members holding a
    veto. Without a board the instance governs no policy by quorum.
    """

    def __init__(self, seed: bytes = b"deployment", name: str = "palaemon-1",
                 board: Sequence[str] = (), threshold: int = 0,
                 veto: Collection[str] = ()) -> None:
        self.rng = DeterministicRandom(seed)
        self.simulator = Simulator()
        self.telemetry = Telemetry.for_simulator(self.simulator)
        self.ias = IntelAttestationService(self.simulator, Site.IAS_US,
                                           self.rng.fork(b"ias"))

        #: Approval services by endpoint name (``approval-<member>``).
        self.approval_services: Dict[str, ApprovalService] = {}
        self.board: Optional[BoardSpec] = None
        self.evaluator: Optional[BoardEvaluator] = None
        if board:
            members = []
            for member in board:
                keys = KeyPair.generate(self.rng.fork(member.encode()),
                                        bits=512)
                endpoint = f"approval-{member}"
                self.approval_services[endpoint] = ApprovalService(
                    self.simulator, member, keys)
                members.append(PolicyBoardMember(
                    name=member,
                    certificate=self_signed_certificate(member, keys),
                    approval_endpoint=endpoint, veto=member in veto))
            self.board = BoardSpec(members=tuple(members),
                                   threshold=threshold)
            self.board.validate()
            self.evaluator = BoardEvaluator(self.simulator,
                                            self.approval_services)

        self.palaemon = self._start_instance(name, self.rng)
        self.platform = self.palaemon.platform
        self.volume: BlockStore = self.palaemon.store.store
        self.ca = PalaemonCA(self.platform, self.ias,
                             frozenset({self.palaemon.mrenclave}),
                             self.rng.fork(b"ca"))
        self.palaemon.obtain_certificate(self.ca)

    def _start_instance(self, name: str,
                        rng: DeterministicRandom) -> PalaemonService:
        """Platform + IAS registration + instance + enrolment + Fig 6 start."""
        platform = SGXPlatform(self.simulator, f"{name}-node",
                               rng.fork(b"platform"))
        self.ias.register_platform(
            platform.quoting_enclave.attestation_public_key,
            platform.microcode.revision)
        service = PalaemonService(platform, BlockStore(f"{name}-volume"),
                                  rng.fork(b"palaemon"),
                                  board_evaluator=self.evaluator, name=name,
                                  telemetry=self.telemetry)
        service.platform_registry.enroll(
            platform.platform_id,
            platform.quoting_enclave.attestation_public_key)
        self.simulator.run_process(service.start(), name=f"{name}-start")
        return service

    def add_instance(self, name: str) -> PalaemonService:
        """Another genuine instance on its own platform, certified by the CA."""
        service = self._start_instance(
            name, self.rng.fork(b"instance:" + name.encode()))
        service.obtain_certificate(self.ca)
        return service

    def client(self, name: str) -> PalaemonClient:
        """A client that has attested :attr:`palaemon` through the CA."""
        client = PalaemonClient(name, self.rng.fork(b"client"))
        client.attest_instance_via_ca(self.palaemon, self.ca.root_public_key,
                                      now=self.simulator.now)
        return client
