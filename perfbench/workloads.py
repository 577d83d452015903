"""The benchmark's four seeded workloads, driven against the unmodified
``repro`` package.

Every workload stands up a rack-local PALAEMON deployment (platform, IAS,
instance, CA, REST/TLS front-end), seeds its database through the client
API, and then runs a **fixed number of client operations** inside one
simulator. The load comes from one OS thread; simulated clients are sim
processes. Virtual results and work counts are therefore a pure function
of the seed and the operation count; only the host-time samples vary.

Infrastructure identities (platform, IAS, instance, CA and board keys) come
from one fixed seed, so set-up does the same key-generation work for every
workload seed. The workload seed generates the inputs: policy contents,
which policy each client targets, payloads, key choices and arrivals.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import Any, Callable, Dict, Generator, List, Optional

from perfbench.clock import calibrate, speed
from repro.apps.kvstore import MemcachedServer
from repro.core.attestation import AttestationEvidence
from repro.core.board import ApprovalService, BoardEvaluator
from repro.core.ca import PalaemonCA
from repro.core.client import PalaemonClient
from repro.core.policy import (
    BoardSpec,
    PolicyBoardMember,
    SecurityPolicy,
    ServiceSpec,
)
from repro.core.rest import PalaemonRestClient, PalaemonRestServer, RemoteError
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.certificates import self_signed_certificate
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.crypto.signatures import KeyPair
from repro.errors import ReproError
from repro.fs.blockstore import BlockStore
from repro.fs.shield import ProtectedFileSystem
from repro.sim.core import Event, Simulator
from repro.sim.network import Network, Site
from repro.sim.workload import run_open_loop
from repro.tee.enclave import ExecutionMode
from repro.tee.ias import IntelAttestationService
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform
from repro.tls.channel import TLSConnection

INFRASTRUCTURE_SEED = b"perfbench:infrastructure"
SERVICE = "svc"
MARKER = b"$$PALAEMON$"
APP_CONFIG_PATH = "/etc/app.conf"

# Paper reference values, written here as literals (not imported from
# repro.calibration) so that a calibration edit cannot move the yardstick.
#: Fig 8: end-to-end PALAEMON attestation of one application, ~15 ms.
PAPER_FIG8_ATTEST_MS = 15.0
#: Fig 11 (left): tag update (with DB commit) 27 ms, tag read 4.5 ms.
PAPER_FIG11_TAG_UPDATE_MS = 27.0
PAPER_FIG11_TAG_GET_MS = 4.5
#: Fig 13 (left): the in-TEE, TLS approval service saturates at ~210
#: req/s on the rack, i.e. one approval costs 1/210 s.
PAPER_FIG13_APPROVAL_MS = 1000.0 / 210.0
#: Fig 16: memcached throughput is read at a 3 ms mean-latency limit; the
#: HW knee sits at 59.5% of 430 k req/s (~256 k req/s).
PAPER_FIG16_LATENCY_LIMIT_MS = 3.0


def relative_error(measured_ms: float, paper_ms: float) -> float:
    return abs(measured_ms - paper_ms) / paper_ms


def median_ms(samples: List[float]) -> float:
    return statistics.median(samples) * 1e3 if samples else 0.0


# -- output checks ------------------------------------------------------------
#
# Each check returns None when the outcome is the expected one and a short
# reason otherwise; a reason counts the operation as failed.

REFUSAL_CODE = "mrenclave_not_permitted"


def check_launch(expect_refusal: bool, config: Any = None,
                 code: Optional[str] = None) -> Optional[str]:
    """An accepted launch got its secrets injected with no marker left; a
    launch of an unlisted image was refused with the typed code."""
    if expect_refusal:
        if code is None:
            return "forbidden MRENCLAVE was accepted"
        if code != REFUSAL_CODE:
            return f"refusal code {code!r}, expected {REFUSAL_CODE!r}"
        return None
    if code is not None:
        return f"refused: {code}"
    secrets = getattr(config, "secrets", None)
    if not secrets or "API_KEY" not in secrets:
        return "config lacks its secret"
    injected = config.injected_files.get(APP_CONFIG_PATH)
    if injected is None or MARKER in injected \
            or secrets["API_KEY"] not in injected:
        return "secret not injected into the config file"
    texts = list(config.environment.values()) + list(config.command)
    if any(MARKER.decode() in text for text in texts):
        return "marker left in environment or command"
    return None


def check_tag_get(value: Any, pushed: bytes,
                  fs: ProtectedFileSystem) -> Optional[str]:
    """tag.get returns the tag last pushed and the FS verifies against it."""
    if value != pushed:
        return "tag.get returned a stale or foreign tag"
    try:
        fs.verify_tag(value)
    except ReproError as exc:
        return f"file system does not verify: {type(exc).__name__}"
    return None


def check_board_round(details: Dict[str, Any], approvals: int,
                      unreachable: int) -> Optional[str]:
    """A board round reached exactly the expected quorum."""
    seen = (details.get("decision"), details.get("approvals"),
            details.get("unreachable"), details.get("rejections"),
            details.get("invalid"))
    if seen != ("approved", approvals, unreachable, 0, 0):
        return f"board round {seen}"
    return None


def check_policy_list(listed: Any, seeded: List[str]) -> Optional[str]:
    if sorted(listed or []) != sorted(seeded):
        return "policy.list differs from the seeded set"
    return None


def check_kv_get(value: Optional[bytes], written: set) -> Optional[str]:
    """A GET of a key that was set hits, with a value written to it."""
    if value is None:
        return "GET missed a key that was set"
    if value not in written:
        return "GET returned a value never written to the key"
    return None


# -- shared plumbing ------------------------------------------------------------

class Meter:
    """Counts completed operations and samples their host CPU time.

    The measured phase is cut into equal chunks of operations. Each chunk's
    CPU time is also rescaled to the reference speed (:mod:`perfbench.clock`)
    from calibrations taken just before and after it. The samples are only
    recorded, never fed back, so virtual behaviour cannot depend on them.
    """

    def __init__(self, total_ops: int, chunks: int) -> None:
        self.chunk = max(1, total_ops // chunks)
        self.done = 0
        #: CPU seconds of each full chunk, as measured and at the
        #: reference speed.
        self.seconds: List[float] = []
        self.reference_seconds: List[float] = []
        self._calibration = 0.0
        self._started = 0.0

    def start(self) -> None:
        self._calibration = calibrate()
        self._started = time.process_time()

    def complete(self) -> None:
        self.done += 1
        if self.done % self.chunk:
            return
        seconds = time.process_time() - self._started
        before, self._calibration = self._calibration, calibrate()
        self.seconds.append(seconds)
        self.reference_seconds.append(
            seconds * speed(before, self._calibration))
        self._started = time.process_time()

    def rate(self) -> float:
        """Operations per CPU second at the reference speed, over every
        full chunk of the phase."""
        return self.chunk * len(self.seconds) / sum(self.reference_seconds)

    def measured_rate(self) -> float:
        return self.chunk * len(self.seconds) / sum(self.seconds)


class Outcome:
    """What one measured phase produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        #: Virtual latencies (seconds) by operation kind.
        self.latencies: Dict[str, List[float]] = {}
        self.virt_err = 0.0
        self.notes: List[str] = []
        self.digest = ""

    def record(self, kind: str, latency: float,
               failure: Optional[str]) -> None:
        self.attempted += 1
        self.latencies.setdefault(kind, []).append(latency)
        if failure is not None:
            self.failures.append(f"{kind}: {failure}")

    def fail_check(self, failure: Optional[str]) -> None:
        """An end-of-run output check; a failure counts as one more."""
        if failure is not None:
            self.attempted += 1
            self.failures.append(failure)


class Deployment:
    """A rack-local PALAEMON deployment behind its REST/TLS front-end."""

    def __init__(self, inputs: DeterministicRandom, board_members: int = 0,
                 offline_members: int = 0, threshold: int = 0) -> None:
        infra = DeterministicRandom(INFRASTRUCTURE_SEED)
        self.infra = infra
        self.simulator = Simulator()
        # Link jitter is drawn from the workload seed, like the inputs.
        self.network = Network(self.simulator, rng=inputs.fork(b"network"))
        self.platform = SGXPlatform(self.simulator, "node-1",
                                    infra.fork(b"platform"))
        self.ias = IntelAttestationService(self.simulator, Site.IAS_US,
                                           infra.fork(b"ias"))
        self.ias.register_platform(
            self.platform.quoting_enclave.attestation_public_key,
            self.platform.microcode.revision)
        evaluator = None
        self.board: Optional[BoardSpec] = None
        if board_members:
            services: Dict[str, ApprovalService] = {}
            members = []
            for index in range(board_members):
                name = f"member-{index}"
                keys = KeyPair.generate(infra.fork(name.encode()), bits=512)
                approval = ApprovalService(self.simulator, name, keys)
                approval.online = index < board_members - offline_members
                services[f"approval-{name}"] = approval
                members.append(PolicyBoardMember(
                    name=name, certificate=self_signed_certificate(name, keys),
                    approval_endpoint=f"approval-{name}"))
            self.board = BoardSpec(members=tuple(members), threshold=threshold)
            evaluator = BoardEvaluator(self.simulator, services)
        self.service = PalaemonService(
            self.platform, BlockStore("palaemon-volume"),
            infra.fork(b"palaemon"), board_evaluator=evaluator)
        self.service.platform_registry.enroll(
            self.platform.platform_id,
            self.platform.quoting_enclave.attestation_public_key)
        self.simulator.run_process(self.service.start(), name="palaemon-start")
        self.ca = PalaemonCA(self.platform, self.ias,
                             frozenset({self.service.mrenclave}),
                             infra.fork(b"ca"))
        self.service.obtain_certificate(self.ca)
        self.rest = PalaemonRestServer(self.service, self.network)
        self.admin = PalaemonClient("admin", infra.fork(b"admin"))
        self.admin.attest_instance_via_ca(self.service, self.ca.root_public_key,
                                          now=self.simulator.now)

    @property
    def telemetry(self):
        return self.service.telemetry

    def seed_policies(self, policies: List[SecurityPolicy]) -> None:
        """Create every policy through the in-process client API."""
        for policy in policies:
            self.admin.create_policy(self.service, policy)

    def connect(self, name: str, rng: DeterministicRandom,
                client: Optional[PalaemonClient] = None,
                ) -> Generator[Event, Any, PalaemonRestClient]:
        """Open a TLS connection to REST, verifying the CA-signed certificate.

        The endpoint is named per connection: ``PalaemonRestClient.connect``
        names it after the client, so one client cannot hold two.
        """
        connection = yield self.simulator.process(TLSConnection.connect(
            self.network, name, Site.SAME_RACK, self.rest.endpoint, rng,
            server_certificate=self.service.certificate,
            trusted_root=self.ca.root_public_key,
            client_certificate=client.certificate if client else None,
            telemetry=self.telemetry))
        self.rest.register_session(connection.session)
        return PalaemonRestClient(connection)

    def evidence(self, image, policy_name: str,
                 rng: DeterministicRandom) -> AttestationEvidence:
        """Launch an enclave, bind a fresh 512-bit TLS key into a quote."""
        enclave = self.platform.launch_instant(image)
        keys = KeyPair.generate(rng, bits=512)
        quote = self.platform.quoting_enclave.quote(
            enclave, sha256(keys.public.to_bytes()))
        return AttestationEvidence(quote=quote, policy_name=policy_name,
                                   service_name=SERVICE,
                                   tls_public_key=keys.public)

    def work_counts(self) -> Dict[str, Any]:
        """Deterministic work counters for the digest."""
        return {
            "now": repr(self.simulator.now),
            "events": self.simulator._sequence,
            "messages": self.network.messages_delivered,
            "db_bytes": self.service.store.store.bytes_written,
            "audit_head": self.telemetry.audit_log.head().hex(),
        }


def app_policy(name: str, mrenclave: bytes,
               rng: DeterministicRandom) -> SecurityPolicy:
    """A List 1-shaped policy: one service, one injected random secret."""
    filler = rng.bytes(rng.randint(32, 256)).hex().encode()
    return SecurityPolicy(
        name=name,
        services=[ServiceSpec(
            name=SERVICE, image_name="app",
            command=["app", f"--config={APP_CONFIG_PATH}"],
            environment={"API_KEY": "$$PALAEMON$API_KEY$$",
                         "SHARD": str(rng.randint(0, 999))},
            mrenclaves=[mrenclave],
            injection_files={APP_CONFIG_PATH:
                             b"token = $$PALAEMON$API_KEY$$\n# " + filler})],
        secrets=[SecretSpec(name="API_KEY", kind=SecretKind.RANDOM,
                            size=rng.randint(16, 64))])


def digest_of(outcome: Outcome, counts: Dict[str, Any]) -> str:
    material = repr((outcome.attempted, len(outcome.failures),
                     sorted((kind, [repr(value) for value in values])
                            for kind, values in outcome.latencies.items()),
                     sorted(counts.items())))
    return hashlib.sha256(material.encode()).hexdigest()[:16]


class ClosedLoop:
    """A shared budget of operations drawn by closed-loop sim clients."""

    def __init__(self, ops: int) -> None:
        self.remaining = ops

    def take(self, count: int = 1) -> bool:
        if self.remaining < count:
            return False
        self.remaining -= count
        return True


# -- workloads -------------------------------------------------------------------

class Workload:
    """One seeded workload: ``build`` stands up, ``run`` measures."""

    name = ""
    #: Sizes the fixed operation count: ops = rate x --seconds.
    nominal_ops_per_second = 0.0

    def __init__(self, seed: int) -> None:
        self.inputs = DeterministicRandom(
            f"perfbench:{self.name}:{seed}".encode())
        #: Wraps the benchmark's own client processes; the traced run
        #: installs a timer here so their host time is a layer of its own.
        self.client: Callable[[Generator], Generator] = lambda gen: gen

    def ops_for(self, seconds: float) -> int:
        return max(1, int(self.nominal_ops_per_second * seconds))

    def build(self) -> Any:
        raise NotImplementedError

    def run(self, state: Any, ops: int, meter: Meter) -> Outcome:
        raise NotImplementedError


class Startup(Workload):
    """Fig 8/9: closed loop of 4 launchers attesting applications."""

    name = "startup"
    nominal_ops_per_second = 45.0
    launchers = 4
    policies = 50
    images = 4
    forbidden_every = 10

    def build(self) -> Any:
        deployment = Deployment(self.inputs)
        rng = self.inputs.fork(b"setup")
        images = [build_image(f"app-{index}", seed=rng.bytes(8))
                  for index in range(self.images)]
        forbidden = build_image("app-unlisted", seed=rng.bytes(8))
        policies = [app_policy(f"startup-{index:03d}",
                               images[index % self.images].mrenclave(), rng)
                    for index in range(self.policies)]
        deployment.seed_policies(policies)
        return deployment, images, forbidden

    def run(self, state: Any, ops: int, meter: Meter) -> Outcome:
        deployment, images, forbidden = state
        simulator = deployment.simulator
        outcome = Outcome()
        budget = ClosedLoop(ops)
        rng = self.inputs.fork(b"launches")
        launches = [0]

        def launcher(index: int) -> Generator[Event, Any, None]:
            while budget.take():
                number = launches[0]
                launches[0] += 1
                policy_index = rng.randint(0, self.policies - 1)
                refused = number % self.forbidden_every == \
                    self.forbidden_every - 1
                image = forbidden if refused else \
                    images[policy_index % self.images]
                started = simulator.now
                evidence = deployment.evidence(
                    image, f"startup-{policy_index:03d}",
                    rng.fork(b"keys:%d" % number))
                client = yield from deployment.connect(
                    f"launch-{number}", rng.fork(b"tls:%d" % number))
                try:
                    config = yield from client.call("app.attest",
                                                    evidence=evidence)
                    failure = check_launch(refused, config=config)
                except RemoteError as exc:
                    failure = check_launch(refused, code=exc.code)
                outcome.record("refused" if refused else "launch",
                               simulator.now - started, failure)
                meter.complete()

        def main() -> Generator[Event, Any, None]:
            yield simulator.all_of([
                simulator.process(self.client(launcher(index)),
                                  name=f"launcher-{index}")
                for index in range(self.launchers)])

        meter.start()
        simulator.run_process(main(), name="startup")
        outcome.virt_err = relative_error(
            median_ms(outcome.latencies.get("launch", [])),
            PAPER_FIG8_ATTEST_MS)
        return outcome


class TagChurn(Workload):
    """Fig 10/11: 8 apps, each 1 tag.update : 3 tag.get over REST."""

    name = "tag-churn"
    nominal_ops_per_second = 1000.0
    apps = 8
    policies = 300
    files_per_app = 8
    block_bytes = 4096
    reads_per_write = 3

    def build(self) -> Any:
        deployment = Deployment(self.inputs)
        rng = self.inputs.fork(b"setup")
        image = build_image("tag-app", seed=rng.bytes(8))
        policies = [app_policy(f"tags-{index:03d}", image.mrenclave(), rng)
                    for index in range(self.policies)]
        deployment.seed_policies(policies)
        owned = list(range(self.policies))
        rng.shuffle(owned)
        apps = []

        def attach(index: int) -> Generator[Event, Any, None]:
            policy_name = f"tags-{owned[index]:03d}"
            evidence = deployment.evidence(image, policy_name,
                                           rng.fork(b"keys:%d" % index))
            client = yield from deployment.connect(
                f"app-{index}", rng.fork(b"tls:%d" % index))
            config = yield from client.call("app.attest", evidence=evidence)
            fs = ProtectedFileSystem(BlockStore(f"app-{index}-volume"),
                                     config.fs_key,
                                     rng.fork(b"fs:%d" % index))
            apps.append((policy_name, client, fs))

        for index in range(self.apps):
            deployment.simulator.run_process(attach(index), name="attach")
        payloads = [rng.bytes(self.block_bytes) for _ in range(16)]
        return deployment, apps, payloads

    def run(self, state: Any, ops: int, meter: Meter) -> Outcome:
        deployment, apps, payloads = state
        simulator = deployment.simulator
        outcome = Outcome()
        per_iteration = 1 + self.reads_per_write
        budget = ClosedLoop(ops)
        rng = self.inputs.fork(b"churn")

        def app(policy_name: str, client: PalaemonRestClient,
                fs: ProtectedFileSystem) -> Generator[Event, Any, None]:
            while budget.take(per_iteration):
                path = f"/data/block-{rng.randint(0, self.files_per_app - 1)}"
                fs.write(path, rng.choice(payloads))
                tag = fs.sync()
                started = simulator.now
                failure = None
                try:
                    yield from client.call("tag.update", policy=policy_name,
                                           service=SERVICE, tag=tag)
                except RemoteError as exc:
                    failure = f"tag.update refused: {exc.code}"
                outcome.record("tag.update", simulator.now - started, failure)
                meter.complete()
                for _read in range(self.reads_per_write):
                    started = simulator.now
                    try:
                        value = yield from client.call(
                            "tag.get", policy=policy_name, service=SERVICE)
                        failure = check_tag_get(value, tag, fs)
                    except RemoteError as exc:
                        failure = f"tag.get refused: {exc.code}"
                    outcome.record("tag.get", simulator.now - started,
                                   failure)
                    meter.complete()

        def main() -> Generator[Event, Any, None]:
            yield simulator.all_of([
                simulator.process(self.client(app(*entry)),
                                  name=f"app-{index}")
                for index, entry in enumerate(apps)])

        meter.start()
        simulator.run_process(main(), name="tag-churn")
        outcome.virt_err = (
            relative_error(median_ms(outcome.latencies.get("tag.update", [])),
                           PAPER_FIG11_TAG_UPDATE_MS)
            + relative_error(median_ms(outcome.latencies.get("tag.get", [])),
                             PAPER_FIG11_TAG_GET_MS)) / 2
        return outcome


class Governance(Workload):
    """Fig 13 / §III-C: 2 owners cycling board-governed policy CRUD."""

    name = "governance"
    nominal_ops_per_second = 130.0
    owners = 2
    policies = 50
    board_members = 3
    threshold = 2
    offline = 1

    def build(self) -> Any:
        deployment = Deployment(self.inputs,
                                board_members=self.board_members,
                                offline_members=self.offline,
                                threshold=self.threshold)
        rng = self.inputs.fork(b"setup")
        image = build_image("governed-app", seed=rng.bytes(8))
        seeded = [app_policy(f"base-{index:03d}", image.mrenclave(), rng)
                  for index in range(self.policies)]
        deployment.seed_policies(seeded)
        owners = []

        def attach(index: int) -> Generator[Event, Any, None]:
            client = PalaemonClient(f"owner-{index}",
                                    deployment.infra.fork(b"owners"))
            rest = yield from deployment.connect(
                f"owner-{index}-conn", rng.fork(b"tls:%d" % index), client)
            owners.append(rest)

        for index in range(self.owners):
            deployment.simulator.run_process(attach(index), name="attach")
        return deployment, owners, image, [p.name for p in seeded]

    def run(self, state: Any, ops: int, meter: Meter) -> Outcome:
        deployment, owners, image, seeded = state
        simulator = deployment.simulator
        outcome = Outcome()
        budget = ClosedLoop(ops)
        rng = self.inputs.fork(b"crud")
        audit = deployment.telemetry.audit_log
        rounds_before = len(audit.by_kind("board.round"))

        def owner(index: int, client: PalaemonRestClient,
                  ) -> Generator[Event, Any, None]:
            cycle = 0
            while budget.take(4):
                name = f"gov-{index}-{cycle}"
                cycle += 1
                policy = app_policy(name, image.mrenclave(), rng)
                policy.board = deployment.board
                revised = app_policy(name, image.mrenclave(), rng)
                revised.board = deployment.board
                steps = (("policy.create", {"policy": policy}),
                         ("policy.read", {"name": name}),
                         ("policy.update", {"policy": revised}),
                         ("policy.delete", {"name": name}))
                for route, fields in steps:
                    started = simulator.now
                    failure = None
                    try:
                        value = yield from client.call(route, **fields)
                        if route == "policy.read" and (
                                getattr(value, "name", None) != name
                                or value.services[0].mrenclaves
                                != policy.services[0].mrenclaves):
                            failure = "policy.read returned another policy"
                    except RemoteError as exc:
                        failure = f"refused: {exc.code}"
                    outcome.record(route, simulator.now - started, failure)
                    meter.complete()

        def main() -> Generator[Event, Any, Any]:
            yield simulator.all_of([
                simulator.process(self.client(owner(index, client)),
                                  name=f"owner-{index}")
                for index, client in enumerate(owners)])
            listed = yield from owners[0].call("policy.list")
            return listed

        meter.start()
        listed = simulator.run_process(main(), name="governance")
        rounds = audit.by_kind("board.round")[rounds_before:]
        if len(rounds) != outcome.attempted:
            outcome.fail_check(f"{len(rounds)} board rounds for "
                               f"{outcome.attempted} operations")
        for record in rounds:
            outcome.fail_check(check_board_round(
                record.details, approvals=self.threshold,
                unreachable=self.offline))
        outcome.fail_check(check_policy_list(listed, seeded))
        every = [value for values in outcome.latencies.values()
                 for value in values]
        outcome.virt_err = relative_error(median_ms(every),
                                          PAPER_FIG13_APPROVAL_MS)
        return outcome


class MacroKV(Workload):
    """Fig 16: open-loop memtier-style traffic to memcached in HW mode."""

    name = "macro-kv"
    nominal_ops_per_second = 16000.0
    offered_rate = 250_000.0
    windows = 10
    keys = 100
    set_ratio = 1.0 / 11.0

    def build(self) -> Any:
        deployment = Deployment(self.inputs)
        rng = self.inputs.fork(b"setup")
        image = build_image("memcached", seed=rng.bytes(8))
        policy = SecurityPolicy(
            name="memcached",
            services=[ServiceSpec(
                name=SERVICE, image_name="memcached",
                command=["memcached", "--tls"],
                mrenclaves=[image.mrenclave()],
                injection_files={"/etc/memcached/tls.pem":
                                 b"$$PALAEMON$MEMCACHED_TLS$$"})],
            secrets=[SecretSpec(name="MEMCACHED_TLS", kind=SecretKind.X509,
                                common_name="memcached.local")])
        deployment.seed_policies([policy])

        def attest() -> Generator[Event, Any, Any]:
            evidence = deployment.evidence(image, "memcached",
                                           rng.fork(b"keys"))
            client = yield from deployment.connect("memcached-conn",
                                                   rng.fork(b"tls"))
            config = yield from client.call("app.attest", evidence=evidence)
            return config

        config = deployment.simulator.run_process(attest(), name="attest")
        server = MemcachedServer(
            deployment.simulator, mode=ExecutionMode.HARDWARE,
            tls_certificate=config.injected_files["/etc/memcached/tls.pem"],
            tls_private_key=config.secrets["MEMCACHED_TLS"])
        written: Dict[str, set] = {}
        for index in range(self.keys):
            key = f"key-{index}"
            value = rng.bytes(32).hex().encode()
            server.set(key, value)
            written[key] = {value}
        return deployment, server, written

    def run(self, state: Any, ops: int, meter: Meter) -> Outcome:
        deployment, server, written = state
        simulator = deployment.simulator
        outcome = Outcome()
        if not server.tls_enabled:
            outcome.fail_check("memcached did not receive its TLS material")
        rng = self.inputs.fork(b"memtier")

        def factory(request_id: int) -> Generator[Event, Any, None]:
            key = f"key-{rng.randint(0, self.keys - 1)}"
            started = simulator.now
            if rng.random() < self.set_ratio:
                value = b"%d:" % request_id + rng.bytes(24).hex().encode()
                written[key].add(value)
                yield simulator.process(server.handle_set(key, value))
                outcome.record("set", simulator.now - started, None)
            else:
                value = yield simulator.process(server.handle_get(key))
                outcome.record("get", simulator.now - started,
                               check_kv_get(value, written[key]))
            meter.complete()

        meter.start()
        # Consecutive open-loop windows: each window's finished request
        # processes are released before the next, so the generator's own
        # bookkeeping does not grow with the run.
        arrivals = rng.fork(b"arrivals")
        for _window in range(self.windows):
            run_open_loop(simulator, self.offered_rate,
                          lambda rid: self.client(factory(rid)), arrivals,
                          duration=ops / self.offered_rate / self.windows)
        latencies = sorted(outcome.latencies.get("get", [])
                           + outcome.latencies.get("set", []))
        if latencies:
            mean_ms = statistics.fmean(latencies) * 1e3
            outcome.notes.append(
                f"offered {self.offered_rate:.0f} req/s in {self.windows} "
                f"windows; {len(latencies)} requests, mean {mean_ms:.3f} ms, "
                f"p99 {latencies[int(0.99 * len(latencies))] * 1e3:.3f} ms; "
                f"generator lateness 0 (arrivals are scheduled in virtual "
                f"time)")
            outcome.virt_err = relative_error(mean_ms,
                                              PAPER_FIG16_LATENCY_LIMIT_MS)
        return outcome


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (Startup, TagChurn, Governance, MacroKV)}


def finish(state: Any, outcome: Outcome) -> None:
    """Checks every workload ends with, then the determinism digest."""
    deployment = state[0]
    if outcome.attempted == 0:
        outcome.fail_check("no operation ran")
    try:
        deployment.telemetry.verify_audit_chain()
    except ReproError as exc:
        outcome.fail_check(f"audit chain does not verify: {exc}")
    outcome.digest = digest_of(outcome, deployment.work_counts())
