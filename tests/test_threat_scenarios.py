"""Systematic walkthrough of the paper's threat model (§II-A).

One test class per adversary class the paper names; each test is a concrete
attack executed against the real stack, asserted to fail at the right
layer with the right error. Where an attack is *out of scope* in the
paper (side channels, DoS, counter-rollback-capable adversaries), a test
documents the boundary instead.
"""

import pytest

from repro.core.attestation import AttestationEvidence
from repro.core.board import AccessRequest, Verdict
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom
from repro.crypto.signatures import KeyPair
from repro.errors import (
    AccessDeniedError,
    ApprovalDeniedError,
    AttestationError,
    IntegrityError,
    MrenclaveNotPermittedError,
    SealingError,
    StaleDatabaseError,
    TagMismatchError,
)
from repro.fs.blockstore import BlockStore
from repro.runtime.scone import SconeRuntime
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform

from tests.core.conftest import ByzantineApprovalService, Deployment


@pytest.fixture()
def deployment():
    return Deployment(seed=b"threats")


@pytest.fixture()
def runtime(deployment):
    return SconeRuntime(deployment.platform, deployment.palaemon,
                        DeterministicRandom(b"threat-runtime"))


class TestRootLevelAttacker:
    """'Services executing in untrusted environments such as clouds are
    vulnerable to attackers with root privileges.'"""

    def test_root_reads_only_ciphertext(self, deployment, runtime):
        """Root can read every byte of every volume — and learns nothing."""
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        volume = BlockStore("app-volume")
        app = runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                             volume=volume)
        app.write_file("/data/pii.csv", b"alice,555-0100")
        app.exit_cleanly()
        # Root dumps both the app volume and PALAEMON's volume:
        assert volume.scan_for(b"alice") == []
        assert deployment.volume.scan_for(b"alice") == []
        key = app.config.secrets["API_KEY"]
        assert deployment.volume.scan_for(key) == []

    def test_root_cannot_modify_files_undetected(self, deployment, runtime):
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        volume = BlockStore("app-volume")
        app = runtime.launch(deployment.app_image, "ml_policy", "ml_app",
                             volume=volume)
        app.write_file("/data/config", b"threshold=10")
        app.exit_cleanly()
        raw = volume.read("/data/config")
        volume.tamper("/data/config", raw[:-1] + bytes([raw[-1] ^ 1]))
        restarted = runtime.launch(deployment.app_image, "ml_policy",
                                   "ml_app", volume=volume)
        with pytest.raises(IntegrityError):
            restarted.read_file("/data/config")

    def test_root_cannot_swap_sealed_identity_across_machines(self,
                                                              deployment):
        """Stealing the sealed identity file to another host fails."""
        stolen = BlockStore("stolen")
        stolen.restore(deployment.volume.snapshot())
        other = SGXPlatform(deployment.simulator, "attacker-host",
                            DeterministicRandom(b"attacker-host"))
        with pytest.raises(SealingError):
            PalaemonService(other, stolen, DeterministicRandom(b"x"))


class TestMaliciousSoftwareDeveloper:
    """'we cannot trust that ... software developers will neither leak nor
    modify application code' — updates need the board."""

    def test_unilateral_code_swap_fails_attestation(self, deployment,
                                                    runtime):
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        trojan = build_image("ml-engine", seed=b"with-exfiltration")
        with pytest.raises(MrenclaveNotPermittedError):
            runtime.launch(trojan, "ml_policy", "ml_app")

    def test_developer_approval_alone_insufficient(self):
        """f+1 means one Byzantine developer cannot self-approve."""
        deployment = Deployment(seed=b"dev-alone")
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        # member-0 is the compromised developer; the others reject updates.
        for name, service in deployment.approval_services.items():
            if name != "approval-member-0":
                service.decision_rule = (
                    lambda request: request.operation != "update")
        policy = deployment.make_policy()
        policy.services[0].mrenclaves.append(
            build_image("ml-engine", seed=b"trojan").mrenclave())
        with pytest.raises(ApprovalDeniedError):
            deployment.client.update_policy(deployment.palaemon, policy)


class TestMaliciousOperatorOfPalaemon:
    """'the cloud provider has full control over what code it executes and
    might try to run variants of PALAEMON that are wrongly configured or
    have modified code.'"""

    def test_no_configuration_surface(self, deployment):
        """Behaviour depends solely on the MRE: the service class exposes
        no security-relevant knobs. (We assert the invariant the design
        encodes: two instances of the same version share one MRENCLAVE
        regardless of who operates them.)"""
        other = PalaemonService(deployment.platform,
                                BlockStore("other-operator"),
                                DeterministicRandom(b"other-operator"))
        assert other.mrenclave == deployment.palaemon.mrenclave

    def test_modified_variant_has_different_identity(self, deployment):
        variant = PalaemonService(deployment.platform,
                                  BlockStore("variant"),
                                  DeterministicRandom(b"variant"),
                                  version="1.0-with-backdoor")
        assert variant.mrenclave != deployment.palaemon.mrenclave
        with pytest.raises(AttestationError):
            variant.obtain_certificate(deployment.ca)

    def test_operator_rollback_of_service_database(self, deployment):
        checkpoint = deployment.volume.snapshot()
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        deployment.stop_palaemon()
        deployment.volume.restore(checkpoint)
        reborn = PalaemonService(deployment.platform, deployment.volume,
                                 DeterministicRandom(b"reborn"),
                                 board_evaluator=deployment.evaluator)
        with pytest.raises(StaleDatabaseError):
            deployment.simulator.run_process(reborn.start())


class TestNetworkAdversary:
    """Man-in-the-middle and replay attacks on the protocols."""

    def test_mitm_cannot_hijack_attestation_session(self, deployment):
        """Swapping the TLS key in transit breaks the quote binding."""
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        honest = deployment.evidence_for("ml_policy")
        mitm_keys = KeyPair.generate(DeterministicRandom(b"mitm"), bits=512)
        hijacked = AttestationEvidence(
            quote=honest.quote, policy_name=honest.policy_name,
            service_name=honest.service_name,
            tls_public_key=mitm_keys.public)
        with pytest.raises(AttestationError, match="TLS public key"):
            deployment.palaemon.attest_application(hijacked)

    def test_approval_verdict_replay_rejected(self, deployment):
        """Approvals captured from a read round, replayed onto a delete of
        the same policy, do not authorize it: each verdict is checked
        against the request it answers, nonce included."""
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        read = AccessRequest(
            policy_name="ml_policy", operation="read",
            requester_fingerprint=deployment.client.certificate.fingerprint(),
            nonce=DeterministicRandom(b"captured").bytes(16))
        for endpoint, honest in list(deployment.approval_services.items()):
            captured = honest.decide_local(read)
            deployment.approval_services[endpoint] = ByzantineApprovalService(
                honest, lambda _service, _request, verdict=captured: verdict)
        with pytest.raises(ApprovalDeniedError, match="0 approvals"):
            deployment.client.delete_policy(deployment.palaemon, "ml_policy")
        denied = deployment.telemetry.audit_log.by_kind("board.round")[-1]
        assert (denied.details["operation"], denied.details["invalid"]) == (
            "delete", 3)

    def test_forged_verdict_signature_rejected(self, deployment):
        """An approval with a forged signature is no vote."""
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        services = deployment.approval_services
        services["approval-member-0"].decision_rule = lambda _request: False
        services["approval-member-1"] = ByzantineApprovalService(
            services["approval-member-1"],
            lambda _service, _request: Verdict(True, b"\x99" * 64))
        with pytest.raises(ApprovalDeniedError, match="1 approvals"):
            deployment.client.delete_policy(deployment.palaemon, "ml_policy")
        denied = deployment.telemetry.audit_log.by_kind("board.round")[-1]
        assert denied.details["invalid"] == 1


class TestByzantineClient:
    """'Any policy access must additionally be authorized by its policy
    board to protect against authorized but Byzantine client accesses.'"""

    def test_owner_with_hostile_board_cannot_mutate(self):
        deployment = Deployment(seed=b"byz-client")
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        for service in deployment.approval_services.values():
            service.decision_rule = (
                lambda request: request.operation == "read")
        # The legitimate owner turned hostile: reads fine, writes blocked.
        deployment.client.read_policy(deployment.palaemon, "ml_policy")
        with pytest.raises(ApprovalDeniedError):
            deployment.client.delete_policy(deployment.palaemon, "ml_policy")

    def test_certificate_required_on_top_of_board(self, deployment):
        """Board approval alone is insufficient without the owner cert."""
        from repro.core.client import PalaemonClient

        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        interloper = PalaemonClient("interloper",
                                    DeterministicRandom(b"interloper"))
        interloper.attest_instance_via_ca(deployment.palaemon,
                                          deployment.ca.root_public_key,
                                          now=deployment.simulator.now)
        # The board approves everything, yet the cert check still bites.
        with pytest.raises(AccessDeniedError):
            interloper.read_policy(deployment.palaemon, "ml_policy")


class TestScopeBoundaries:
    """Attacks the paper explicitly places out of scope — pinned down so
    the reproduction does not overclaim."""

    def test_counter_rollback_capability_defeats_protection(self,
                                                            deployment):
        """§IV-D: protection is exactly as strong as the platform counter."""
        checkpoint = deployment.volume.snapshot()
        deployment.client.create_policy(deployment.palaemon,
                                        deployment.make_policy())
        deployment.stop_palaemon()
        deployment.volume.restore(checkpoint)
        # The out-of-scope capability: rolling back the hardware counter.
        counter_id = deployment.palaemon.rollback_guard.counter_id
        deployment.platform.counters.rollback_for_test(counter_id, 0)
        reborn = PalaemonService(deployment.platform, deployment.volume,
                                 DeterministicRandom(b"reborn2"),
                                 board_evaluator=deployment.evaluator)
        deployment.simulator.run_process(reborn.start())  # attack succeeds
        assert reborn.list_policies() == []  # stale state now serves

    def test_emulation_mode_offers_no_attestation(self, deployment):
        """EMU mode (used for overhead comparisons) is explicitly not a
        root of trust."""
        from repro.errors import QuoteError
        from repro.tee.enclave import ExecutionMode

        enclave = deployment.platform.launch_instant(
            deployment.app_image, mode=ExecutionMode.EMULATED)
        with pytest.raises(QuoteError):
            deployment.platform.quoting_enclave.quote(enclave, b"d")
