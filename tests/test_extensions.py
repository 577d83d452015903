"""Tests for the extension features: DCAP, federation, and fail-over."""

import pickle

import pytest

from repro import calibration
from repro.core.failover import FailoverCoordinator
from repro.core.federation import FederatedInstance, Federation
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.crypto.primitives import DeterministicRandom, sha256
from repro.errors import (
    AccessDeniedError,
    AttestationError,
    PolicyError,
    PolicyNotFoundError,
    QuoteError,
)
from repro.fs.blockstore import BlockStore
from repro.sim.network import Network, Site
from repro.tee.dcap import DCAPVerifier, ProvisioningAuthority
from repro.tee.image import build_image
from repro.tee.platform import SGXPlatform

from tests.core.conftest import Deployment


@pytest.fixture()
def deployment():
    return Deployment(seed=b"extensions")


@pytest.fixture()
def network(deployment):
    return Network(deployment.simulator, deployment.rng.fork(b"peer-net"))


class TestDCAP:
    def make_verifier(self, deployment, minimum_tcb=0):
        authority = ProvisioningAuthority(DeterministicRandom(b"intel"))
        pck = authority.certify_platform(deployment.platform)
        verifier = DCAPVerifier(authority.root_public_key,
                                minimum_tcb=minimum_tcb)
        verifier.install_certificate(pck)
        return authority, verifier

    def quote_from(self, deployment, image=None):
        image = image or deployment.app_image
        enclave = deployment.platform.launch_instant(image)
        return deployment.platform.quoting_enclave.quote(enclave, b"data")

    def test_offline_verification_succeeds(self, deployment):
        _, verifier = self.make_verifier(deployment)
        verifier.verify_quote(self.quote_from(deployment))
        assert verifier.quotes_verified == 1

    def test_unknown_platform_rejected(self, deployment):
        authority = ProvisioningAuthority(DeterministicRandom(b"intel"))
        verifier = DCAPVerifier(authority.root_public_key)
        with pytest.raises(QuoteError, match="no cached platform"):
            verifier.verify_quote(self.quote_from(deployment))

    def test_wrong_root_rejected(self, deployment):
        authority = ProvisioningAuthority(DeterministicRandom(b"intel"))
        pck = authority.certify_platform(deployment.platform)
        evil = ProvisioningAuthority(DeterministicRandom(b"evil"))
        verifier = DCAPVerifier(evil.root_public_key)
        from repro.errors import CertificateError

        with pytest.raises(CertificateError):
            verifier.install_certificate(pck)

    def test_tcb_pinning(self, deployment):
        """A pre-Spectre platform fails a post-Foreshadow TCB floor."""
        sim = deployment.simulator
        old_platform = SGXPlatform(sim, "old-node",
                                   DeterministicRandom(b"old"),
                                   microcode=calibration.MICROCODE_PRE_SPECTRE)
        authority = ProvisioningAuthority(DeterministicRandom(b"intel"))
        pck = authority.certify_platform(old_platform)
        verifier = DCAPVerifier(
            authority.root_public_key,
            minimum_tcb=calibration.MICROCODE_POST_FORESHADOW.revision)
        verifier.install_certificate(pck)
        enclave = old_platform.launch_instant(build_image("app"))
        quote = old_platform.quoting_enclave.quote(enclave, b"d")
        with pytest.raises(QuoteError, match="TCB"):
            verifier.verify_quote(quote)

    def test_key_substitution_rejected(self, deployment):
        """A quote signed by a non-certified key fails even if cached."""
        _, verifier = self.make_verifier(deployment)
        rogue = SGXPlatform(deployment.simulator, "rogue",
                            DeterministicRandom(b"rogue"))
        # The rogue claims the genuine platform's id in its report.
        rogue.quoting_enclave.platform_id = deployment.platform.platform_id
        enclave = rogue.launch_instant(build_image("app"))
        quote = rogue.quoting_enclave.quote(enclave, b"d")
        with pytest.raises(QuoteError, match="other than the certified"):
            verifier.verify_quote(quote)

    def test_lookup_serves_cached_certificates(self, deployment):
        authority, _ = self.make_verifier(deployment)
        pck = authority.lookup(deployment.platform.platform_id)
        assert pck is not None
        assert pck.tcb_revision == deployment.platform.microcode.revision
        assert authority.lookup(b"\x00" * 16) is None


class TestFederation:
    def make_pair(self, deployment, network):
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK,
                                  deployment.ca.root_public_key, network)
        remote_service = deployment.add_instance("palaemon-2")
        remote = FederatedInstance(remote_service,
                                   Site.CONTINENTAL_7000KM,
                                   deployment.ca.root_public_key, network)
        deployment.simulator.run_process(local.peer_with(remote))
        return local, remote, remote_service

    def seed_remote_policy(self, deployment, remote_service,
                           export_to=("consumer_policy",)):
        policy = SecurityPolicy(
            name="producer_policy",
            services=[ServiceSpec(name="svc", image_name="img",
                                  mrenclaves=[deployment.app_image
                                              .mrenclave()])],
            secrets=[SecretSpec(name="SHARED_KEY", kind=SecretKind.RANDOM,
                                export_to=tuple(export_to))])
        remote_service.create_policy(policy, deployment.client.certificate)
        return policy

    def test_peering_establishes_links(self, deployment, network):
        local, remote, _ = self.make_pair(deployment, network)
        assert remote.name in local.peers()
        assert local.name in remote.peers()

    def test_uncertified_peer_rejected(self, deployment, network):
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK,
                                  deployment.ca.root_public_key, network)
        rng = DeterministicRandom(b"rogue-fed")
        rogue_platform = SGXPlatform(deployment.simulator, "rogue-node",
                                     rng.fork(b"p"))
        rogue = PalaemonService(rogue_platform, BlockStore("rv"),
                                rng.fork(b"s"), name="rogue",
                                version="tampered")
        deployment.simulator.run_process(rogue.start())
        rogue_fed = FederatedInstance(rogue, Site.SAME_DC,
                                      deployment.ca.root_public_key, network)
        with pytest.raises(AttestationError):
            deployment.simulator.run_process(local.peer_with(rogue_fed))
        assert rogue_fed.name not in local.peers()

    def test_remote_secret_retrieval(self, deployment, network):
        local, remote, remote_service = self.make_pair(deployment, network)
        self.seed_remote_policy(deployment, remote_service)

        def main():
            secrets = yield deployment.simulator.process(
                local.fetch_remote_secrets(
                    remote.name, "producer_policy", "consumer_policy",
                    ["SHARED_KEY"]))
            return secrets

        secrets = deployment.simulator.run_process(main())
        expected = remote_service.store.get(
            "secrets", "producer_policy")["SHARED_KEY"].value
        assert secrets["SHARED_KEY"] == expected

    def test_export_rules_enforced_across_instances(self, deployment,
                                                    network):
        local, remote, remote_service = self.make_pair(deployment, network)
        self.seed_remote_policy(deployment, remote_service,
                                export_to=("someone_else",))

        def main():
            yield deployment.simulator.process(
                local.fetch_remote_secrets(
                    remote.name, "producer_policy", "consumer_policy",
                    ["SHARED_KEY"]))

        with pytest.raises(AccessDeniedError):
            deployment.simulator.run_process(main())

    def test_unknown_policy_on_peer(self, deployment, network):
        local, remote, _ = self.make_pair(deployment, network)

        def main():
            yield deployment.simulator.process(
                local.fetch_remote_secrets(remote.name, "ghost", "c", ["K"]))

        with pytest.raises(PolicyNotFoundError):
            deployment.simulator.run_process(main())

    def test_fetch_without_link_rejected(self, deployment, network):
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK,
                                  deployment.ca.root_public_key, network)

        def main():
            yield deployment.simulator.process(
                local.fetch_remote_secrets("nobody", "p", "c", ["K"]))

        with pytest.raises(AttestationError, match="no attested link"):
            deployment.simulator.run_process(main())

    def test_remote_fetch_latency_dominated_by_distance(self, deployment,
                                                        network):
        local, remote, remote_service = self.make_pair(deployment, network)
        self.seed_remote_policy(deployment, remote_service)
        sim = deployment.simulator

        def main():
            start = sim.now
            yield sim.process(local.fetch_remote_secrets(
                remote.name, "producer_policy", "consumer_policy",
                ["SHARED_KEY"]))
            return sim.now - start

        elapsed = sim.run_process(main())
        assert elapsed >= calibration.RTT_7000_KM

    def test_fetch_goes_through_the_peer_dispatcher(self, deployment,
                                                    network):
        local, remote, remote_service = self.make_pair(deployment, network)
        self.seed_remote_policy(deployment, remote_service)
        deployment.simulator.run_process(local.fetch_remote_secrets(
            remote.name, "producer_policy", "consumer_policy",
            ["SHARED_KEY"]))
        assert remote_service.telemetry.metrics.counter(
            "palaemon_dispatch_requests_total", route="federation.fetch",
            transport="federation").value == 1

    def test_federation_mesh_and_lookup(self, deployment, network):
        federation = Federation()
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK,
                                  deployment.ca.root_public_key, network)
        second = FederatedInstance(deployment.add_instance("palaemon-2"),
                                   Site.SAME_DC,
                                   deployment.ca.root_public_key, network)
        third = FederatedInstance(
            deployment.add_instance("palaemon-3"),
            Site.REGIONAL_300KM, deployment.ca.root_public_key, network)
        for instance in (local, second, third):
            federation.add(instance)
        deployment.simulator.run_process(federation.connect_all())
        assert len(local.peers()) == 2
        self.seed_remote_policy(deployment, second.service)
        assert federation.locate_policy("producer_policy") == second.name
        assert federation.locate_policy("nowhere") is None


class TestFailover:
    def make_coordinator(self, deployment, network):
        backup = deployment.add_instance("palaemon-backup")
        return FailoverCoordinator(deployment.palaemon, backup, network)

    def test_same_platform_backup_rejected(self, deployment, network):
        twin = PalaemonService(deployment.platform, BlockStore("twin"),
                               DeterministicRandom(b"twin"), name="twin")
        with pytest.raises(PolicyError, match="different platform"):
            FailoverCoordinator(deployment.palaemon, twin, network)

    def test_replication_flows(self, deployment, network):
        coordinator = self.make_coordinator(deployment, network)

        def main():
            sequence = yield deployment.simulator.process(
                coordinator.replicate("tags", "app", b"\x01" * 32))
            return sequence

        assert deployment.simulator.run_process(main()) == 1
        assert coordinator.replication_lag() == 0

    def test_promotion_exposes_replicated_state(self, deployment, network):
        coordinator = self.make_coordinator(deployment, network)

        def run():
            yield deployment.simulator.process(
                coordinator.replicate("tags", "app", b"\x02" * 32))
            coordinator.primary_crashed()
            promoted = yield deployment.simulator.process(
                coordinator.promote_backup())
            return promoted

        promoted = deployment.simulator.run_process(run())
        assert promoted is coordinator.backup
        assert promoted.store.get("tags", "app") == b"\x02" * 32
        assert coordinator.epoch == 2

    def test_promotion_refused_while_primary_serves(self, deployment, network):
        coordinator = self.make_coordinator(deployment, network)

        def main():
            yield deployment.simulator.process(coordinator.promote_backup())

        with pytest.raises(PolicyError, match="primary is serving"):
            deployment.simulator.run_process(main())

    def test_fenced_primary_cannot_restart(self, deployment, network):
        coordinator = self.make_coordinator(deployment, network)

        def run():
            yield deployment.simulator.process(
                coordinator.replicate("tags", "app", b"\x03" * 32))
            coordinator.primary_crashed()
            yield deployment.simulator.process(coordinator.promote_backup())

        deployment.simulator.run_process(run())
        assert coordinator.verify_primary_fenced()

    def test_no_writes_after_promotion_via_old_path(self, deployment, network):
        coordinator = self.make_coordinator(deployment, network)

        def run():
            coordinator.primary_crashed()
            yield deployment.simulator.process(coordinator.promote_backup())
            yield deployment.simulator.process(
                coordinator.replicate("tags", "app", b"\x04" * 32))

        with pytest.raises(PolicyError, match="before promotion"):
            deployment.simulator.run_process(run())


class TestPeerTrafficOnTheWire:
    """All peer traffic is TLS (§V-A): neither a replicated value nor a
    federated secret crosses the wire in the clear."""

    def assert_sealed(self, network, plaintext):
        assert network.wire_log
        for _time, _src, _dst, payload in network.wire_log:
            assert plaintext not in pickle.dumps(payload)

    def test_replicated_value_is_sealed(self, deployment, network):
        network.wire_log_enabled = True
        coordinator = FailoverCoordinator(
            deployment.palaemon, deployment.add_instance("palaemon-backup"),
            network=network)
        deployment.simulator.run_process(
            coordinator.replicate("secrets", "p", b"TOP-SECRET-VALUE"))
        assert coordinator.replication_lag() == 0
        self.assert_sealed(network, b"TOP-SECRET-VALUE")

    def test_federated_secret_is_sealed(self, deployment, network):
        network.wire_log_enabled = True
        federation = TestFederation()
        local, remote, remote_service = federation.make_pair(deployment,
                                                             network)
        federation.seed_remote_policy(deployment, remote_service)
        secrets = deployment.simulator.run_process(
            local.fetch_remote_secrets(remote.name, "producer_policy",
                                       "consumer_policy", ["SHARED_KEY"]))
        self.assert_sealed(network, secrets["SHARED_KEY"])
