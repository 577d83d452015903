"""Tests for the deployment builder (``repro.deployment``)."""

import pytest

from repro.core.federation import FederatedInstance
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.deployment import Deployment
from repro.errors import AttestationError, PolicyValidationError, VetoError
from repro.sim.network import Network, Site
from repro.tee.image import build_image


def app_policy(board=None):
    image = build_image("builder-app", seed=b"v1")
    return SecurityPolicy(
        name="app_policy",
        services=[ServiceSpec(name="svc", image_name=image.name,
                              mrenclaves=[image.mrenclave()])],
        board=board)


class TestConstructor:
    def test_instance_is_started_and_certified(self):
        deployment = Deployment(seed=b"builder")
        palaemon = deployment.palaemon
        assert palaemon.running
        assert palaemon.platform is deployment.platform
        palaemon.certificate.verify(now=deployment.simulator.now,
                                    trusted_root=deployment.ca.root_public_key)
        assert deployment.board is None and deployment.evaluator is None

    def test_same_seed_is_byte_identical(self):
        first, second = Deployment(seed=b"same"), Deployment(seed=b"same")
        assert (first.palaemon.public_key.to_bytes()
                == second.palaemon.public_key.to_bytes())
        assert (first.ca.root_public_key.to_bytes()
                == second.ca.root_public_key.to_bytes())
        other = Deployment(seed=b"other")
        assert (other.palaemon.public_key.to_bytes()
                != first.palaemon.public_key.to_bytes())

    def test_invalid_board_is_refused_up_front(self):
        with pytest.raises(PolicyValidationError, match="threshold"):
            Deployment(seed=b"bad-board", board=["a", "b"], threshold=3)


class TestAddInstance:
    def test_second_instance_peers_through_the_ca(self):
        deployment = Deployment(seed=b"builder-peers")
        second = deployment.add_instance("palaemon-2")
        assert second.running and second.name == "palaemon-2"
        assert second.platform is not deployment.platform
        root = deployment.ca.root_public_key
        second.certificate.verify(now=deployment.simulator.now,
                                  trusted_root=root)
        network = Network(deployment.simulator, deployment.rng.fork(b"net"))
        local = FederatedInstance(deployment.palaemon, Site.SAME_RACK, root,
                                  network)
        remote = FederatedInstance(second, Site.SAME_DC, root, network)
        deployment.simulator.run_process(local.peer_with(remote))
        assert local.peers() == ["palaemon-2"]
        assert remote.peers() == [deployment.palaemon.name]

    def test_instances_have_distinct_identities(self):
        deployment = Deployment(seed=b"builder-identities")
        second = deployment.add_instance("palaemon-2")
        third = deployment.add_instance("palaemon-3")
        keys = {service.public_key.to_bytes()
                for service in (deployment.palaemon, second, third)}
        assert len(keys) == 3


class TestClient:
    def test_client_has_attested_and_can_create_policies(self):
        deployment = Deployment(seed=b"builder-client")
        client = deployment.client("tenant")
        assert deployment.palaemon.name in client.attested_instances
        client.create_policy(deployment.palaemon, app_policy())
        assert deployment.palaemon.list_policies() == ["app_policy"]

    def test_client_must_attest_other_instances_itself(self):
        deployment = Deployment(seed=b"builder-client-2")
        second = deployment.add_instance("palaemon-2")
        client = deployment.client("tenant")
        with pytest.raises(AttestationError, match="has not attested"):
            client.create_policy(second, app_policy())


class TestBoard:
    def test_veto_member_rejection_refuses_the_change(self):
        deployment = Deployment(seed=b"builder-veto",
                                board=["developer", "auditor", "owner"],
                                threshold=2, veto={"owner"})
        assert [member.veto for member in deployment.board.members] == [
            False, False, True]
        deployment.approval_services["approval-owner"].decision_rule = (
            lambda _request: False)
        client = deployment.client("operator")
        with pytest.raises(VetoError):
            client.create_policy(deployment.palaemon,
                                 app_policy(board=deployment.board))
        assert deployment.palaemon.list_policies() == []
