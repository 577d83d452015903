#!/usr/bin/env python3
"""Secure updates under a Byzantine policy board (SS III-C / SS III-E).

Scenario: a three-member board (developer, auditor, data provider with
veto rights) governs an application policy. The example walks through:

1. a legitimate update: new image version, f+1 approvals, rollout;
2. a malicious insider pushing a backdoored build: one Byzantine approval
   is not enough, the update dies at the board;
3. the data provider exercising its veto;
4. an image provider revoking a vulnerable release, which automatically
   disables it in the application policy (the intersection rule);
5. a board-approved update of the PALAEMON CA itself.

Run:  python examples/secure_update.py
"""

from repro.core.board import AccessRequest
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.service import build_palaemon_image
from repro.core.update import (
    CAUpdateCoordinator,
    ImagePolicyExport,
    ImageRelease,
    apply_image_export,
    prepare_application_update,
)
from repro.deployment import Deployment
from repro.errors import (
    ApprovalDeniedError,
    AttestationError,
    MrenclaveNotPermittedError,
    VetoError,
)
from repro.runtime.scone import SconeRuntime
from repro.tee.image import build_image


def main() -> None:
    # --- the board: developer, auditor, data provider (veto) --------------
    deployment = Deployment(seed=b"secure-update",
                            board=["developer", "auditor", "data-provider"],
                            threshold=2,  # f+1 with f=1
                            veto={"data-provider"})
    palaemon, ca, board = deployment.palaemon, deployment.ca, deployment.board
    decision_rules = {name: deployment.approval_services[f"approval-{name}"]
                      for name in ("developer", "auditor", "data-provider")}
    operator = deployment.client("operator")

    v1 = build_image("service-image", seed=b"v1", version="1.0")
    policy = SecurityPolicy(
        name="governed_service",
        services=[ServiceSpec(name="service", image_name="service-image",
                              mrenclaves=[v1.mrenclave()])],
        board=board)
    operator.create_policy(palaemon, policy)
    print("Policy created under a 3-member board (threshold 2, "
          "data provider holds veto).")
    runtime = SconeRuntime(deployment.platform, palaemon,
                           deployment.rng.fork(b"runtime"))
    runtime.launch(v1, "governed_service", "service")
    print("v1 attested and running.")

    # --- 1. legitimate update ---------------------------------------------
    v2 = build_image("service-image", seed=b"v2", version="2.0")
    updated = operator.read_policy(palaemon, "governed_service")
    prepare_application_update(updated, "service", v2.mrenclave())
    operator.update_policy(palaemon, updated)
    runtime.launch(v2, "governed_service", "service")
    print("1. v2 rollout: board approved, new MRENCLAVE admitted, "
          "v2 attested.")

    # --- 2. malicious insider ---------------------------------------------
    # Only the (compromised) developer approves; auditor and data provider
    # reject anything whose digest they have not reviewed.
    reviewed = set()

    def reviewers_rule(request: AccessRequest) -> bool:
        return (request.operation != "update"
                or request.change_digest in reviewed)

    decision_rules["auditor"].decision_rule = reviewers_rule
    decision_rules["data-provider"].decision_rule = reviewers_rule
    backdoored = build_image("service-image", seed=b"backdoor",
                             version="2.1")
    malicious = operator.read_policy(palaemon, "governed_service")
    prepare_application_update(malicious, "service", backdoored.mrenclave())
    try:
        operator.update_policy(palaemon, malicious)
        raise AssertionError("malicious update went through!")
    except ApprovalDeniedError as exc:
        print(f"2. backdoored v2.1 blocked at the board: {exc}")
    try:
        runtime.launch(backdoored, "governed_service", "service")
    except MrenclaveNotPermittedError:
        print("   ...and the backdoored binary cannot attest.")

    # --- 3. the veto --------------------------------------------------------
    decision_rules["auditor"].decision_rule = lambda _request: True
    decision_rules["developer"].decision_rule = lambda _request: True
    decision_rules["data-provider"].decision_rule = (
        lambda request: request.operation != "update")
    leaky = operator.read_policy(palaemon, "governed_service")
    prepare_application_update(
        leaky, "service",
        build_image("service-image", seed=b"leaky", version="2.2")
        .mrenclave())
    try:
        operator.update_policy(palaemon, leaky)
        raise AssertionError("veto did not fire!")
    except VetoError as exc:
        print(f"3. {exc}")
    decision_rules["data-provider"].decision_rule = lambda _request: True

    # --- 4. image-policy revocation (the intersection rule) ---------------
    # The image provider vouches for v1 and v2 (tag wildcard: the provider
    # curates binaries; per-deployment volume tags stay with the app).
    export = ImagePolicyExport("service-image")
    export.add_release(ImageRelease(v1.mrenclave(), b"", "1.0"))
    export.add_release(ImageRelease(v2.mrenclave(), b"", "2.0"))
    with_import = operator.read_policy(palaemon, "governed_service")
    apply_image_export(with_import, export)
    operator.update_policy(palaemon, with_import)
    runtime.launch(v1, "governed_service", "service")
    print("4. image policy imported: curated v1 runs.")

    export.revoke("1.0")  # vulnerability discovered upstream
    revoked = operator.read_policy(palaemon, "governed_service")
    apply_image_export(revoked, export)
    operator.update_policy(palaemon, revoked)
    try:
        runtime.launch(v1, "governed_service", "service")
        raise AssertionError("revoked combination still runs!")
    except AttestationError:
        print("   upstream revoked v1.0 -> the combination is disabled "
              "downstream automatically.")

    # --- 5. updating PALAEMON itself (via its CA) ---------------------------
    new_palaemon_mre = build_palaemon_image(version="2.0").mrenclave()
    coordinator = CAUpdateCoordinator(board, deployment.evaluator,
                                      operator.certificate)
    new_ca = coordinator.approve_and_build(
        ca, frozenset({palaemon.mrenclave, new_palaemon_mre}),
        deployment.rng.fork(b"ca-v2"), version="2.0")
    palaemon.obtain_certificate(new_ca)
    print("5. board approved the CA update; the new CA certifies both the "
          "current and the next PALAEMON version. Done.")


if __name__ == "__main__":
    main()
