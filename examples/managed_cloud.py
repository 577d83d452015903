#!/usr/bin/env python3
"""Managed PALAEMON on an untrusted provider (SS III-B / SS IV-B / SS IV-C).

The cloud provider operates the PALAEMON instance and controls its host,
volume, and network. The example shows what clients can and cannot be
fooled into:

1. clients attest a genuine instance via the CA, or explicitly via IAS;
2. the provider runs a *modified* PALAEMON: no CA certificate, and explicit
   attestation also fails — clients never talk to it;
3. the provider tries to clone the instance (two copies from the same
   sealed identity): the monotonic-counter protocol kills the clone;
4. the provider rolls the instance's database back: the restart refuses;
5. everything at rest on the provider's volume is ciphertext.

Run:  python examples/managed_cloud.py
"""

from repro.core.client import PalaemonClient
from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.secrets import SecretKind, SecretSpec
from repro.core.service import PalaemonService
from repro.deployment import Deployment
from repro.errors import (
    AttestationError,
    ConcurrentInstanceError,
    StaleDatabaseError,
)
from repro.fs.blockstore import BlockStore
from repro.tee.image import build_image


def main() -> None:
    # The provider hosts the instance; the volume is under its control.
    deployment = Deployment(seed=b"managed-cloud", name="managed-1")
    simulator, platform, rng = (deployment.simulator, deployment.platform,
                                deployment.rng)
    ias, ca, palaemon = deployment.ias, deployment.ca, deployment.palaemon
    provider_volume = deployment.volume

    # --- 1. both attestation paths succeed on the genuine instance --------
    client = deployment.client("tenant")  # attested via the CA
    client.attest_instance_explicitly(
        palaemon, ias, trusted_mrenclaves=frozenset({palaemon.mrenclave}))
    print("1. Client attested the managed instance via CA *and* via "
          "explicit IAS report.")

    app_image = build_image("tenant-app", seed=b"v1")
    policy = SecurityPolicy(
        name="tenant_policy",
        services=[ServiceSpec(name="app", image_name="tenant-app",
                              mrenclaves=[app_image.mrenclave()])],
        secrets=[SecretSpec(name="DATA_KEY", kind=SecretKind.RANDOM)])
    client.create_policy(palaemon, policy)
    print("   Tenant stored its policy and secrets in the managed instance.")

    # --- 2. a tampered PALAEMON build gets nowhere -------------------------
    evil = PalaemonService(platform, BlockStore("evil-volume"),
                           rng.fork(b"evil"), version="providers-own-build",
                           name="managed-evil")
    simulator.run_process(evil.start())
    try:
        evil.obtain_certificate(ca)
        raise AssertionError("CA certified a tampered build!")
    except AttestationError:
        print("2. Provider's modified PALAEMON: CA refuses to certify it...")
    fresh_client = PalaemonClient("careful-tenant", rng.fork(b"careful"))
    try:
        fresh_client.attest_instance_explicitly(
            evil, ias, trusted_mrenclaves=frozenset({palaemon.mrenclave}))
        raise AssertionError("explicit attestation accepted it!")
    except AttestationError:
        print("   ...and explicit attestation rejects its MRENCLAVE.")

    # --- 3. cloning the instance -------------------------------------------
    simulator.run_process(palaemon.shutdown())
    simulator.run_process(palaemon.start())
    clone_volume = BlockStore("clone-volume")
    clone_volume.restore(provider_volume.snapshot())
    clone = PalaemonService(platform, clone_volume, rng.fork(b"clone"),
                            name="managed-1")  # same identity, same counter
    try:
        simulator.run_process(clone.start())
        raise AssertionError("clone started!")
    except (StaleDatabaseError, ConcurrentInstanceError) as exc:
        print(f"3. Clone attempt: {type(exc).__name__}: {exc}")

    # --- 4. rolling back the instance database -----------------------------
    checkpoint = provider_volume.snapshot()
    more = SecurityPolicy(
        name="second_policy",
        services=[ServiceSpec(name="app", image_name="tenant-app",
                              mrenclaves=[app_image.mrenclave()])])
    client.create_policy(palaemon, more)
    simulator.run_process(palaemon.shutdown())
    provider_volume.restore(checkpoint)  # forget second_policy
    reborn = PalaemonService(platform, provider_volume,
                             rng.fork(b"reborn"), name="managed-1")
    try:
        simulator.run_process(reborn.start())
        raise AssertionError("rolled-back instance restarted!")
    except StaleDatabaseError as exc:
        print(f"4. Database rollback on restart: {exc}")

    # --- 5. nothing readable at rest ---------------------------------------
    leaks = provider_volume.scan_for(b"tenant_policy")
    print(f"5. Provider scans its volume for tenant data: "
          f"{len(leaks)} plaintext hits (policies, secrets, and tags are "
          f"sealed/encrypted). Done.")
    assert leaks == []


if __name__ == "__main__":
    main()
