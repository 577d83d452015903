#!/usr/bin/env python3
"""Quickstart: stand up PALAEMON, create a policy, attest an app, get secrets.

This walks the minimal end-to-end path of the paper's §IV:

1. stand up a deployment: a simulated SGX platform registered with IAS,
   a PALAEMON instance started with the Fig 6 protocol and certified by
   the PALAEMON CA;
2. a client attests the instance and creates a security policy from a
   YAML document shaped like the paper's List 1;
3. the SCONE runtime launches the application, which is attested and
   receives its arguments, environment, file-system key, and injected
   config file — without any source-code change.

Run:  python examples/quickstart.py
"""

from repro.core.policy import SecurityPolicy
from repro.deployment import Deployment
from repro.runtime.scone import SconeRuntime
from repro.tee.image import build_image

POLICY_YAML = """
name: quickstart_policy
services:
  - name: web_app
    image_name: web-app-image
    command: app --listen=0.0.0.0:8443
    environment:
      DEPLOYMENT: production
      API_KEY: $$PALAEMON$API_KEY$$
    mrenclaves: ["$APP_MRENCLAVE"]
    inject_files:
      /etc/app/tls.conf: "private_key = $$PALAEMON$TLS_KEY$$\\n"
secrets:
  - name: API_KEY
    kind: random
    size: 32
  - name: TLS_KEY
    kind: x509
    common_name: app.example.com
"""


def main() -> None:
    # --- infrastructure: a platform, IAS, PALAEMON, and its CA ------------
    deployment = Deployment(seed=b"quickstart")
    palaemon = deployment.palaemon
    print(f"PALAEMON instance up, MRENCLAVE "
          f"{palaemon.mrenclave.hex()[:16]}...")
    print("PALAEMON CA issued the instance certificate (IAS-attested).")

    # --- a client attests the instance and creates a policy ---------------
    client = deployment.client("quickstart-client")
    print("Client attested the instance via the CA root.")

    app_image = build_image("web-app-image", seed=b"release-1")
    policy = SecurityPolicy.from_yaml(
        POLICY_YAML,
        mrenclave_registry={"APP_MRENCLAVE": app_image.mrenclave()})
    client.create_policy(palaemon, policy)
    print(f"Policy {policy.name!r} created "
          f"({len(policy.secrets)} secrets materialized).")

    # --- launch the application through the SCONE runtime -----------------
    runtime = SconeRuntime(deployment.platform, palaemon,
                           deployment.rng.fork(b"runtime"))
    app = runtime.launch(app_image, "quickstart_policy", "web_app")
    print("Application attested and configured:")
    print(f"  argv        = {app.argv()}   (no secrets: argv is visible "
          f"through /proc outside the TEE)")
    print(f"  DEPLOYMENT  = {app.getenv('DEPLOYMENT')}")
    print(f"  API_KEY     = {len(app.getenv('API_KEY'))} bytes, "
          f"delivered via the enclave environment")
    tls_conf = app.read_file("/etc/app/tls.conf")
    print(f"  /etc/app/tls.conf starts with {tls_conf[:24]!r} "
          f"({len(tls_conf)} bytes, secret injected in enclave memory)")
    assert b"$$PALAEMON$" not in tls_conf

    # --- the shielded file system in action ------------------------------
    app.write_file("/data/records.db", b"row1,row2,row3")
    app.exit_cleanly()
    print(f"App exited cleanly; expected tag at PALAEMON: "
          f"{palaemon.get_tag_instant('quickstart_policy', 'web_app').hex()[:16]}...")

    # A restart on the same volume verifies freshness and sees the data.
    restarted = runtime.launch(app_image, "quickstart_policy", "web_app",
                               volume=app.fs.store)
    assert restarted.read_file("/data/records.db") == b"row1,row2,row3"
    print("Restart verified the volume tag and recovered the data. Done.")


if __name__ == "__main__":
    main()
