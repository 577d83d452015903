#!/usr/bin/env python3
"""The paper's motivating use case (Fig 1-2, SS VI): Byzantine stakeholders
around a machine-learning pipeline.

Cast:
- the *software provider* owns the Python ML engine (CIF-protected code);
- the *model provider* runs the engine on training data to produce models,
  and must never see the engine's code;
- the software provider limits how many models may be produced; the model
  provider tries to cheat with a rollback attack and gets caught.

Run:  python examples/ml_pipeline.py
"""

from repro.core.policy import SecurityPolicy, ServiceSpec
from repro.core.secrets import SecretKind, SecretSpec
from repro.deployment import Deployment
from repro.errors import StrictModeError, TagMismatchError
from repro.fs.blockstore import BlockStore
from repro.runtime.scone import SconeRuntime
from repro.tee.image import build_image

MODEL_QUOTA = 3


def main() -> None:
    deployment = Deployment(seed=b"ml-pipeline")
    palaemon = deployment.palaemon

    # The software provider owns the policy; its engine runs in strict
    # mode so unclean exits (and rollbacks) freeze the pipeline.
    software_provider = deployment.client("software-provider")
    engine_image = build_image("python-ml-engine", seed=b"engine-v1")
    policy = SecurityPolicy(
        name="ml_training",
        services=[ServiceSpec(
            name="trainer",
            image_name="python-ml-engine",
            command=["python", "/engine/train.py"],
            mrenclaves=[engine_image.mrenclave()],
            strict_mode=True,
        )],
        secrets=[SecretSpec(name="CODE_KEY", kind=SecretKind.RANDOM)],
    )
    software_provider.create_policy(palaemon, policy)
    print("Software provider registered the strict-mode training policy.")

    # The model provider runs training jobs on a volume it controls.
    runtime = SconeRuntime(deployment.platform, palaemon,
                           deployment.rng.fork(b"runtime"))
    volume = BlockStore("model-provider-volume")

    def train_once(label: str) -> None:
        executions = palaemon.execution_count("ml_training", "trainer")
        if executions >= MODEL_QUOTA:
            raise PermissionError(
                f"quota of {MODEL_QUOTA} training runs exhausted")
        app = runtime.launch(engine_image, "ml_training", "trainer",
                             volume=volume)
        produced = executions + 1
        app.write_file("/output/model.bin",
                       f"model-{produced}-weights".encode())
        app.write_file("/state/run-count", str(produced).encode())
        app.exit_cleanly()
        print(f"  {label}: produced model #{produced} "
              f"(PALAEMON counted {produced}/{MODEL_QUOTA} executions)")

    print(f"Model provider trains up to its quota of {MODEL_QUOTA}:")
    train_once("run 1")
    checkpoint = volume.snapshot()  # the model provider quietly checkpoints
    train_once("run 2")
    train_once("run 3")

    # Quota exhausted; honest retry fails.
    try:
        train_once("run 4 (over quota)")
    except PermissionError as exc:
        print(f"  run 4 refused: {exc}")

    # The rollback attack: restore the volume to the post-run-1 state and
    # hope PALAEMON forgets runs 2-3. The expected tag gives it away.
    print("Model provider attempts a rollback attack "
          "(restores the post-run-1 volume snapshot)...")
    volume.restore(checkpoint)
    try:
        runtime.launch(engine_image, "ml_training", "trainer", volume=volume)
        raise AssertionError("rollback was not detected!")
    except TagMismatchError as exc:
        print(f"  DETECTED: {exc}")

    # Even the execution counter is unaffected: PALAEMON's own database is
    # rollback-protected by the Fig 6 counter protocol.
    count = palaemon.execution_count("ml_training", "trainer")
    print(f"PALAEMON's execution count stands at {count} (the rollback "
          f"attempt itself was attested, then refused at mount): the quota "
          f"cannot be reset.")

    # Confidentiality: neither the engine's code key nor the models are
    # readable from the untrusted volumes.
    assert volume.scan_for(b"model-1-weights") == []
    assert volume.scan_for(b"model-2-weights") == []
    print("Models on the model provider's volume are encrypted at rest.")

    # Strict mode also freezes the pipeline after a crash: a crashed run
    # never pushed its clean-exit tag, so restarts need a policy update.
    app = None
    try:
        app = runtime.launch(engine_image, "ml_training", "trainer",
                             volume=BlockStore("fresh-volume"))
    except StrictModeError:
        pass
    if app is not None:
        app.crash()
        try:
            runtime.launch(engine_image, "ml_training", "trainer",
                           volume=BlockStore("fresh-volume-2"))
        except StrictModeError as exc:
            print(f"Strict mode after a crash: {exc}")
    print("Done.")


if __name__ == "__main__":
    main()
