"""Tests of the benchmark itself: output checks, smoke runs, determinism,
and the traced run's attribution."""

import json
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from perfbench import run
from perfbench.tracer import HostTracer, better_of, layer_metrics, unit_of
from perfbench.workloads import (
    APP_CONFIG_PATH,
    REFUSAL_CODE,
    WORKLOADS,
    Meter,
    check_board_round,
    check_kv_get,
    check_launch,
    check_policy_list,
    check_tag_get,
    finish,
)
from repro.crypto.primitives import DeterministicRandom
from repro.fs.blockstore import BlockStore
from repro.fs.shield import ProtectedFileSystem
from repro.sim.core import Simulator

ROOT = Path(__file__).resolve().parents[2]

#: A fast configuration of every workload: small database, few operations.
SMOKE = {
    "startup": dict(policies=8, ops=12),
    "tag-churn": dict(policies=16, ops=64),
    "governance": dict(policies=8, ops=16),
    "macro-kv": dict(ops=400),
}


def smoke(name, seed=1):
    workload = WORKLOADS[name](seed)
    config = dict(SMOKE[name])
    ops = config.pop("ops")
    for attribute, value in config.items():
        setattr(workload, attribute, value)
    return workload, ops


def run_smoke(name, seed=1, tracer=None):
    workload, ops = smoke(name, seed)
    if tracer is not None:
        workload.client = tracer.client
    state = workload.build()
    if tracer is not None:
        tracer.now_virtual = lambda: state[0].simulator.now
        tracer.begin()
    outcome = workload.run(state, ops, Meter(ops, 4))
    if tracer is not None:
        tracer.end()
        tracer.uninstall()
    finish(state, outcome)
    return state, outcome


# -- output checks fail when fed a wrong outcome -------------------------------

def _config(injected=b"token = s3cret\n", environment=None):
    return SimpleNamespace(
        secrets={"API_KEY": b"s3cret"},
        injected_files={APP_CONFIG_PATH: injected},
        environment=environment or {"API_KEY": "s3cret"},
        command=["app"])


def test_launch_check_accepts_expected_outcomes():
    assert check_launch(False, config=_config()) is None
    assert check_launch(True, code=REFUSAL_CODE) is None


@pytest.mark.parametrize("expect_refusal,config,code", [
    (True, _config(), None),  # a forbidden MRENCLAVE was accepted
    (True, None, "policy_not_found"),  # refused for the wrong reason
    (False, None, REFUSAL_CODE),  # a listed image was refused
    (False, _config(injected=b"token = $$PALAEMON$API_KEY$$\n"), None),
    (False, _config(injected=b"token = other\n"), None),
    (False, _config(environment={"API_KEY": "$$PALAEMON$API_KEY$$"}), None),
])
def test_launch_check_rejects_wrong_outcomes(expect_refusal, config, code):
    assert check_launch(expect_refusal, config=config, code=code) is not None


def _filesystem():
    fs = ProtectedFileSystem(BlockStore("v"), b"k" * 32,
                             DeterministicRandom(b"fs"))
    fs.write("/data/a", b"one")
    return fs, fs.sync()


def test_tag_check_rejects_stale_tag():
    fs, first = _filesystem()
    assert check_tag_get(first, first, fs) is None
    fs.write("/data/a", b"two")
    second = fs.sync()
    assert check_tag_get(first, second, fs) is not None


def test_tag_check_rejects_a_file_system_that_does_not_verify():
    fs, tag = _filesystem()
    fs.write("/data/a", b"unsynced change")
    assert check_tag_get(tag, tag, fs) is not None


def test_board_round_check():
    good = {"decision": "approved", "approvals": 2, "unreachable": 1,
            "rejections": 0, "invalid": 0}
    assert check_board_round(good, approvals=2, unreachable=1) is None
    for key, value in (("approvals", 3), ("unreachable", 0),
                       ("invalid", 1), ("decision", "denied")):
        assert check_board_round({**good, key: value}, approvals=2,
                                 unreachable=1) is not None


def test_policy_list_and_kv_checks():
    assert check_policy_list(["b", "a"], ["a", "b"]) is None
    assert check_policy_list(["a", "b", "gov-0-0"], ["a", "b"]) is not None
    assert check_kv_get(b"v1", {b"v1"}) is None
    assert check_kv_get(None, {b"v1"}) is not None
    assert check_kv_get(b"forged", {b"v1"}) is not None


# -- smoke runs, determinism ---------------------------------------------------

@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_passes_every_check(name):
    _state, outcome = run_smoke(name)
    assert outcome.attempted >= SMOKE[name]["ops"] * 0.9
    assert outcome.failures == []
    assert 0 < outcome.virt_err < 1


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_same_seed_same_digest_other_seed_other_inputs(name):
    _state, first = run_smoke(name, seed=7)
    _state, again = run_smoke(name, seed=7)
    _state, other = run_smoke(name, seed=8)
    assert first.digest == again.digest
    assert first.latencies == again.latencies
    assert other.digest != first.digest


def test_macro_kv_output_check_catches_a_lost_write():
    workload, ops = smoke("macro-kv")
    deployment, server, written = workload.build()
    server.delete("key-0")
    outcome = workload.run((deployment, server, written), ops,
                           Meter(ops, 4))
    assert any("missed" in failure for failure in outcome.failures)


def test_cli_prints_one_json_result_last(capsys):
    code = run.main(["--workload", "governance", "--seed", "3",
                     "--seconds", "1"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {metric["name"]: metric["unit"]
            for metric in declared["end_to_end"]} == {
        name: value["unit"] for name, value in result["metrics"].items()}


# -- the traced run ------------------------------------------------------------

def test_traced_run_attributes_all_host_time_and_changes_nothing():
    _state, untraced = run_smoke("tag-churn")
    tracer = HostTracer()
    tracer.install()
    state, traced = run_smoke("tag-churn", tracer=tracer)
    assert traced.digest == untraced.digest
    assert traced.failures == []
    assert tracer.balance_error() < 1e-9
    metrics = layer_metrics(tracer, traced.attempted, state[0].telemetry, 0.1)
    assert metrics["core.rest.tag.get.n"] == 3 * metrics[
        "core.rest.tag.update.n"]
    assert metrics["core.store.flushes_per_op"] == pytest.approx(0.25)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [
        (name, unit_of(name), better_of(name)) for name in metrics]


def test_names_are_wrapped_where_they_are_looked_up():
    import repro.core.board as board
    import repro.core.service as service
    import repro.crypto.signatures as signatures

    original = board.verify_signature
    tracer = HostTracer()
    tracer.install()
    try:
        assert board.verify_signature is signatures.verify_signature
        assert board.verify_signature is not original
        assert service.verify_evidence.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert board.verify_signature is original
    assert not hasattr(service.verify_evidence, "__wrapped__")


def test_interleaved_generators_are_timed_per_resume_without_nesting():
    simulator = Simulator()
    tracer = HostTracer()
    tracer.now_virtual = lambda: simulator.now

    def busy(seconds):
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass

    def request(delay):
        busy(0.002)
        yield simulator.timeout(delay)
        busy(0.002)

    tracer.begin()
    for delay in (1.0, 2.0):
        simulator.process(tracer.client(request(delay)))
    simulator.run()
    tracer.end()
    stats = tracer.stats["client"]
    assert stats.calls == 2
    assert stats.virtual == [1.0, 2.0]
    # Self time equals total time: neither request nested in the other.
    assert stats.self_ns == stats.total_ns
    assert stats.total_ns >= 4 * 2_000_000
    assert tracer.balance_error() < 1e-9
