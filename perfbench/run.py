#!/usr/bin/env python3
"""Run one benchmark workload against the ``repro`` package in ``src/``.

    python3 perfbench/run.py --workload tag-churn --seed 1 --seconds 8 \\
        --trace 0

``--trace 0`` sets up the deployment several times (``setup_s`` is the
median), then runs the workload's fixed operation count untraced and
reports the end-to-end metrics. ``--trace 1`` runs the same operations
untraced and then again, on a fresh deployment, with the per-layer timing
wrappers installed; it reports the per-layer metrics and the tracing
overhead, and checks that tracing changed no virtual result.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``. The exit
code is 0 only when every output check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups per --trace 0 run; the median is reported as setup_s.
SETUPS = {"tag-churn": 3}
DEFAULT_SETUPS = 5
#: Host-time samples per measured phase, each rescaled to the reference
#: speed on its own; ops_per_s divides all their operations by their sum.
CHUNKS = 80
#: Enough operations for every chunk and every open-loop window.
MIN_OPS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sizes the fixed operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Put the checkout's ``src`` on the path; fail loudly without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def build_timed(workload):
    """Set up once: (state, CPU seconds at reference speed, as measured)."""
    from perfbench.clock import calibrate, speed

    gc.collect()
    before = calibrate()
    started = time.process_time()
    state = workload.build()
    seconds = time.process_time() - started
    return state, seconds * speed(before, calibrate()), seconds


def measure(workload, state, ops):
    """One untraced measured phase: (outcome, meter, host seconds)."""
    from perfbench.workloads import Meter, finish

    meter = Meter(ops, CHUNKS)
    started = time.process_time()
    outcome = workload.run(state, ops, meter)
    host = time.process_time() - started
    finish(state, outcome)
    return outcome, meter, host


def end_to_end(workload, ops):
    setups = SETUPS.get(workload.name, DEFAULT_SETUPS)
    times, measured = [], []
    for _ in range(setups):
        state = None
        state, seconds, raw = build_timed(workload)
        times.append(seconds)
        measured.append(raw)
    outcome, meter, host = measure(workload, state, ops)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"setup_s: {' '.join(f'{t:.4f}' for t in times)} at reference "
          f"speed (median); as measured "
          f"{' '.join(f'{t:.4f}' for t in measured)}")
    rates = (meter.chunk / seconds for seconds in meter.reference_seconds)
    print(f"ops_per_s: chunk rates {' '.join(f'{r:.1f}' for r in rates)} "
          f"at reference speed; over all chunks {meter.rate():.1f}, as "
          f"measured {meter.measured_rate():.1f}; "
          f"{outcome.attempted} ops in {host:.3f} host CPU s")
    metrics = {
        "ops_per_s": (meter.rate(), "op/s"),
        "setup_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "virt_err": (outcome.virt_err, "ratio"),
    }
    return outcome, metrics


def per_layer(workload, ops):
    from perfbench.tracer import HostTracer, layer_metrics, unit_of
    from perfbench.workloads import Meter, finish

    state, _seconds, _raw = build_timed(workload)
    untraced, untraced_meter, untraced_host = measure(workload, state, ops)
    state = None
    gc.collect()
    tracer = HostTracer()
    tracer.install()
    try:
        workload.client = tracer.client
        state = workload.build()
        deployment = state[0]
        tracer.now_virtual = lambda: deployment.simulator.now
        started = time.process_time()
        tracer.begin()
        meter = Meter(ops, CHUNKS)
        outcome = workload.run(state, ops, meter)
        tracer.end()
        traced_host = time.process_time() - started
    finally:
        tracer.uninstall()
    finish(state, outcome)
    # Rates at the reference speed, as for ops_per_s.
    overhead = untraced_meter.rate() / meter.rate() - 1
    print(f"tracing overhead: {overhead:.3f} (reference-speed rates; "
          f"{traced_host:.3f} s traced / {untraced_host:.3f} s untraced)")
    if outcome.digest != untraced.digest:
        outcome.fail_check(f"tracing changed virtual results: digest "
                           f"{outcome.digest} != {untraced.digest}")
    balance = tracer.balance_error()
    print(f"attribution: self times + unattributed = host time "
          f"within {balance:.2e}")
    if balance > 1e-9:
        outcome.fail_check(f"per-layer attribution off by {balance:.2e}")
    metrics = layer_metrics(tracer, outcome.attempted,
                            deployment.telemetry, overhead)
    return outcome, {name: (value, unit_of(name))
                     for name, value in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    ops = workload.ops_for(args.seconds)
    if ops < MIN_OPS:
        raise SystemExit(f"perfbench: {ops} operations is too few to "
                         f"measure; use at least {MIN_OPS}")
    print(f"workload: {workload.name}  seed: {args.seed}  ops: {ops}  "
          f"trace: {args.trace}")
    if args.trace:
        outcome, metrics = per_layer(workload, ops)
    else:
        outcome, metrics = end_to_end(workload, ops)
    failed = len(outcome.failures)
    for note in outcome.notes:
        print(note)
    print(f"error_rate: {failed / outcome.attempted:.6f} "
          f"({failed} of {outcome.attempted})")
    for failure in outcome.failures[:10]:
        print(f"FAILED {failure}")
    print(f"digest: {outcome.digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
