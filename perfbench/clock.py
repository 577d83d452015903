"""Host CPU time at a fixed reference speed.

The shared machines this benchmark runs on change speed from one second to
the next (other tenants, a busy SMT sibling): a fixed loop's CPU time was
seen to swing 2x between consecutive samples. To keep runs comparable,
every host-time sample is bracketed by a fixed calibration kernel, and the
sample is rescaled by how much slower or faster than its reference time
that kernel ran. On a core running at the reference speed the rescaled
value equals the measured one.

The kernel mixes the operations the simulation spends its time on:
generator resumes and heap scheduling (the event core), dict updates,
SHA-256 (the AEAD keystream), pickle (the store and the TLS channel) and
modular exponentiation (RSA).
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import pickle
import statistics
import time

#: The kernel's CPU time on an uncontended core of the machine the
#: baseline was measured on (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCE_SECONDS = 0.004


def _kernel() -> bytes:
    def process(index):
        total = 0
        for step in range(4):
            total += yield index * 7 + step
        return total

    queue = []
    table = {}
    for index in range(400):
        generator = process(index)
        heapq.heappush(queue, (next(generator) % 97, index, generator))
    digest = b""
    while queue:
        at, index, generator = heapq.heappop(queue)
        digest = hashlib.sha256(digest + at.to_bytes(4, "big")).digest()
        table[at] = table.get(at, 0) + 1
        try:
            heapq.heappush(queue, (at + generator.send(at) % 13 + 1, index,
                                   generator))
        except StopIteration:
            pass
    for _ in range(100):
        table = pickle.loads(pickle.dumps(table))
    modulus = int.from_bytes(hashlib.sha512(digest).digest(), "big") | 1
    return pow(int.from_bytes(digest, "big"), modulus >> 256, modulus) \
        .to_bytes(64, "big")


def calibrate() -> float:
    """CPU seconds the calibration kernel takes right now: the median of
    three runs, so one stall of the core does not set the estimate.

    The garbage collector is off while the kernel runs: a collection's cost
    depends on the program's heap, and it must not be read as machine
    slowness and divided out of the program's own cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(3):
            started = time.process_time()
            _kernel()
            samples.append(time.process_time() - started)
        return statistics.median(samples)
    finally:
        if enabled:
            gc.enable()


def speed(before: float, after: float) -> float:
    """How many times faster than the reference the core ran, estimated
    from calibrations just before and just after a sample."""
    return REFERENCE_SECONDS / ((before + after) / 2)
