"""Tests for the discrete-event simulation kernel."""

import hashlib

import pytest

from repro.crypto.primitives import DeterministicRandom
from repro.errors import DeadlineExceededError, SimTimeError, SimulationError
from repro.sim.core import ProcessInterrupt, Simulator
from repro.sim.resources import Resource, Store


class TestTimeouts:
    def test_clock_advances_to_timeout(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)
            return sim.now

        assert sim.run_process(proc()) == 5.0

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)
            yield sim.timeout(3.0)
            return sim.now

        assert sim.run_process(proc()) == 6.0

    def test_zero_delay_allowed(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(0.0)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimTimeError):
            sim.timeout(-1.0)

    def test_timeout_value_passed_back(self):
        sim = Simulator()

        def proc():
            value = yield sim.timeout(1.0, value="payload")
            return value

        assert sim.run_process(proc()) == "payload"


class TestProcesses:
    def test_processes_interleave_deterministically(self):
        sim = Simulator()
        trace = []

        def worker(name, delay):
            yield sim.timeout(delay)
            trace.append((name, sim.now))

        def main():
            a = sim.process(worker("a", 2.0))
            b = sim.process(worker("b", 1.0))
            yield sim.all_of([a, b])

        sim.run_process(main())
        assert trace == [("b", 1.0), ("a", 2.0)]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        trace = []

        def worker(name):
            yield sim.timeout(1.0)
            trace.append(name)

        def main():
            procs = [sim.process(worker(i)) for i in range(5)]
            yield sim.all_of(procs)

        sim.run_process(main())
        assert trace == [0, 1, 2, 3, 4]

    def test_process_return_value_via_wait(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            return 42

        def parent():
            result = yield sim.process(child())
            return result

        assert sim.run_process(parent()) == 42

    def test_waiting_on_finished_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            return "early"

        def parent():
            proc = sim.process(child())
            yield sim.timeout(10.0)  # child long done
            result = yield proc
            return result

        assert sim.run_process(parent()) == "early"

    def test_exception_propagates_to_waiter(self):
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return str(exc)

        assert sim.run_process(parent()) == "boom"

    def test_unwaited_crash_surfaces(self):
        sim = Simulator()

        def crasher():
            yield sim.timeout(1.0)
            raise RuntimeError("silent crash")

        sim.process(crasher())
        with pytest.raises(RuntimeError, match="silent crash"):
            sim.run()

    def test_yield_non_event_fails_process(self):
        sim = Simulator()

        def bad():
            yield "not an event"

        with pytest.raises(SimulationError, match="not an Event"):
            sim.run_process(bad())

    def test_interrupt(self):
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except ProcessInterrupt:
                return "interrupted"
            return "slept"

        def main():
            proc = sim.process(sleeper())
            yield sim.timeout(1.0)
            proc.interrupt()
            result = yield proc
            return result

        assert sim.run_process(main()) == "interrupted"

    def test_interrupt_detaches_the_stale_wait(self):
        """A victim that survives an interrupt is resumed by its next wait,
        not by the event it was waiting on when interrupted."""
        sim = Simulator()

        def victim():
            try:
                yield sim.timeout(5.0)
            except ProcessInterrupt:
                pass
            value = yield sim.timeout(10.0, value="late")
            return (sim.now, value)

        def main():
            proc = sim.process(victim())
            yield sim.timeout(1.0)
            proc.interrupt()
            result = yield proc
            return result

        assert sim.run_process(main()) == (11.0, "late")

    def test_interrupt_detaches_a_wait_on_a_fired_event(self):
        sim = Simulator()
        fired = sim.event()
        fired.succeed("early")
        trace = []

        def victim():
            yield sim.timeout(1.0)
            try:
                trace.append((yield fired))
            except ProcessInterrupt:
                trace.append("interrupted")
            trace.append((yield sim.timeout(2.0, value="after")))

        def main():
            proc = sim.process(victim())
            yield sim.timeout(1.0)
            # The victim has just yielded the fired event; its wake-up is
            # queued but not yet run.
            proc.interrupt()
            yield proc

        sim.run_process(main())
        assert trace == ["interrupted", "after"]
        assert sim.now == 3.0

    def test_process_ended_by_its_interrupt_is_not_a_crash(self):
        """Interrupting a process nobody waits on abandons it; its dying of
        the interrupt must not surface out of ``run``."""
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        proc = sim.process(sleeper())
        sim.run(until=1.0)
        proc.interrupt()
        sim.run()
        assert isinstance(proc.failure, ProcessInterrupt)

    def test_finished_process_releases_its_last_wait(self):
        """Open-loop generators keep every request process until the window
        ends; a finished one must not pin its children through the
        reference it used for interrupts."""
        sim = Simulator()

        def child():
            yield sim.timeout(1.0)

        def parent():
            yield sim.process(child())

        proc = sim.process(parent())
        sim.run()
        assert proc.processed and proc._waiting_on is None


class TestEvents:
    def test_manual_succeed(self):
        sim = Simulator()
        gate = sim.event()

        def opener():
            yield sim.timeout(3.0)
            gate.succeed("opened")

        def waiter():
            sim.process(opener())
            value = yield gate
            return (value, sim.now)

        assert sim.run_process(waiter()) == ("opened", 3.0)

    def test_double_trigger_rejected(self):
        sim = Simulator()
        gate = sim.event()
        gate.succeed()
        with pytest.raises(SimulationError):
            gate.succeed()

    def test_fail_raises_in_waiter(self):
        sim = Simulator()
        gate = sim.event()

        def failer():
            yield sim.timeout(1.0)
            gate.fail(KeyError("nope"))

        def waiter():
            sim.process(failer())
            try:
                yield gate
            except KeyError:
                return "caught"

        assert sim.run_process(waiter()) == "caught"

    def test_all_of_empty(self):
        sim = Simulator()

        def proc():
            results = yield sim.all_of([])
            return results

        assert sim.run_process(proc()) == []

    def test_all_of_collects_values_in_order(self):
        sim = Simulator()

        def child(value, delay):
            yield sim.timeout(delay)
            return value

        def main():
            procs = [sim.process(child("a", 3.0)),
                     sim.process(child("b", 1.0))]
            results = yield sim.all_of(procs)
            return results

        assert sim.run_process(main()) == ["a", "b"]


class TestRun:
    def test_run_until_stops_clock(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100.0)

        sim.process(proc())
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_past_rejected(self):
        sim = Simulator()
        sim.now = 5.0
        with pytest.raises(SimTimeError):
            sim.run(until=1.0)

    def test_deadlock_detected(self):
        sim = Simulator()

        def stuck():
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_process(stuck())

    def test_event_in_past_rejected(self):
        sim = Simulator()
        sim.now = 10.0
        with pytest.raises(SimTimeError):
            sim._enqueue(5.0, sim.event())


def _event_core_scenario():
    """A canned run touching every kernel path; returns (sim, log).

    Open-loop arrivals queue on a contended two-slot resource and hand
    their results to a consumer through a store; a getter is abandoned by
    a ``with_timeout`` deadline that interrupts it (and, through a nested
    request, a second process); an ``all_of`` gates on every request; a
    process waits on an already-finished child; and one crash has no
    waiter.
    """
    sim = Simulator()
    rng = DeterministicRandom(b"kat-event-core")
    cpu = Resource(sim, capacity=2, name="cpu")
    mailbox = Store(sim, name="mailbox")
    log = []

    def note(*fields):
        log.append(" ".join([repr(sim.now)] + [str(f) for f in fields]))

    def request(index):
        yield cpu.acquire()
        try:
            yield sim.timeout(0.005 + 0.02 * rng.random())
        finally:
            cpu.release()
        mailbox.put(index)
        note("served", index)
        return index * index

    def consumer(count):
        for _ in range(count):
            item = yield mailbox.get()
            note("consumed", item)

    def abandoned_getter():
        get = mailbox.get()
        try:
            yield get
        except ProcessInterrupt as exc:
            mailbox.cancel(get)
            note("cancelled", exc)
            raise

    def nested_caller():
        inner = sim.process(abandoned_getter(), name="inner")
        try:
            value = yield inner
        except ProcessInterrupt:
            if not inner.triggered:
                inner.interrupt("caller abandoned")
            raise
        return value

    def deadline(factory, seconds):
        try:
            yield sim.with_timeout(sim.process(factory()), seconds)
        except DeadlineExceededError as exc:
            note("deadline", exc)

    def child():
        yield sim.timeout(0.001)
        return "child-done"

    def crasher():
        yield sim.timeout(1.0)
        raise RuntimeError("kat crash")

    def main():
        sim.process(deadline(abandoned_getter, 0.001), name="getter")
        sim.process(deadline(nested_caller, 0.002), name="nested")
        # The abandoned getters must not steal the consumer's items.
        sim.process(consumer(12), name="consumer")
        requests = []
        for index in range(12):
            yield sim.timeout(rng.expovariate(400.0))
            requests.append(sim.process(request(index), name=f"r{index}"))
        results = yield sim.all_of(requests)
        note("all_of", results)
        finished = sim.process(child(), name="child")
        yield sim.timeout(0.01)
        note("late-wait", (yield finished))
        sim.process(crasher(), name="crasher")
        yield sim.timeout(2.0)
        note("main-done")

    sim.process(main(), name="main")
    with pytest.raises(RuntimeError, match="kat crash"):
        sim.run()
    note("crash-surfaced")
    sim.run()
    note("drained")
    return sim, log


class TestKnownAnswer:
    """The event core's order pinned end to end: same heap entries, same
    (time, sequence) order, same values, whatever the kernel's internals."""

    def test_event_core_scenario(self):
        sim, log = _event_core_scenario()
        digest = hashlib.sha256("\n".join(log).encode()).hexdigest()
        assert (sim._sequence, repr(sim.now), len(log)) == (
            103, "2.0953229551669486", 33)
        assert digest == (
            "87e22bc59aaeb94f576487c08fcf2d624d377b661f2b6411422040f8dc3392c8")

    def test_every_event_and_process_passes_the_public_entry_points(
            self, monkeypatch):
        """Instrumentation that wraps ``Simulator.step`` and
        ``Simulator.process`` on the class sees every event and every
        process: the run loop dispatches each heap entry through
        ``self.step()`` and processes start through ``process``."""
        steps = [0]
        names = []
        original_step = Simulator.step
        original_process = Simulator.process

        def counting_step(self):
            steps[0] += 1
            return original_step(self)

        def counting_process(self, generator, name="process"):
            names.append(name)
            return original_process(self, generator, name=name)

        monkeypatch.setattr(Simulator, "step", counting_step)
        monkeypatch.setattr(Simulator, "process", counting_process)
        sim, _log = _event_core_scenario()
        assert steps[0] == sim._sequence == 103
        assert sorted(names) == sorted(
            ["main", "getter", "nested", "consumer", "process", "process",
             "inner", "child", "crasher"] + [f"r{i}" for i in range(12)])
