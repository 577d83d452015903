"""Tests for the encrypted policy store and the Fig 6 rollback protocol."""

import pytest

from repro.core.rollback import RollbackGuard
from repro.core.store import SEGMENT_PREFIX, PolicyStore, _segment_ad
from repro.crypto.primitives import DeterministicRandom
from repro.errors import (
    ConcurrentInstanceError,
    IntegrityError,
    PolicyValidationError,
    StaleDatabaseError,
    StorageFaultError,
)
from repro.fs.blockstore import BlockStore
from repro.sim.core import Simulator
from repro.tee.counters import PlatformCounterService

from tests.core.conftest import segment_path

MANIFEST_PATH = "/palaemon.db.manifest"


def make_store(store=None, seed=b"store-tests", sim=None):
    sim = sim or Simulator()
    store = store if store is not None else BlockStore()
    rng = DeterministicRandom(seed)
    return PolicyStore(sim, store, rng.fork(b"db-key").bytes(32),
                       rng.fork(b"store")), store, sim


class TestPolicyStore:
    def test_put_get_delete(self):
        db, _, _ = make_store()
        db.put("policies", "p1", {"name": "p1"})
        assert db.get("policies", "p1") == {"name": "p1"}
        assert ("policies", "p1") in db
        db.delete("policies", "p1")
        assert db.get("policies", "p1") is None

    def test_get_default(self):
        db, _, _ = make_store()
        assert db.get("t", "missing", default=42) == 42

    def test_keys_sorted(self):
        db, _, _ = make_store()
        db.put("t", "b", 1)
        db.put("t", "a", 2)
        assert db.keys("t") == ["a", "b"]

    def test_persistence_across_instances(self):
        db, backing, _ = make_store()
        db.put("policies", "p1", "data")
        db.set_version(1)
        db.commit_instant()
        reopened, _, _ = make_store(store=backing)
        assert reopened.get("policies", "p1") == "data"
        assert reopened.version == 1

    def test_encrypted_at_rest(self):
        db, backing, _ = make_store()
        db.put("secrets", "k", b"plaintext-secret-value")
        db.commit_instant()
        assert backing.scan_for(b"plaintext-secret-value") == []

    def test_segment_tampering_detected(self):
        db, backing, _ = make_store()
        db.put("t", "k", "v")
        db.commit_instant()
        path = segment_path(backing, "k")
        raw = backing.read(path)
        backing.tamper(path, raw[:-1] + bytes([raw[-1] ^ 1]))
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_manifest_tampering_detected(self):
        db, backing, _ = make_store()
        db.put("t", "k", "v")
        db.commit_instant()
        raw = backing.read(MANIFEST_PATH)
        backing.tamper(MANIFEST_PATH, raw[:-1] + bytes([raw[-1] ^ 1]))
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_segment_swap_detected(self):
        """One policy's segment replayed from an older commit fails the
        manifest's Merkle root."""
        db, backing, _ = make_store()
        db.put("t", "k", "old")
        db.put("t", "other", "kept")
        db.commit_instant()
        stale = backing.read(segment_path(backing, "k"))
        db.put("t", "k", "new")
        db.commit_instant()
        backing.tamper(segment_path(backing, "k"), stale)
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_version_cannot_decrease(self):
        db, _, _ = make_store()
        db.set_version(5)
        with pytest.raises(PolicyValidationError):
            db.set_version(4)

    def test_commit_pays_disk_latency(self):
        db, _, sim = make_store()

        def main():
            yield sim.process(db.commit())
            return sim.now

        elapsed = sim.run_process(main())
        assert elapsed == pytest.approx(db.disk.commit_latency)


def two_policy_store():
    """A committed store holding two policies' rows in two tables."""
    db, backing, _ = make_store()
    for name in ("alpha", "beta"):
        db.put("policies", name, {"name": name})
        db.put("state", name, {"tag": name.encode()})
    db.set_version(2)
    db.commit_instant()
    return db, backing


class TestSegmentIntegrity:
    """Untrusted storage editing the per-key segment set fails closed.

    A stale segment and a tampered manifest or segment are covered in
    ``TestPolicyStore`` above.
    """

    def test_deleted_segment_detected(self):
        _, backing = two_policy_store()
        backing.delete(segment_path(backing, "beta"))
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_injected_segment_detected(self):
        _, backing = two_policy_store()
        # A validly sealed blob from the same store, under a new name.
        alpha = segment_path(backing, "alpha")
        backing.write(SEGMENT_PREFIX + "gamma@" + alpha.rpartition("@")[2],
                      backing.read(alpha))
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_swapped_segments_detected(self):
        _, backing = two_policy_store()
        alpha_path = segment_path(backing, "alpha")
        beta_path = segment_path(backing, "beta")
        alpha, beta = backing.read(alpha_path), backing.read(beta_path)
        backing.tamper(alpha_path, beta)
        backing.tamper(beta_path, alpha)
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_stale_manifest_detected(self):
        """An old manifest over current segments fails the root check."""
        db, backing = two_policy_store()
        stale = backing.read(MANIFEST_PATH)
        db.put("state", "beta", {"tag": b"fresh"})
        db.commit_instant()
        backing.tamper(MANIFEST_PATH, stale)
        with pytest.raises(IntegrityError):
            make_store(store=backing)

    def test_segment_bound_to_its_key(self):
        """A segment does not open under another key's associated data."""
        db, backing = two_policy_store()
        with pytest.raises(IntegrityError):
            db._box.open(backing.read(segment_path(backing, "alpha")),
                         associated_data=_segment_ad("beta"))


def at_manifest_write(backing, action):
    """Call ``action()`` whenever a manifest write is attempted."""
    def hook(operation, path):
        if operation == "write" and path == MANIFEST_PATH:
            action()
    backing.fault_hook = hook


def fail_write():
    raise StorageFaultError("injected manifest write failure")


def second_commit(db):
    """Over ``two_policy_store``: change alpha, remove beta, add gamma."""
    db.put("state", "alpha", {"tag": b"second"})
    db.delete("policies", "beta")
    db.delete("state", "beta")
    db.put("policies", "gamma", {"name": "gamma"})
    db.set_version(3)


FIRST_STATE = (2, {"alpha": {"name": "alpha"}, "beta": {"name": "beta"}},
               {"alpha": {"tag": b"alpha"}, "beta": {"tag": b"beta"}})
SECOND_STATE = (3, {"alpha": {"name": "alpha"}, "gamma": {"name": "gamma"}},
                {"alpha": {"tag": b"second"}})


def state_of(db):
    return db.version, db.table("policies"), db.table("state")


class TestAtomicFlush:
    """A flush that fails, or is cut short, before its manifest is written
    leaves the previous commit loadable."""

    def test_failed_manifest_write_reopens_to_previous_commit(self):
        db, backing = two_policy_store()
        second_commit(db)
        at_manifest_write(backing, fail_write)
        with pytest.raises(StorageFaultError):
            db.commit_instant()
        backing.fault_hook = None
        assert state_of(make_store(store=backing)[0]) == FIRST_STATE
        db.commit_instant()  # the retry commits the second state
        assert state_of(make_store(store=backing)[0]) == SECOND_STATE
        assert len([path for path in backing.list()
                    if path.startswith(SEGMENT_PREFIX)]) == 2

    def test_flush_cut_short_before_manifest_reopens_to_previous_commit(self):
        """The volume as a crash at the manifest write leaves it: the new
        segment versions are on disk, the manifest is the first one."""
        db, backing = two_policy_store()
        second_commit(db)
        crashed = BlockStore()

        def crash():
            crashed.restore(backing.snapshot())
            fail_write()

        at_manifest_write(backing, crash)
        with pytest.raises(StorageFaultError):
            db.commit_instant()
        reopened, _, _ = make_store(store=crashed)
        assert state_of(reopened) == FIRST_STATE
        # The load deleted the uncommitted versions; a new flush commits.
        assert [path.rpartition("@")[0] for path in crashed.list()
                if path.startswith(SEGMENT_PREFIX)] == [
            SEGMENT_PREFIX + "alpha", SEGMENT_PREFIX + "beta"]
        second_commit(reopened)
        reopened.commit_instant()
        assert state_of(make_store(store=crashed)[0]) == SECOND_STATE

    def test_superseded_versions_left_by_a_crash_are_skipped(self):
        """A crash after the manifest but before the old versions are
        deleted: the newest versions are the committed ones."""
        db, backing = two_policy_store()
        second_commit(db)
        before_manifest = {}
        at_manifest_write(
            backing, lambda: before_manifest.update(backing.snapshot()))
        db.commit_instant()
        crashed = BlockStore()
        crashed.restore({**before_manifest,
                         MANIFEST_PATH: backing.read(MANIFEST_PATH)})
        assert state_of(make_store(store=crashed)[0]) == SECOND_STATE


def make_guard(backing=None, sim=None, counters=None, counter_id="c"):
    sim = sim or Simulator()
    counters = counters or PlatformCounterService(sim)
    db, backing, _ = make_store(store=backing, sim=sim)
    guard = RollbackGuard(db, counters, counter_id)
    guard.ensure_counter()
    return guard, db, backing, sim, counters


class TestRollbackProtocol:
    def test_clean_lifecycle(self):
        """startup -> serve -> shutdown -> restart works."""
        guard, db, backing, sim, counters = make_guard()

        def lifecycle():
            yield sim.process(guard.startup())
            assert counters.read("c") == 1
            assert db.version == 0  # database trails the counter
            yield sim.process(guard.shutdown())
            assert db.version == 1  # reconciled
            yield sim.process(guard.startup())
            yield sim.process(guard.shutdown())

        sim.run_process(lifecycle())
        assert db.version == 2

    def test_crash_blocks_restart(self):
        """Crash-as-attack: after a crash, v < c and startup refuses."""
        guard, db, backing, sim, counters = make_guard()

        def run():
            yield sim.process(guard.startup())
            guard.crash()
            yield sim.process(guard.startup())

        with pytest.raises(StaleDatabaseError):
            sim.run_process(run())

    def test_database_rollback_detected(self):
        """Restoring an old DB snapshot is caught at startup (v != c)."""
        guard, db, backing, sim, counters = make_guard()
        old_snapshot = backing.snapshot()

        def run():
            yield sim.process(guard.startup())
            db.put("tags", "app", b"new-tag")
            yield sim.process(guard.shutdown())

        sim.run_process(run())
        backing.restore(old_snapshot)  # attacker rolls the DB back

        guard2, db2, _, sim2, _ = make_guard(backing=backing,
                                             counters=counters, sim=sim)

        def restart():
            yield sim2.process(guard2.startup())

        with pytest.raises(StaleDatabaseError):
            sim2.run_process(restart())

    def test_second_instance_detected(self):
        """Cloning: two instances from the same sealed state cannot both run."""
        sim = Simulator()
        counters = PlatformCounterService(sim)
        backing = BlockStore()
        guard1, db1, _, _, _ = make_guard(backing=backing, sim=sim,
                                          counters=counters)
        # The attacker starts a second instance from a copy of the volume.
        clone_volume = BlockStore()
        clone_volume.restore(backing.snapshot())
        guard2, db2, _, _, _ = make_guard(backing=clone_volume, sim=sim,
                                          counters=counters)

        def run():
            yield sim.process(guard1.startup())   # c: 0 -> 1, ok
            yield sim.process(guard2.startup())   # v=0 but c=1 already

        with pytest.raises(StaleDatabaseError):
            sim.run_process(run())

    def test_concurrent_increment_detected(self):
        """If another instance increments between check and increment, the
        c == v+1 check fires."""
        sim = Simulator()
        counters = PlatformCounterService(sim)
        guard, db, backing, _, _ = make_guard(sim=sim, counters=counters)

        def interloper():
            # Another process increments the counter just after guard reads.
            yield sim.process(counters.increment("c"))

        def run():
            sim.process(interloper())
            yield sim.process(guard.startup())

        with pytest.raises(ConcurrentInstanceError):
            sim.run_process(run())

    def test_counter_rollback_capable_attacker_wins(self):
        """Documented limit: protection is only as strong as the counter.

        An attacker who can roll back the platform's monotonic counter (out
        of scope in the paper's threat model) defeats the protocol — this
        test pins down the boundary.
        """
        guard, db, backing, sim, counters = make_guard()
        old_snapshot = backing.snapshot()

        def run():
            yield sim.process(guard.startup())
            db.put("tags", "app", b"progress")
            yield sim.process(guard.shutdown())

        sim.run_process(run())
        backing.restore(old_snapshot)
        counters.rollback_for_test("c", 0)  # the out-of-scope capability

        guard2, db2, _, sim2, _ = make_guard(backing=backing,
                                             counters=counters, sim=sim)

        def restart():
            yield sim2.process(guard2.startup())

        sim2.run_process(restart())  # no error: the rollback went undetected
        assert db2.get("tags", "app") is None  # stale state served

    def test_shutdown_without_startup_is_noop(self):
        guard, db, backing, sim, _ = make_guard()

        def run():
            yield sim.process(guard.shutdown())

        sim.run_process(run())
        assert db.version == 0

    def test_counter_touched_twice_per_lifecycle(self):
        """The design point: counter wear is per-lifecycle, not per-update."""
        guard, db, backing, sim, counters = make_guard()

        def run():
            yield sim.process(guard.startup())
            for i in range(1000):  # a thousand tag updates...
                db.put("tags", f"app-{i}", b"tag")
            yield sim.process(guard.shutdown())

        sim.run_process(run())
        assert counters.writes("c") == 1  # ...one hardware increment
