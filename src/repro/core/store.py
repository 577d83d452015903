"""PALAEMON's encrypted policy database.

The paper embeds an encrypted SQLite inside the PALAEMON enclave (§IV); here
the database is an encrypted, integrity-protected key/value store persisted
to an untrusted block store. Everything PALAEMON must remember lives in it:
policies, materialized secrets, expected file-system tags, per-service
clean-exit flags — and the **version number** ``v`` that pairs with the
hardware monotonic counter ``c`` in the rollback protocol (Fig 6).

Reads are served from enclave memory; *updates* commit to disk, which is why
tag updates cost ~6x tag reads (Fig 11 left). To keep that commit cheap the
database is persisted as **one sealed segment per key**: a key's rows from
every table (for PALAEMON, everything stored under one policy name) seal to
one blob at ``/palaemon.db.seg/<key>@<flush>``, whose associated data binds
the length-prefixed key. A sealed manifest binds the database version, the
table names and the Merkle root over ``key -> sha256(blob)``, so it stays
the same size however many policies the database holds. A tag update
therefore reseals one policy's segment plus the manifest, whatever the
number of policies.

A flush is atomic: it writes the new segment versions under the flush's
own number (an empty blob marks a removed key), switches in the manifest
last, and only then deletes the versions it superseded. A flush that fails
part-way removes what it wrote; one cut short by a crash leaves files
numbered above every committed one, which the next load skips.

On load every segment under the prefix is read and the Merkle tree rebuilt
from each key's newest version — or, if that does not match, its newest
version below the highest flush number on disk. A deleted, injected, stale
or swapped segment matches neither and fails with :class:`IntegrityError`.
Restoring an old manifest together with its old segments is consistent on
its own — that whole-store rollback is what the ``v == c`` check catches.

``commit()`` adds **group-commit batching**: concurrent committers inside
one disk-commit window coalesce into a single :meth:`DiskModel.commit`,
with one leader flushing the dirty segments and waiters sharing its
completion event (the classic write-ahead-log group commit).
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro import calibration
from repro.crypto.merkle import MerkleTree
from repro.crypto.primitives import (
    DeterministicRandom,
    constant_time_equal,
    sha256,
)
from repro.crypto.symmetric import SecretBox
from repro.errors import IntegrityError, PolicyValidationError
from repro.fs.blockstore import BlockStore
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.sim.core import Event, Simulator
from repro.sim.resources import DiskModel

_MANIFEST_PATH = "/palaemon.db.manifest"
_MANIFEST_AD = b"palaemon-db-manifest"
SEGMENT_PREFIX = "/palaemon.db.seg/"

_MISSING = object()

#: Disk commit latency calibrated against Fig 11: a tag update (commit
#: included) takes ~27 ms vs ~4.5 ms for a read.
_COMMIT_LATENCY_SECONDS = (calibration.TAG_UPDATE_LATENCY_SECONDS
                           - calibration.TAG_READ_LATENCY_SECONDS)


def _segment_path(key: str, flush: int) -> str:
    return f"{SEGMENT_PREFIX}{key}@{flush}"


def _segment_ad(key: str) -> bytes:
    # Bind each segment to its key so the untrusted store cannot move a
    # blob to another key's path.
    encoded = key.encode()
    return (b"palaemon-db-segment:" + len(encoded).to_bytes(4, "big")
            + encoded)


class PolicyStore:
    """An encrypted, segment-persisted database with an explicit version."""

    def __init__(self, simulator: Simulator, store: BlockStore,
                 db_key: bytes, rng: DeterministicRandom,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.simulator = simulator
        self.store = store
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._box = SecretBox(db_key, rng.fork(b"db-nonces"))
        self.disk = DiskModel(simulator, _COMMIT_LATENCY_SECONDS,
                              name="palaemon-db-disk")
        self._data: Dict[str, Any] = {"version": 0, "tables": {}}
        # Dirty tracking: which keys (and whether the version) changed
        # since the last flush; only their segments are resealed.
        self._dirty_keys: Set[str] = set()
        self._meta_dirty = False
        # key -> sha256(blob) of every committed segment, key -> the file
        # holding it, and the last committed flush's number.
        self._segments = MerkleTree()
        self._paths: Dict[str, str] = {}
        self._flushes = 0
        self._keys_cache: Dict[str, List[str]] = {}
        # Group commit: a monotonically increasing mutation ticket, the
        # active-leader flag, and the queue of (ticket, event) waiters.
        self._mutations = 0
        self._committer_active = False
        self._commit_waiters: List[Tuple[int, Event]] = []
        if store.exists(_MANIFEST_PATH):
            self._load()

    # -- persistence -----------------------------------------------------

    def _load(self) -> None:
        sealed = self.store.read(_MANIFEST_PATH)
        try:
            payload = self._box.open(sealed, associated_data=_MANIFEST_AD)
        except IntegrityError:
            raise IntegrityError(
                "policy database manifest failed integrity "
                "verification") from None
        manifest = pickle.loads(payload)
        versions: Dict[str, List[Tuple[int, str]]] = {}
        for path in self.store.list():
            if not path.startswith(SEGMENT_PREFIX):
                continue
            key, _, flush = path[len(SEGMENT_PREFIX):].rpartition("@")
            if not flush.isdigit():
                raise IntegrityError(
                    f"unexpected file {path!r} among the policy database "
                    f"segments")
            versions.setdefault(key, []).append((int(flush), path))
        blobs = {path: self.store.read(path)
                 for entries in versions.values() for _, path in entries}
        newest = max((flush for entries in versions.values()
                      for flush, _ in entries), default=0)
        # Each key's newest version; if a crash cut the last flush short
        # before its manifest, the versions below that flush's number.
        for cutoff in (newest, newest - 1):
            paths = {}
            for key, entries in versions.items():
                below = [entry for entry in entries if entry[0] <= cutoff]
                if below and blobs[max(below)[1]]:  # b"": a removed key
                    paths[key] = max(below)[1]
            segments = MerkleTree.from_snapshot(
                (key, sha256(blobs[path])) for key, path in paths.items())
            if constant_time_equal(segments.root(), manifest["root"]):
                break
        else:
            # A deleted, injected, stale or swapped segment: the set on
            # disk is not the one the sealed manifest committed to.
            raise IntegrityError(
                "policy database segments do not match the sealed "
                "manifest")
        tables: Dict[str, Dict[str, Any]] = {
            name: {} for name in manifest["tables"]}
        for key, path in paths.items():
            try:
                rows = pickle.loads(self._box.open(
                    blobs[path], associated_data=_segment_ad(key)))
            except IntegrityError:
                raise IntegrityError(
                    f"policy database segment {key!r} failed integrity "
                    f"verification") from None
            for table, value in rows.items():
                tables.setdefault(table, {})[key] = value
        for path in set(blobs) - set(paths.values()):
            self.store.delete(path)  # superseded or uncommitted versions
        self._data = {"version": manifest["version"], "tables": tables}
        self._segments = segments
        self._paths = paths
        self._flushes = newest

    def _flush(self) -> None:
        """Seal the dirty keys' segments under this flush's number, switch
        in the manifest, then delete the versions it superseded."""
        if not self._dirty_keys and not self._meta_dirty:
            return
        tables = self._data["tables"]
        flush = self._flushes + 1
        bytes_written = 0
        # key -> its committed leaf hash (None: a new key), to undo.
        committed: Dict[str, Optional[bytes]] = {}
        try:
            for key in sorted(self._dirty_keys):
                rows = {table: entries[key]
                        for table, entries in sorted(tables.items())
                        if key in entries}
                if not rows and key not in self._paths:
                    continue
                committed[key] = (self._segments.leaf_hash(key)
                                  if key in self._paths else None)
                blob = (self._box.seal(pickle.dumps(rows),
                                       associated_data=_segment_ad(key))
                        if rows else b"")
                self.store.write(_segment_path(key, flush), blob)
                if rows:
                    self._segments.set_leaf_hash(key, sha256(blob))
                else:
                    self._segments.remove_leaf(key)
                bytes_written += len(blob)
            manifest_blob = self._box.seal(pickle.dumps({
                "version": self._data["version"],
                "tables": sorted(tables),
                "root": self._segments.root(),
            }), associated_data=_MANIFEST_AD)
            self.store.write(_MANIFEST_PATH, manifest_blob)
        except BaseException:
            # Nothing was committed: drop this flush's files and leaves.
            for key, leaf in committed.items():
                path = _segment_path(key, flush)
                if self.store.exists(path):
                    self.store.delete(path)
                if leaf is not None:
                    self._segments.set_leaf_hash(key, leaf)
                elif key in self._segments:
                    self._segments.remove_leaf(key)
            raise
        bytes_written += len(manifest_blob)
        self._flushes = flush
        for key in committed:
            if key in self._paths:
                self.store.delete(self._paths.pop(key))
            if key in self._segments:
                self._paths[key] = _segment_path(key, flush)
            else:
                self.store.delete(_segment_path(key, flush))
        self._dirty_keys.clear()
        self._meta_dirty = False
        self.telemetry.inc("palaemon_db_segment_bytes_written",
                           amount=bytes_written)

    def commit(self) -> Generator[Event, Any, None]:
        """Durably persist the database (simulated disk latency).

        Group commit: the first caller becomes the *leader* — it flushes
        the dirty segments and pays one :meth:`DiskModel.commit`. Callers
        arriving while a commit is in flight enqueue as *waiters*; any
        waiter whose mutations were captured by the leader's flush shares
        the leader's completion, so N concurrent tag updates coalesce into
        a single disk commit. A waiter whose mutations arrived after the
        flush is promoted to lead the next batch. If the disk commit
        fails, every queued waiter fails with the same error — none of
        their mutations became durable.
        """
        while True:
            if self._committer_active:
                ticket = self._mutations
                gate = self.simulator.event()
                self._commit_waiters.append((ticket, gate))
                role = yield gate
                if role == "durable":
                    return
                continue  # promoted: lead the next batch
            self._committer_active = True
            try:
                self._flush()
                flushed_at = self._mutations
                yield self.simulator.process(self.disk.commit())
            except BaseException as exc:
                self._committer_active = False
                waiters, self._commit_waiters = self._commit_waiters, []
                for _ticket, gate in waiters:
                    gate.fail(exc)
                raise
            self._committer_active = False
            self.telemetry.inc("palaemon_db_commits_total")
            durable = [gate for ticket, gate in self._commit_waiters
                       if ticket <= flushed_at]
            pending = [(ticket, gate) for ticket, gate in self._commit_waiters
                       if ticket > flushed_at]
            self._commit_waiters = pending
            if durable:
                self.telemetry.inc("palaemon_db_commits_coalesced_total",
                                   amount=len(durable))
                self.telemetry.audit("db.commit",
                                     batch=1 + len(durable),
                                     coalesced=len(durable))
            for gate in durable:
                gate.succeed("durable")
            if pending:
                _ticket, gate = pending.pop(0)
                gate.succeed("lead")
            return

    def commit_instant(self) -> None:
        """Persist without simulating latency (functional paths)."""
        self._flush()

    # -- version (rollback protocol) -----------------------------------------

    @property
    def version(self) -> int:
        return self._data["version"]

    def set_version(self, version: int) -> None:
        if version < self._data["version"]:
            # A typed error, not a bare ValueError: callers routing errors
            # over the REST layer map exception classes to stable codes,
            # and a decreasing version is a policy-integrity refusal.
            raise PolicyValidationError(
                f"database version must not decrease "
                f"({version} < {self._data['version']})")
        self._data["version"] = version
        self._meta_dirty = True
        self._mutations += 1

    # -- tables ------------------------------------------------------------

    def table(self, name: str) -> Dict[str, Any]:
        """A named table (a dict); created on first use."""
        return self._data["tables"].setdefault(name, {})

    def put(self, table: str, key: str, value: Any) -> None:
        self.table(table)[key] = value
        self._mark_dirty(table, key)

    def get(self, table: str, key: str, default: Any = None) -> Any:
        return self.table(table).get(key, default)

    def delete(self, table: str, key: str) -> bool:
        """Remove ``key``; returns whether it existed.

        Only an actual removal dirties the key — deleting a missing key
        must not force a segment rewrite on the next flush.
        """
        removed = self.table(table).pop(key, _MISSING) is not _MISSING
        if removed:
            self._mark_dirty(table, key)
        return removed

    def touch(self, table: str, key: str) -> None:
        """Mark ``key`` dirty after an in-place mutation of its ``table`` row.

        ``put``/``delete`` track dirtiness themselves, but callers that
        mutate a stored object directly (e.g. flipping a state flag) must
        call this so the key's segment is rewritten on the next flush.
        """
        self.table(table)
        self._mark_dirty(table, key)

    def keys(self, table: str) -> list:
        cached = self._keys_cache.get(table)
        if cached is None:
            cached = sorted(self.table(table))
            self._keys_cache[table] = cached
        return list(cached)

    def __contains__(self, table_key: tuple) -> bool:
        table, key = table_key
        return key in self.table(table)

    def _mark_dirty(self, table: str, key: str) -> None:
        self._dirty_keys.add(key)
        self._keys_cache.pop(table, None)
        self._mutations += 1
