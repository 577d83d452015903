"""Per-layer host-time attribution for the benchmark's traced run.

A layer is a ``repro`` module (or package). :class:`HostTracer` wraps the
public entry points of each layer, from the benchmark's own files, and
attributes host time per call **on the host call stack**: a wrapped call
pushes a frame when it starts running and pops it when it returns, so a
layer's self time is its calls' duration minus the wrapped calls they
made. Generator functions (simulation processes) are timed per resume,
across all their resumes, never at creation; a suspended generator is
off the stack, so interleaved simulated requests cannot nest inside each
other. Host time while the stack is empty is kept as an explicit
*unattributed* remainder, so the layers' self times plus the remainder
sum to the traced phase's host time.

Names are wrapped where they are looked up: a module-level function is
also replaced in every loaded module that imported it by name (for
example ``verify_signature`` in ``repro.core.board``), and methods are
replaced on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers reported with a ``<layer>.self_share`` metric, in report order.
LAYERS = (
    "sim.core", "sim.network", "crypto.signatures", "crypto.symmetric",
    "crypto.merkle", "tls", "tee", "core.rest", "core.dispatch",
    "core.service", "core.attestation", "core.store", "core.board", "fs",
    "obs", "apps", "client",
)

#: REST routes whose client-observed virtual latency is reported.
ROUTES = ("app.attest", "tag.get", "tag.update", "policy.create",
          "policy.read", "policy.update", "policy.delete", "policy.list")

#: The policy database's volume and manifest (one write per DB flush).
DB_VOLUME = "palaemon-volume"
DB_MANIFEST = "/palaemon.db.manifest"


class Stats:
    """Counters for one wrapped entry point."""

    __slots__ = ("calls", "total_ns", "self_ns", "virtual", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.virtual: List[float] = []
        self.extra: Dict[str, Any] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


# -- hooks: extra counts taken from a call's arguments or result -------------
#
# A hook runs after the call returned or raised, as
# ``hook(stats, args, kwargs, result, exc)``.

def _message_bytes(stats: Stats, args, kwargs, _result, _exc) -> None:
    size = args[3] if len(args) > 3 else kwargs.get("size_bytes", 256)
    stats.add("bytes", size)


def _argument_bytes(stats: Stats, args, _kwargs, _result, _exc) -> None:
    stats.add("bytes", len(args[1]))


def _block_write(stats: Stats, args, _kwargs, _result, _exc) -> None:
    stats.add("bytes", len(args[2]))
    if args[0].name == DB_VOLUME:
        stats.add("db_bytes", len(args[2]))
        if args[1] == DB_MANIFEST:
            stats.add("db_flushes")


def _board_outcome(stats: Stats, _args, _kwargs, result, _exc) -> None:
    if result is not None:
        stats.add("unreachable", len(result.unreachable))
        stats.add("invalid", len(result.invalid))


def _attest_denied(stats: Stats, _args, _kwargs, _result, exc) -> None:
    if exc is not None:
        stats.add("denied")


def _shed(stats: Stats, _args, _kwargs, result, _exc) -> None:
    if isinstance(result, dict) and result.get("code") == "overloaded":
        stats.add("shed")


def _route(stats: Stats, args, kwargs, _result, _exc) -> None:
    route = args[1] if len(args) > 1 else kwargs.get("route")
    stats.extra.setdefault("routes", {}).setdefault(route, []).append(
        stats.virtual[-1])


#: (layer, module, qualified name, hook) for every wrapped entry point.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("sim.core", "repro.sim.core", "Simulator.run", None),
    ("sim.core", "repro.sim.core", "Simulator.step", None),
    ("sim.core", "repro.sim.core", "Simulator.process", None),
    ("sim.network", "repro.sim.network", "Endpoint.send", _message_bytes),
    ("sim.network", "repro.sim.network", "Network.deliver", None),
    ("crypto.signatures", "repro.crypto.signatures", "KeyPair.generate",
     None),
    ("crypto.signatures", "repro.crypto.signatures", "SigningKey.sign", None),
    ("crypto.signatures", "repro.crypto.signatures", "verify_signature",
     None),
    ("crypto.symmetric", "repro.crypto.symmetric", "SecretBox.seal",
     _argument_bytes),
    ("crypto.symmetric", "repro.crypto.symmetric", "SecretBox.open",
     _argument_bytes),
    ("crypto.merkle", "repro.crypto.merkle", "MerkleTree.set_leaf", None),
    ("crypto.merkle", "repro.crypto.merkle", "MerkleTree.set_leaf_hash",
     None),
    ("crypto.merkle", "repro.crypto.merkle", "MerkleTree.remove_leaf", None),
    ("crypto.merkle", "repro.crypto.merkle", "MerkleTree.root", None),
    ("crypto.merkle", "repro.crypto.merkle", "MerkleTree.prove", None),
    ("tls", "repro.tls.handshake", "perform_handshake", None),
    ("tls", "repro.tls.channel", "TLSConnection.connect", None),
    ("tls", "repro.tls.channel", "TLSConnection.request", None),
    ("tls", "repro.tls.channel", "TLSServer._serve_loop", None),
    ("tls", "repro.tls.channel", "SecureChannel.seal", None),
    ("tls", "repro.tls.channel", "SecureChannel.open", None),
    ("tee", "repro.tee.platform", "SGXPlatform.launch_instant", None),
    ("tee", "repro.tee.quoting", "QuotingEnclave.quote", None),
    ("tee", "repro.tee.quoting", "Quote.verify", None),
    ("core.rest", "repro.core.rest", "PalaemonRestClient.call", _route),
    ("core.rest", "repro.core.rest", "PalaemonRestServer._handle", None),
    ("core.dispatch", "repro.core.dispatch", "Dispatcher.handle", _shed),
    ("core.dispatch", "repro.core.dispatch", "Dispatcher.dispatch", _shed),
    ("core.dispatch", "repro.core.dispatch", "Dispatcher.invoke", None),
    ("core.service", "repro.core.service",
     "PalaemonService.attest_application", _attest_denied),
    ("core.service", "repro.core.service", "PalaemonService.create_policy",
     None),
    ("core.service", "repro.core.service", "PalaemonService.read_policy",
     None),
    ("core.service", "repro.core.service", "PalaemonService.update_policy",
     None),
    ("core.service", "repro.core.service", "PalaemonService.delete_policy",
     None),
    ("core.service", "repro.core.service", "PalaemonService.list_policies",
     None),
    ("core.service", "repro.core.service",
     "PalaemonService.update_tag_instant", None),
    ("core.service", "repro.core.service", "PalaemonService.update_tag",
     None),
    ("core.service", "repro.core.service", "PalaemonService.get_tag_instant",
     None),
    ("core.service", "repro.core.service", "PalaemonService.get_tag", None),
    ("core.attestation", "repro.core.attestation", "verify_evidence", None),
    ("core.store", "repro.core.store", "PolicyStore.commit", None),
    ("core.store", "repro.core.store", "PolicyStore.commit_instant", None),
    ("core.store", "repro.core.store", "PolicyStore._flush", None),
    ("core.board", "repro.core.board", "BoardEvaluator.evaluate_local",
     _board_outcome),
    ("core.board", "repro.core.board", "BoardEvaluator.evaluate",
     _board_outcome),
    ("core.board", "repro.core.board", "BoardEvaluator.enforce", None),
    ("core.board", "repro.core.board", "ApprovalService.decide_local", None),
    ("core.board", "repro.core.board", "ApprovalService.decide", None),
    ("fs", "repro.fs.shield", "ProtectedFileSystem.write", None),
    ("fs", "repro.fs.shield", "ProtectedFileSystem.read", None),
    ("fs", "repro.fs.shield", "ProtectedFileSystem.sync", None),
    ("fs", "repro.fs.shield", "ProtectedFileSystem.verify_tag", None),
    ("fs", "repro.fs.blockstore", "BlockStore.write", _block_write),
    ("fs", "repro.fs.blockstore", "BlockStore.read", None),
    ("obs", "repro.obs.telemetry", "Telemetry.inc", None),
    ("obs", "repro.obs.telemetry", "Telemetry.gauge", None),
    ("obs", "repro.obs.telemetry", "Telemetry.observe", None),
    ("obs", "repro.obs.telemetry", "Telemetry.span", None),
    ("obs", "repro.obs.telemetry", "Telemetry.audit", None),
    ("obs", "repro.obs.tracing", "_SpanHandle.__enter__", None),
    ("obs", "repro.obs.tracing", "_SpanHandle.__exit__", None),
    ("apps", "repro.apps.kvstore", "MemcachedServer.handle_get", None),
    ("apps", "repro.apps.kvstore", "MemcachedServer.handle_set", None),
    ("apps", "repro.apps.kvstore", "MemcachedServer.get", None),
    ("apps", "repro.apps.kvstore", "MemcachedServer.set", None),
    ("apps", "repro.apps.base", "SimulatedServer.serve", None),
)


class HostTracer:
    """Installs timing wrappers and attributes host time per layer."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        #: One frame per running wrapped call: [child time in ns].
        self.stack: List[List[int]] = []
        self.stats: Dict[str, Stats] = {}
        self.layer_self: Dict[str, int] = {}
        self.idle_ns = 0
        self.started_ns = 0
        self.stopped_ns = 0
        self._idle_since = 0
        #: Virtual clock of the traced deployment (for generator spans).
        self.now_virtual: Callable[[], float] = lambda: 0.0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- lifecycle ------------------------------------------------------

    def install(self) -> None:
        for layer, module_name, qualname, hook in TARGETS:
            module = importlib.import_module(module_name)
            owner: Any = module
            *path, attribute = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[attribute]
            function = raw.__func__ if isinstance(
                raw, (classmethod, staticmethod)) else raw
            wrapped = self.wrap(function, layer, qualname, hook)
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._patch(owner, attribute, wrapped)
            if owner is module:
                self._patch_importers(raw, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def begin(self) -> None:
        """Start the traced phase, forgetting what set-up recorded."""
        if self.stack:
            raise RuntimeError("begin while wrapped calls are running")
        for stats in self.stats.values():
            stats.__init__()
        self.layer_self = {layer: 0 for layer in self.layer_self}
        self.idle_ns = 0
        self.started_ns = self._idle_since = self.clock()

    def end(self) -> None:
        now = self.clock()
        if self.stack:
            raise RuntimeError(
                f"{len(self.stack)} wrapped calls still on the host stack")
        self.idle_ns += now - self._idle_since
        self.stopped_ns = now

    @property
    def host_ns(self) -> int:
        return self.stopped_ns - self.started_ns

    def balance_error(self) -> float:
        """|sum of self times + unattributed - host time| / host time."""
        attributed = sum(self.layer_self.values()) + self.idle_ns
        return abs(attributed - self.host_ns) / max(1, self.host_ns)

    # -- wrapping -------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _patch_importers(self, original: Any, wrapped: Any) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith(("repro", "perfbench")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attribute, wrapped)

    def _enter(self) -> Tuple[int, List[int]]:
        start = self.clock()
        if not self.stack:
            self.idle_ns += start - self._idle_since
        frame = [0]
        self.stack.append(frame)
        return start, frame

    def _leave(self, start: int, frame: List[int], stats: Stats,
               layer: str, count: bool) -> None:
        end = self.clock()
        self.stack.pop()
        elapsed = end - start
        own = elapsed - frame[0]
        stats.total_ns += elapsed
        stats.self_ns += own
        self.layer_self[layer] += own
        if count:
            stats.calls += 1
        if self.stack:
            self.stack[-1][0] += elapsed
        else:
            self._idle_since = end

    def wrap(self, function: Callable, layer: str, name: str,
             hook: Optional[Callable] = None) -> Callable:
        stats = self.stats.setdefault(name, Stats())
        self.layer_self.setdefault(layer, 0)
        if inspect.isgeneratorfunction(function):
            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                return self._drive(function(*args, **kwargs), layer, stats,
                                   hook, args, kwargs)
            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start, frame = self._enter()
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                self._leave(start, frame, stats, layer, True)
                if hook is not None:
                    hook(stats, args, kwargs, None, exc)
                raise
            self._leave(start, frame, stats, layer, True)
            if hook is not None:
                hook(stats, args, kwargs, result, None)
            return result
        return wrapper

    def client(self, generator):
        """Time one of the benchmark's own client generators."""
        stats = self.stats.setdefault("client", Stats())
        self.layer_self.setdefault("client", 0)
        return self._drive(generator, "client", stats, None, (), {})

    def _drive(self, generator, layer: str, stats: Stats,
               hook: Optional[Callable], args, kwargs):
        """Run ``generator`` timing every resume; records its virtual span."""
        started: Optional[float] = None
        value: Any = None
        thrown: Optional[BaseException] = None
        while True:
            start, frame = self._enter()
            if started is None:
                started = self.now_virtual()
            try:
                if thrown is not None:
                    error, thrown = thrown, None
                    target = generator.throw(error)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                self._leave(start, frame, stats, layer, True)
                stats.virtual.append(self.now_virtual() - started)
                if hook is not None:
                    hook(stats, args, kwargs, stop.value, None)
                return stop.value
            except BaseException as exc:
                self._leave(start, frame, stats, layer, True)
                stats.virtual.append(self.now_virtual() - started)
                if hook is not None:
                    hook(stats, args, kwargs, None, exc)
                raise
            self._leave(start, frame, stats, layer, False)
            try:
                value = yield target
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded as-is
                thrown, value = exc, None


# -- per-layer metrics ---------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(samples: List[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def layer_metrics(tracer: HostTracer, ops: int, telemetry,
                  overhead: float) -> Dict[str, float]:
    """Every per-layer metric, from one traced phase of ``ops`` operations."""
    s = tracer.stats
    host = tracer.host_ns
    own = tracer.layer_self

    def calls(*names: str) -> int:
        return sum(s[name].calls for name in names)

    def total_ns(*names: str) -> int:
        return sum(s[name].total_ns for name in names)

    def extra(name: str, key: str) -> float:
        return s[name].extra.get(key, 0)

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    events = calls("Simulator.step")
    keygens = calls("KeyPair.generate")
    sealed = extra("SecretBox.seal", "bytes")
    opened = extra("SecretBox.open", "bytes")
    handshakes = calls("perform_handshake")
    records = calls("SecureChannel.seal", "SecureChannel.open")
    requests = calls("Dispatcher.handle", "Dispatcher.dispatch",
                     "Dispatcher.invoke")
    flushes = extra("BlockStore.write", "db_flushes")
    commits = s["PolicyStore.commit"].virtual
    rounds = calls("BoardEvaluator.evaluate_local", "BoardEvaluator.evaluate")
    metrics: Dict[str, float] = {
        "sim.core.events_per_op": per_op(events),
        "sim.core.processes_per_op": per_op(calls("Simulator.process")),
        "sim.core.host_us_per_event": _ratio(own["sim.core"], events) / 1e3,
        "sim.network.messages_per_op": per_op(calls("Endpoint.send")),
        "sim.network.bytes_per_op": per_op(extra("Endpoint.send", "bytes")),
        "crypto.signatures.keygen_per_op": per_op(keygens),
        "crypto.signatures.sign_per_op": per_op(calls("SigningKey.sign")),
        "crypto.signatures.verify_per_op": per_op(calls("verify_signature")),
        "crypto.signatures.keygen_host_ms":
            _ratio(total_ns("KeyPair.generate"), keygens) / 1e6,
        "crypto.signatures.host_ms_per_op":
            per_op(own["crypto.signatures"]) / 1e6,
        "crypto.symmetric.seal_bytes_per_op": per_op(sealed),
        "crypto.symmetric.open_bytes_per_op": per_op(opened),
        "crypto.symmetric.host_us_per_kb":
            _ratio(own["crypto.symmetric"], (sealed + opened) / 1024) / 1e3,
        "crypto.merkle.host_ms_per_op": per_op(own["crypto.merkle"]) / 1e6,
        "tls.handshake.per_op": per_op(handshakes),
        "tls.handshake.host_ms":
            _ratio(total_ns("perform_handshake"), handshakes) / 1e6,
        "tls.handshake.virt_ms":
            _ratio(sum(s["perform_handshake"].virtual), handshakes) * 1e3,
        "tls.channel.records_per_op": per_op(records),
        "tls.channel.host_us_per_record":
            _ratio(total_ns("SecureChannel.seal", "SecureChannel.open"),
                   records) / 1e3,
        "tee.launch_host_ms":
            _ratio(total_ns("SGXPlatform.launch_instant"),
                   calls("SGXPlatform.launch_instant")) / 1e6,
        "tee.quote_host_ms":
            _ratio(total_ns("QuotingEnclave.quote"),
                   calls("QuotingEnclave.quote")) / 1e6,
    }
    routes = s["PalaemonRestClient.call"].extra.get("routes", {})
    for route in ROUTES:
        samples = routes.get(route, [])
        metrics[f"core.rest.{route}.virt_p50_ms"] = (
            statistics.median(samples) * 1e3 if samples else 0.0)
        metrics[f"core.rest.{route}.virt_p99_ms"] = (
            _percentile(samples, 0.99) * 1e3)
        metrics[f"core.rest.{route}.n"] = len(samples)
    attests = calls("PalaemonService.attest_application")
    metrics.update({
        "core.dispatch.host_us_per_request":
            _ratio(own["core.dispatch"], requests) / 1e3,
        "core.dispatch.shed":
            extra("Dispatcher.handle", "shed")
            + extra("Dispatcher.dispatch", "shed"),
        "core.service.attest_host_ms":
            _ratio(s["PalaemonService.attest_application"].self_ns,
                   attests) / 1e6,
        "core.service.attest_denied":
            extra("PalaemonService.attest_application", "denied"),
        "core.store.flushes_per_op": per_op(flushes),
        "core.store.bytes_written_per_op":
            per_op(extra("BlockStore.write", "db_bytes")),
        "core.store.flush_host_ms":
            _ratio(total_ns("PolicyStore._flush"), flushes) / 1e6,
        "core.store.commit_virt_ms":
            _ratio(sum(commits), len(commits)) * 1e3,
        "core.board.rounds_per_op": per_op(rounds),
        "core.board.round_host_ms":
            _ratio(total_ns("BoardEvaluator.evaluate_local",
                            "BoardEvaluator.evaluate"), rounds) / 1e6,
        "core.board.round_virt_ms":
            _ratio(sum(s["BoardEvaluator.evaluate"].virtual), rounds) * 1e3,
        "core.board.unreachable_per_round":
            _ratio(extra("BoardEvaluator.evaluate_local", "unreachable")
                   + extra("BoardEvaluator.evaluate", "unreachable"), rounds),
        "core.board.invalid_per_round":
            _ratio(extra("BoardEvaluator.evaluate_local", "invalid")
                   + extra("BoardEvaluator.evaluate", "invalid"), rounds),
        "fs.shield.write_host_ms":
            _ratio(total_ns("ProtectedFileSystem.write"),
                   calls("ProtectedFileSystem.write")) / 1e6,
        "fs.shield.sync_host_ms":
            _ratio(total_ns("ProtectedFileSystem.sync"),
                   calls("ProtectedFileSystem.sync")) / 1e6,
        "fs.blockstore.bytes_written_per_op":
            per_op(extra("BlockStore.write", "bytes")),
        "obs.host_share": _ratio(own["obs"], host),
        "obs.spans_retained": len(telemetry.tracer.finished),
        "obs.audit_records": len(telemetry.audit_log),
        "apps.host_us_per_request": per_op(own["apps"]) / 1e3,
    })
    for layer in LAYERS:
        if layer != "obs":
            metrics[f"{layer}.self_share"] = _ratio(own.get(layer, 0), host)
    metrics["unattributed_share"] = _ratio(tracer.idle_ns, host)
    metrics["tracing_overhead"] = overhead
    return metrics


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_share") or name == "tracing_overhead":
        return "ratio"
    if "bytes" in name and name.endswith("per_op"):
        return "B/op"
    if name.endswith("ms_per_op"):
        return "ms/op"
    if name.endswith("per_op"):
        return "1/op"
    if name.endswith("_per_round"):
        return "1/round"
    if name.endswith("_per_kb"):
        return "us/KB"
    if "_us_" in name:
        return "us"
    if name.endswith("_ms"):
        return "ms"
    return "count"


def better_of(name: str) -> str:
    """Sample counts are better higher; every cost is better lower."""
    return "higher" if name.endswith(".n") else "lower"
