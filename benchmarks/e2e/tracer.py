"""Benchmark-owned tracing: spans at layer boundaries, installed from outside.

Nothing under ``src/`` knows about this module. :class:`Tracer` replaces
class (and a few module) attributes at the boundaries listed in
:data:`BOUNDARIES` with wrappers **before** the system is built — bound
methods are captured at build/schedule time — and puts the originals
back afterwards. Each wrapper records one span
``(id, parent id, layer, name, start_ns, end_ns, context)`` into an
in-memory array and bumps a call counter; a layer's *self* time is its
spans' durations minus the part their child spans cover, accumulated on
a single stack as spans close (the simulator is single-threaded).

Three boundaries need more than a call wrapper:

* a **generator function** (``Accelerator._run``, the protocols'
  ``execute``, generator handlers) returns at once and its body runs
  later inside ``Process._resume``. Its wrapper hands back a proxy
  generator that opens one span per resumed segment of the body, so the
  body is timed where it runs and nested ``yield from`` chains nest;
* ``Process._resume`` itself is then pure process machinery
  (``sim.process``) — except when it drives a generator no boundary
  wraps (nested driver closures, lease timers): that generator's body is
  inside the ``_resume`` span, so the span goes to the layer owning the
  innermost suspended generator's code;
* ``Environment.profile_dispatch`` (the engine's public hook) is the
  engine → callback boundary: a callback that is not itself a wrapped
  boundary (delivery lambdas, request deadlines, condition checks) gets
  a span in the layer owning its code, so ``Environment.step`` keeps
  only queue work.

The time a wrapper itself takes lands in its parent's self time; it is
reported as ``trace.overhead_ratio``, never subtracted.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from itertools import count
from time import perf_counter_ns
from types import GeneratorType
from typing import Callable, Dict, List, Optional, Tuple

#: the per-layer budget's rows, named after the repo's modules
LAYERS: Tuple[str, ...] = (
    "sim.engine",
    "sim.process",
    "net.transport",
    "net.stats",
    "net.reliable",
    "db.txn",
    "db.locks",
    "core.accelerator",
    "core.delay",
    "core.immediate",
    "core.tables",
    "core.robust",
    "metrics",
    "obs",
    "analysis",
    "cluster",
    "workload",
)

#: (layer, "module" or "module:Class", attribute names or "*")
#: "*" = every plain function the class itself defines (no dunders).
#: A target that no longer exists is skipped and listed in
#: ``Tracer.missing`` — a later PR may delete a class without having to
#: edit the benchmark.
BOUNDARIES: Tuple[Tuple[str, str, object], ...] = (
    ("sim.engine", "repro.sim.engine:Environment", ("run", "step", "schedule")),
    ("sim.process", "repro.sim.engine:Environment", ("process",)),
    ("net.transport", "repro.net.endpoint:Endpoint",
     ("send", "request", "reply", "_receive")),
    ("net.transport", "repro.net.network:Network", ("send", "_deliver")),
    ("net.stats", "repro.net.stats:NetworkStats", ("record_send", "record_drop")),
    ("net.reliable", "repro.net.reliable:ReliableSession", "*"),
    ("net.reliable", "repro.net.faults:FaultInjector",
     ("should_drop", "is_crashed")),
    ("db.txn", "repro.db.transaction:TransactionManager",
     ("apply_atomic", "begin")),
    ("db.txn", "repro.db.transaction:Transaction", ("apply", "commit", "abort")),
    ("db.txn", "repro.db.wal:WriteAheadLog",
     ("log_begin", "log_delta", "log_commit", "log_abort", "log_atomic")),
    ("db.txn", "repro.db.storage:Store", ("apply_delta",)),
    ("db.txn", "repro.core.columns:ColumnarStore", ("apply_delta",)),
    ("db.locks", "repro.db.locks:LockManager", ("acquire", "release")),
    ("core.accelerator", "repro.core.accelerator:Accelerator",
     ("update", "_run", "sync_item", "sync_all", "sync_to", "record_unsynced")),
    ("core.accelerator", "repro.cluster.site:Site", ("update", "_record")),
    ("core.delay", "repro.core.delay_update:DelayUpdateProtocol",
     ("execute", "handle_av_request", "handle_pool_request",
      "handle_pool_refill", "handle_av_push", "handle_propagation")),
    ("core.delay", "repro.core.policies:Soda99Policy",
     ("request_amount", "grant_amount")),
    ("core.delay", "repro.core.strategies:BelievedRichestStrategy", ("select",)),
    ("core.immediate", "repro.core.immediate_update:ImmediateUpdateProtocol",
     ("execute", "handle_prepare", "handle_commit", "handle_abort",
      "handle_status", "handle_snapshot")),
    ("core.tables", "repro.core.av_table:AVTable", "*"),
    ("core.tables", "repro.core.av_table:Hold", ("add", "consume", "release")),
    ("core.tables", "repro.core.columns:ColumnarAVTable", "*"),
    ("core.tables", "repro.core.beliefs:BeliefTable", "*"),
    ("core.tables", "repro.core.columns:ColumnarBeliefTable", "*"),
    ("core.tables", "repro.db.storage:Store", ("value",)),
    ("core.tables", "repro.core.columns:ColumnarStore", ("value",)),
    ("core.robust", "repro.core.leases:LeaseTable", "*"),
    ("core.robust", "repro.core.overload:OverloadController", "*"),
    ("core.robust", "repro.core.sync:SyncScheduler", "*"),
    ("metrics", "repro.metrics.collector:MetricsCollector", ("record",)),
    ("metrics", "repro.metrics.collector:GlobalLedger", ("record_delta",)),
    ("obs", "repro.obs.spans:SpanRecorder", ("start",)),
    ("obs", "repro.obs.spans:Span", ("finish",)),
    ("obs", "repro.obs.registry:Counter", ("inc",)),
    ("obs", "repro.obs.registry:Gauge", ("set",)),
    ("obs", "repro.obs.registry:StreamingHistogram", ("observe",)),
    ("obs", "repro.obs.hub:Observability", ("emit",)),
    ("obs", "repro.obs.snapshot:TelemetrySnapshot", ("capture",)),
    ("analysis", "repro.analysis.sanitizer:ProtocolSanitizer",
     ("av_event", "lock_event", "_on_message", "_on_emit", "finish")),
    ("cluster", "repro.cluster.system:DistributedSystem",
     ("build", "check_invariants")),
    ("cluster", "repro.cluster.system", ("bootstrap",)),
    ("cluster", "repro.cluster.topology:Topology", ("parse", "view")),
    ("workload", "repro.workload.trace:WorkloadTrace", ("capture",)),
    ("workload", "repro.workload.driver", ("run_closed", "run_open")),
    ("workload", "repro.experiments.chaos", ("run_open", "run_chaos_scenario")),
)

#: path prefix below ``repro/`` -> layer owning code no boundary wraps
#: (first match wins)
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("sim/process", "sim.process"),
    ("sim/", "sim.engine"),
    ("net/stats", "net.stats"),
    ("net/reliable", "net.reliable"),
    ("net/faults", "net.reliable"),
    ("net/", "net.transport"),
    ("db/locks", "db.locks"),
    ("db/", "db.txn"),
    ("core/delay_update", "core.delay"),
    ("core/policies", "core.delay"),
    ("core/strategies", "core.delay"),
    ("core/immediate_update", "core.immediate"),
    ("core/av_table", "core.tables"),
    ("core/beliefs", "core.tables"),
    ("core/columns", "core.tables"),
    ("core/leases", "core.robust"),
    ("core/overload", "core.robust"),
    ("core/sync", "core.robust"),
    ("core/", "core.accelerator"),
    ("cluster/site", "core.accelerator"),
    ("cluster/rejoin", "core.robust"),
    ("cluster/", "cluster"),
    ("metrics/", "metrics"),
    ("obs/", "obs"),
    ("analysis/", "analysis"),
)

#: fields per span in :attr:`Tracer.spans`
SPAN_FIELDS = ("id", "parent", "layer", "name", "start_ns", "end_ns", "ctx")

_FALLBACK_LAYER = LAYERS.index("workload")
_SIM_PROCESS = LAYERS.index("sim.process")


def layer_for_path(filename: str) -> int:
    """Layer index owning a source file (``workload`` outside ``repro``)."""
    path = filename.replace("\\", "/")
    pos = path.rfind("/repro/")
    if pos >= 0:
        tail = path[pos + len("/repro/"):]
        for prefix, layer in MODULE_LAYERS:
            if tail.startswith(prefix):
                return LAYERS.index(layer)
    return _FALLBACK_LAYER


class Tracer:
    """Span recorder for one traced run; see the module docstring."""

    def __init__(self) -> None:
        #: self time per layer (index into LAYERS), nanoseconds
        self.self_ns: List[int] = [0] * len(LAYERS)
        #: span/counter names ("Class.method"), and their layers
        self.names: List[str] = []
        self.name_layers: List[int] = []
        #: calls per name id
        self.calls: List[int] = []
        #: flat span records, len(SPAN_FIELDS) int64 values each
        self.spans = array("q")
        #: caller-set context stamped on every span: the update index on
        #: closed-loop workloads, the scenario index on chaos-faults
        self.ctx = -1
        #: LockManager.acquire calls that had to queue
        self.lock_waits = 0
        #: boundary targets that no longer exist
        self.missing: List[str] = []
        self._stack: List[List[int]] = [[0, -1]]
        self._ids = count()
        self._patched: List[Tuple[object, str, object]] = []
        self._own_codes: set = set()
        self._proxy_code = None
        self._code_layers: Dict[object, int] = {}
        self._callback_names = [
            self._name(i, "(callback)") for i in range(len(LAYERS))
        ]
        self._resume_name = self._name(_SIM_PROCESS, "Process._resume")
        self._close = self._make_close()

    # ---------------------------------------------------------------- #
    # install / restore
    # ---------------------------------------------------------------- #

    def install(self) -> None:
        """Wrap every boundary; originals are kept for :meth:`restore`."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for layer_name, target, attrs in BOUNDARIES:
            layer = LAYERS.index(layer_name)
            owner = _resolve(target)
            if owner is None:
                self.missing.append(target)
                continue
            if attrs == "*":
                attrs = [
                    name for name, raw in vars(owner).items()
                    if inspect.isfunction(raw) and not name.startswith("__")
                ]
            for attr in attrs:
                raw = vars(owner).get(attr)
                if raw is None:
                    self.missing.append(f"{target}.{attr}")
                    continue
                # "Class.method" / "module.function"
                label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
                self._patch(owner, attr, raw, layer, label)
        self._install_engine_hooks()

    def restore(self) -> None:
        """Put every original attribute back (newest patch first)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def patched(self) -> List[Tuple[object, str, object]]:
        """(owner, attribute, original) for every installed wrapper."""
        return list(self._patched)

    def _patch(self, owner, attr: str, raw, layer: int, label: str) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(
                self._wrap(raw.__func__, layer, self._name(layer, label))
            )
        elif inspect.isfunction(raw):
            func = raw
            if label == "LockManager.acquire":
                func = self._count_lock_waits(raw)
            wrapped = self._wrap(func, layer, self._name(layer, label))
        else:  # property or other descriptor: not a call boundary
            return
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _install_engine_hooks(self) -> None:
        from repro.sim.engine import Environment
        from repro.sim.process import Process

        self._patched.append((Process, "_resume", vars(Process)["_resume"]))
        Process._resume = self._wrap_resume(vars(Process)["_resume"])
        self._patched.append(
            (Environment, "profile_dispatch", vars(Environment)["profile_dispatch"])
        )
        Environment.profile_dispatch = staticmethod(self._make_dispatch())

    # ---------------------------------------------------------------- #
    # wrappers
    # ---------------------------------------------------------------- #

    def _name(self, layer: int, label: str) -> int:
        self.names.append(label)
        self.name_layers.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def _wrap(self, func: Callable, layer: int, nid: int) -> Callable:
        if inspect.isgeneratorfunction(func):
            return self._wrap_generator(func, layer, nid)
        return self._wrap_call(func, layer, nid)

    def _make_close(self) -> Callable:
        """The span epilogue every wrapper shares. A wrapper opens a span
        inline — ``parent = stack[-1]; frame = [0, next(ids)];
        stack.append(frame); start = now()`` — and closes it here."""
        stack, self_ns, calls = self._stack, self.self_ns, self.calls
        record, now, tracer = self.spans.extend, perf_counter_ns, self

        def close(parent, frame, start, layer, nid, called=1):
            end = now()
            stack.pop()
            elapsed = end - start
            parent[0] += elapsed                    # our parent's child time
            self_ns[layer] += elapsed - frame[0]    # minus our own children
            calls[nid] += called
            record((frame[1], parent[1], layer, nid, start, end, tracer.ctx))

        return close

    def _wrap_call(self, func: Callable, layer: int, nid: int) -> Callable:
        stack, ids, now, close = self._stack, self._ids, perf_counter_ns, self._close

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [0, next(ids)]
            stack.append(frame)
            start = now()
            try:
                return func(*args, **kwargs)
            finally:
                close(parent, frame, start, layer, nid)

        self._own_codes.add(traced.__code__)
        return traced

    def _wrap_generator(self, func: Callable, layer: int, nid: int) -> Callable:
        stack, ids, now, close = self._stack, self._ids, perf_counter_ns, self._close
        calls = self.calls

        def body(gen):
            # PEP 380 delegation by hand, one span per resumed segment.
            send, throw = gen.send, gen.throw
            value = pending = None
            try:
                while True:
                    parent = stack[-1]
                    frame = [0, next(ids)]
                    stack.append(frame)
                    start = now()
                    try:
                        if pending is None:
                            yielded = send(value)
                        else:
                            yielded = throw(pending)
                    finally:
                        close(parent, frame, start, layer, nid, called=0)
                    pending = None
                    try:
                        value = yield yielded
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:
                        pending = exc
            except StopIteration as stop:
                return stop.value

        def traced(*args, **kwargs):
            calls[nid] += 1  # one call per generator, however often resumed
            gen = func(*args, **kwargs)
            proxy = body(gen)
            proxy.__name__ = gen.__name__
            return proxy

        self._proxy_code = body.__code__
        self._own_codes.add(traced.__code__)
        return traced

    def _count_lock_waits(self, acquire: Callable) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            event = acquire(*args, **kwargs)
            if not event.triggered:
                tracer.lock_waits += 1
            return event

        return counted

    def _code_layer(self, code) -> int:
        layer = self._code_layers.get(code)
        if layer is None:
            layer = self._code_layers[code] = layer_for_path(code.co_filename)
        return layer

    def _wrap_resume(self, resume: Callable) -> Callable:
        stack, ids, now, close = self._stack, self._ids, perf_counter_ns, self._close
        nid, code_layer, tracer = self._resume_name, self._code_layer, self

        def traced(process, event):
            gen = process._generator
            inner = gen.gi_yieldfrom
            while type(inner) is GeneratorType:
                gen, inner = inner, inner.gi_yieldfrom
            code = gen.gi_code
            # every proxy body shares one code object
            layer = _SIM_PROCESS if code is tracer._proxy_code else code_layer(code)
            parent = stack[-1]
            frame = [0, next(ids)]
            stack.append(frame)
            start = now()
            try:
                return resume(process, event)
            finally:
                close(parent, frame, start, layer, nid)

        self._own_codes.add(traced.__code__)
        return traced

    def _make_dispatch(self) -> Callable:
        stack, ids, now, close = self._stack, self._ids, perf_counter_ns, self._close
        own, code_layer, names = self._own_codes, self._code_layer, self._callback_names

        def dispatch(event, callbacks):
            for callback in callbacks:
                code = getattr(
                    getattr(callback, "__func__", callback), "__code__", None
                )
                if code is None or code in own:
                    callback(event)  # a wrapped boundary opens its own span
                    continue
                layer = code_layer(code)
                parent = stack[-1]
                frame = [0, next(ids)]
                stack.append(frame)
                start = now()
                try:
                    callback(event)
                finally:
                    close(parent, frame, start, layer, names[layer])

        return dispatch

    # ---------------------------------------------------------------- #
    # results
    # ---------------------------------------------------------------- #

    @property
    def n_spans(self) -> int:
        return len(self.spans) // len(SPAN_FIELDS)

    def layer_self_ns(self) -> Dict[str, int]:
        return dict(zip(LAYERS, self.self_ns))

    def layer_calls(self) -> Dict[str, int]:
        """Calls per layer: a span's count goes to the layer its name
        belongs to (``Process._resume`` always counts as ``sim.process``,
        wherever its time went)."""
        out = dict.fromkeys(LAYERS, 0)
        for layer, n in zip(self.name_layers, self.calls):
            out[LAYERS[layer]] += n
        return out

    def calls_for(self, label: str) -> int:
        """Total calls recorded under one span name."""
        return sum(n for name, n in zip(self.names, self.calls) if name == label)

    def write_spans(self, path: str, context_names: Optional[List[str]] = None) -> int:
        """Write the span list as JSON lines; returns the span count."""
        import json

        width = len(SPAN_FIELDS)
        spans = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "fields": SPAN_FIELDS, "layers": LAYERS, "names": self.names,
                "contexts": context_names,
            }) + "\n")
            for i in range(0, len(spans), width):
                fh.write(json.dumps(spans[i:i + width].tolist()) + "\n")
        return self.n_spans


def _resolve(target: str):
    """``"pkg.mod"`` or ``"pkg.mod:Class"`` -> object, or ``None``."""
    module_name, _, attr = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(module, attr, None) if attr else module
