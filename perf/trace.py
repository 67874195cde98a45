"""Outside-in span tracer for the per-layer half of the benchmark.

:class:`Tracer` keeps one explicit span stack per process.  A span is a
(name, start, end, parent) interval; spans are not stored one by one (a
``pop_steady`` rep opens ~1 M of them) but aggregated in memory per
``(span, parent)`` edge: call count, total duration and *self time* =
duration minus the part its child spans cover.  Because every span nests
inside the rep's root span, the self times of one rep sum to the root's
duration exactly.  One :meth:`Tracer.begin_run` / :meth:`Tracer.end_run`
pair brackets each rep and gives it its run id.

Spans come from two places, both in the benchmark's own files:

* :meth:`Tracer.install` replaces the public entry points listed in
  :data:`SPAN_TARGETS` — class attributes and module-level functions of
  ``repro`` — with timing wrappers, and :meth:`Tracer.uninstall` puts the
  exact original objects back (the test suite checks identity).
* :meth:`Tracer.push` / :meth:`Tracer.pop` open a span by hand; the
  harness uses them for the rep root and for the HTTP client's round
  trips.

**Limits.**  Spans are outside-in: work a caller inlines never crosses a
patched attribute, so it lands in the caller's self time.  Notably the
batched arrival path inlines the ConnTable probe (it shows up as
``core.silkroad.arrive`` self time, not ``core.conn_table.lookup``), the
batched replay driver pops internal events off the heap itself (those
install/expiry closures are ``netsim.driver.run`` self time; the ones
fired through ``run_until_before``/``run_until`` are
``netsim.events.dispatch`` self time).  A wrapper costs ~1 us per call,
which would swamp an entry point that returns at once (on ``pop_steady``
the 70 K calls into ``core.pcc_update`` do nothing but cost 0.05 s of
timer); :meth:`Tracer.install` therefore measures that cost on an empty
function and :func:`layer_totals` moves it out of the span (the part
inside the timed window) and out of its parent (the part outside) into
``bench.rep``.  End-to-end metrics are always measured untraced;
``bench.trace.overhead_frac`` reports the difference.  Spans inside the
program are a later issue.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: Name of the span every rep runs under.
ROOT_SPAN = "bench.rep"
#: Parent recorded for spans opened while no run is active (set-up code).
OUTSIDE = "<outside>"


class Target(NamedTuple):
    """One attribute to wrap: ``module.owner.attr`` (owner ``None`` for a
    module-level function)."""

    module: str
    owner: Optional[str]
    attr: str
    #: the callable returns a generator: drain it inside the span and
    #: hand the caller an iterator over the drained items.
    materialize: bool = False
    #: ``(peak name, getter(self) -> number)``: after each call, keep the
    #: running maximum of ``getter`` — a count taken at the same boundary.
    peak: Optional[Tuple[str, Callable[[object], float]]] = None


def _m(module: str, owner: str, *attrs: str, **kw) -> List[Target]:
    return [Target(f"repro.{module}", owner, attr, **kw) for attr in attrs]


def _f(module: str, *attrs: str, **kw) -> List[Target]:
    return [Target(f"repro.{module}", None, attr, **kw) for attr in attrs]


#: span name (this repo's module + operation) -> the public entry points
#: that open it.  Several entry points may share one span.
SPAN_TARGETS: Dict[str, List[Target]] = {
    "experiments.common.build_workload": _f("experiments.common", "build_workload"),
    "netsim.arrivals.generate": _m("netsim.arrivals", "ArrivalGenerator", "generate"),
    "netsim.updates.poisson_updates": _m(
        "netsim.updates", "UpdateGenerator", "poisson_updates"
    ),
    "netsim.driver.run": _m("netsim.batchsim", "BatchedFlowSimulator", "run")
    + _m("netsim.simulator", "FlowSimulator", "run"),
    "netsim.events.schedule": _m("netsim.events", "EventQueue", "schedule"),
    "netsim.events.dispatch": _m(
        "netsim.events", "EventQueue", "run_until_before", "run_until", "step"
    ),
    "core.silkroad.prepare_batch": _m("core.silkroad", "SilkRoadSwitch", "prepare_batch"),
    "core.silkroad.arrive": _m(
        "core.silkroad", "SilkRoadSwitch", "on_connection_batch", "on_connection_arrival"
    ),
    "core.silkroad.end": _m("core.silkroad", "SilkRoadSwitch", "on_connection_end"),
    "core.silkroad.apply_update": _m("core.silkroad", "SilkRoadSwitch", "apply_update"),
    "core.silkroad.finalize": _m("core.silkroad", "SilkRoadSwitch", "finalize"),
    "asicsim.batch.from_connections": _m("asicsim.batch", "PacketBatch", "from_connections"),
    "asicsim.hashing.base_hash_many": _f("asicsim.hashing", "base_hash_many"),
    "core.conn_table.lookup": _m("core.conn_table", "ConnTable", "lookup"),
    "core.conn_table.prime_profiles": _m("core.conn_table", "ConnTable", "prime_profiles"),
    "core.conn_table.insert": _m(
        "core.conn_table",
        "ConnTable",
        "insert",
        peak=("core.conn_table.load_peak", lambda table: table.load_factor),
    ),
    "core.conn_table.delete": _m("core.conn_table", "ConnTable", "delete"),
    "core.conn_table.relocate_colliding_entry": _m(
        "core.conn_table", "ConnTable", "relocate_colliding_entry"
    ),
    "asicsim.learning_filter.offer": _m("asicsim.learning_filter", "LearningFilter", "offer"),
    "asicsim.learning_filter.poll": _m(
        "asicsim.learning_filter", "LearningFilter", "poll", "flush"
    ),
    "core.control_plane.submit_batch": _m(
        "core.control_plane",
        "SwitchCpu",
        "submit_batch",
        peak=("core.control_plane.backlog_peak", lambda cpu: cpu.backlog),
    ),
    "core.control_plane.submit_one": _m(
        "core.control_plane",
        "SwitchCpu",
        "submit_one",
        peak=("core.control_plane.backlog_peak", lambda cpu: cpu.backlog),
    ),
    "core.transit_table.mark": _m("core.transit_table", "TransitTable", "mark"),
    "core.transit_table.check": _m("core.transit_table", "TransitTable", "check"),
    "core.transit_table.update_cycle": _m(
        "core.transit_table", "TransitTable", "update_started", "update_finished"
    ),
    "core.pcc_update.request": _m("core.pcc_update", "UpdateCoordinator", "request"),
    "core.pcc_update.note_new_pending": _m(
        "core.pcc_update", "UpdateCoordinator", "note_new_pending"
    ),
    "core.pcc_update.on_installed": _m("core.pcc_update", "UpdateCoordinator", "on_installed"),
    "core.dip_pool_table.select": _m("core.dip_pool_table", "DipPoolTable", "select"),
    "core.dip_pool_table.mutate": _m(
        "core.dip_pool_table", "DipPoolTable", "add_dip", "remove_dip", "set_weight"
    ),
    "core.dip_pool_table.refcount": _m(
        "core.dip_pool_table", "DipPoolTable", "acquire", "release"
    ),
    "obs.recorder.record": _m("obs.recorder", "FlightRecorder", "record"),
    "obs.timeline.sample": _m("obs.timeline", "TimelineSampler", "sample"),
    "obs.export.render": _f("obs.export", "to_prometheus_text")
    + _f("obs.export", "iter_jsonl", materialize=True),
    "core.verify.audit": _f("core.verify", "audit_switch")
    + _f("deploy.fleet", "audit_fleet"),
    "deploy.fleet.arrive": _m(
        "deploy.fleet", "FleetSilkRoad", "on_connection_batch", "on_connection_arrival"
    ),
    "deploy.fleet.end": _m("deploy.fleet", "FleetSilkRoad", "on_connection_end"),
    "deploy.fleet.apply_update": _m("deploy.fleet", "FleetSilkRoad", "apply_update"),
    "deploy.fleet.failover": _m(
        "deploy.fleet", "FleetSilkRoad", "declare_down", "rejoin", "reassign_vip"
    ),
    "serve.session.advance": _m("serve.session", "ServeSession", "advance"),
    "serve.session.mutate": _m(
        "serve.session",
        "ServeSession",
        "add_dip",
        "drain_dip",
        "remove_dip",
        "set_weight",
        "reassign",
    ),
    "serve.session.read": _m(
        "serve.session",
        "ServeSession",
        "state",
        "drain_state",
        "metrics_text",
        "telemetry_records",
    ),
    "serve.source.draw": _m("serve.source", "StreamingFlowSource", "draw"),
}

#: Opened by the benchmark's HTTP client around each request: its self
#: time is what the client observed minus the session span underneath.
ROUNDTRIP_SPAN = "serve.http.roundtrip"

#: Every span a traced run can report, in catalogue order.
SPAN_NAMES: Tuple[str, ...] = tuple(SPAN_TARGETS) + (ROUNDTRIP_SPAN,)


class Tracer:
    """Span stack + per-edge aggregation + attribute patching."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._names: List[str] = [OUTSIDE]
        self._ids: Dict[str, int] = {OUTSIDE: 0}
        #: frames are ``[span id, seconds covered by finished children, start]``;
        #: the bottom frame is a sentinel so a wrapper never sees an empty stack.
        self._stack: List[list] = [[0, 0.0, 0.0]]
        #: (span id, parent id) -> [calls, total_s, self_s]
        self._edges: Dict[Tuple[int, int], list] = {}
        self.peaks: Dict[str, float] = {}
        self.runs: List[Dict[str, object]] = []
        self._run_id: Optional[str] = None
        #: (namespace object, attribute, original raw object) per patch.
        self._patches: List[Tuple[object, str, object]] = []
        #: seconds one wrapped call adds (inside, outside) its timed
        #: window; measured by :meth:`install`, 0 until then.
        self.wrapper_cost_s: Tuple[float, float] = (0.0, 0.0)

    # -- spans -----------------------------------------------------------

    def _id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self._names)
            self._names.append(name)
        return sid

    def push(self, name: str) -> None:
        """Open a span by hand (pair with :meth:`pop`)."""
        self._stack.append([self._id(name), 0.0, self._clock()])

    def pop(self) -> float:
        """Close the innermost hand-opened span; returns its duration."""
        end = self._clock()
        sid, child_s, start = self._stack.pop()
        duration = end - start
        self._account(sid, duration, child_s)
        return duration

    def _account(self, sid: int, duration: float, child_s: float) -> None:
        parent = self._stack[-1]
        parent[1] += duration
        key = (sid, parent[0])
        edge = self._edges.get(key)
        if edge is None:
            self._edges[key] = [1, duration, duration - child_s]
        else:
            edge[0] += 1
            edge[1] += duration
            edge[2] += duration - child_s

    def wrap(self, fn: Callable, name: str, target: Optional[Target] = None) -> Callable:
        """A wrapper that runs ``fn`` inside a span called ``name``."""
        sid = self._id(name)
        stack = self._stack
        edges = self._edges
        clock = self._clock
        materialize = target is not None and target.materialize
        peak = target.peak if target is not None else None
        peaks = self.peaks

        def traced(*args, **kwargs):
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                if materialize:
                    return iter(list(fn(*args, **kwargs)))
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += duration
                key = (sid, parent[0])
                edge = edges.get(key)
                if edge is None:
                    edges[key] = [1, duration, duration - frame[1]]
                else:
                    edge[0] += 1
                    edge[1] += duration
                    edge[2] += duration - frame[1]
                if peak is not None:
                    value = peak[1](args[0])
                    if value > peaks.get(peak[0], float("-inf")):
                        peaks[peak[0]] = value

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- runs ------------------------------------------------------------

    def begin_run(self, run_id: str) -> None:
        """Start one rep: clear the aggregates and open the root span."""
        if self._run_id is not None:
            raise RuntimeError(f"run {self._run_id!r} still open")
        del self._stack[1:]
        self._stack[0][1] = 0.0
        self._edges.clear()
        self.peaks.clear()
        self._run_id = run_id
        self.push(ROOT_SPAN)

    def end_run(self) -> Dict[str, object]:
        """Close the root span and return (and keep) the rep's aggregates."""
        if self._run_id is None:
            raise RuntimeError("no run open")
        if len(self._stack) != 2:
            raise RuntimeError("unbalanced spans at end of run")
        duration = self.pop()
        names = self._names
        spans = [
            {
                "span": names[sid],
                "parent": names[parent],
                "calls": calls,
                "total_s": total_s,
                "self_s": self_s,
            }
            for (sid, parent), (calls, total_s, self_s) in sorted(self._edges.items())
        ]
        run = {
            "run_id": self._run_id,
            "root": ROOT_SPAN,
            "duration_s": duration,
            "spans": spans,
            "peaks": dict(self.peaks),
            "wrapper_cost_s": list(self.wrapper_cost_s),
        }
        self.runs.append(run)
        self._run_id = None
        return run

    # -- patching --------------------------------------------------------

    def install(self, targets: Optional[Dict[str, List[Target]]] = None) -> None:
        """Wrap every target; idempotence is the caller's job (install once)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.wrapper_cost_s = _wrapper_cost(self._clock)
        for name, group in (targets if targets is not None else SPAN_TARGETS).items():
            for target in group:
                module = importlib.import_module(target.module)
                if target.owner is None:
                    self._patch_function(module, name, target)
                else:
                    self._patch_method(getattr(module, target.owner), name, target)

    def _patch_method(self, cls: type, name: str, target: Target) -> None:
        raw = cls.__dict__[target.attr]
        if isinstance(raw, classmethod):
            wrapper: object = classmethod(self.wrap(raw.__func__, name, target))
        elif isinstance(raw, staticmethod):
            wrapper = staticmethod(self.wrap(raw.__func__, name, target))
        else:
            wrapper = self.wrap(raw, name, target)
        self._patches.append((cls, target.attr, raw))
        setattr(cls, target.attr, wrapper)

    def _patch_function(self, module, name: str, target: Target) -> None:
        """Module-level functions are imported by name all over ``repro``
        (``from .hashing import base_hash_many``), so replace the object in
        every loaded ``repro`` module that holds it."""
        original = getattr(module, target.attr)
        wrapper = self.wrap(original, name, target)
        package = target.module.split(".", 1)[0]
        for mod_name, holder in list(sys.modules.items()):
            if holder is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            if vars(holder).get(target.attr) is original:
                self._patches.append((holder, target.attr, original))
                setattr(holder, target.attr, wrapper)

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _wrapper_cost(clock: Callable[[], float], calls: int = 20_000) -> Tuple[float, float]:
    """Seconds a wrapped call of an empty function spends (inside,
    outside) its own timed window; best of five batches."""

    def empty() -> None:
        pass

    best = (float("inf"), float("inf"))
    for _ in range(5):
        probe = Tracer(clock)
        traced = probe.wrap(empty, "empty")
        probe.begin_run("cost")
        for _ in range(calls):
            traced()
        with_wrapper = probe.end_run()
        inside = layer_totals(with_wrapper)["empty"]["self_s"] / calls
        start = clock()
        for _ in range(calls):
            empty()
        bare = clock() - start
        outside = max(0.0, (with_wrapper["duration_s"] - bare) / calls - inside)
        best = min(best, (inside, outside))
    return best


def layer_totals(run: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """Fold one run's (span, parent) edges into per-span totals:
    ``{span: {"self_s", "total_s", "calls"}}``.

    The run's measured wrapper cost is moved out of every span (the part
    inside its timed window) and out of its parent (the part outside)
    into the root span, so that self times still sum to the root's
    duration but a cheap, often-called entry point is not mostly timer.
    """
    inside, outside = run.get("wrapper_cost_s", (0.0, 0.0))
    root = run["root"]
    out: Dict[str, Dict[str, float]] = {}
    for edge in run["spans"]:
        row = out.setdefault(edge["span"], {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        row["self_s"] += edge["self_s"]
        row["total_s"] += edge["total_s"]
        row["calls"] += edge["calls"]
    for edge in run["spans"]:
        if edge["span"] == root:
            continue
        out[edge["span"]]["self_s"] -= edge["calls"] * inside
        out[edge["parent"]]["self_s"] -= edge["calls"] * outside
        out[root]["self_s"] += edge["calls"] * (inside + outside)
    for span, row in out.items():
        if row["self_s"] < 0.0 and span != root:  # over-corrected: give it back
            out[root]["self_s"] += row["self_s"]
            row["self_s"] = 0.0
    return out
