"""Span recorder for the traced run: wraps the program's public calls.

The program itself carries no tracing.  For the traced run only,
:meth:`Tracer.install` replaces a fixed list of public functions and
methods (``HOOKS``) with wrappers that record a span around each call,
plus counts taken at the same boundary; :meth:`Tracer.uninstall` puts
the originals back.  Install before the environment is built: several
layers bind methods once at start-up (a task binds its router's
``route_batch``), and a method bound before install stays untraced.

Spans stay in memory as flat int64 rows ``(name, start_ns, end_ns,
parent, context)`` -- ``parent`` is the row of the enclosing span or -1,
``context`` the iteration or statement the span ran under -- and are
written out once, when the run ends.  A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from array import array
from collections import defaultdict

FIELDS = ("name", "start_ns", "end_ns", "parent", "context")
WIDTH = len(FIELDS)

#: Layer of each span name, for the wall-time shares.
LAYERS = {
    "kafka.poll": "kafka", "kafka.produce": "kafka",
    "serde.decode": "serde", "serde.encode": "serde", "serde.state": "serde",
    "samzasql.chain": "samzasql", "samzasql.fused": "samzasql",
    "samzasql.flush": "samzasql",
    "samza.iteration": "samza", "samza.commit": "samza",
    "samza.store.get": "samza", "samza.store.put": "samza",
    "samza.store.flush": "samza", "samza.changelog": "samza",
    "metrics.report": "metrics", "metrics.sampled": "metrics",
    "shell.execute": "sql", "sql.parse": "sql", "sql.plan": "sql",
    "samzasql.codegen": "sql", "samza.launch": "sql",
    "serving.execute": "serving",
}


def _poll_records(args, result):
    return sum(len(records) for _tp, records in result)


def _arg_len(position: int):
    def count(args, result):
        return len(args[position])
    return count


def _result_len(args, result):
    return len(result)


class Before:
    """Marks a count function that runs before the call, on its args."""

    def __init__(self, fn):
        self.fn = fn


def _dirty(args):
    return args[0].dirty_count


def _one(args, result):
    return 1


def _result(args, result):
    return result


def _empty(args, result):
    return result == 0


RECORDS_1 = (("records", _arg_len(1)),)
RECORDS_2 = (("records", _arg_len(2)),)

#: (module, owner or None for a module function, attribute, span name,
#:  counts).  ``counts`` pairs a suffix with a function of (args,
#:  result); its value is added to ``<span name>.<suffix>``.  A function
#:  wrapped in :class:`Before` runs before the call, on (args).
HOOKS = (
    ("repro.kafka.consumer", "Consumer", "poll_batches", "kafka.poll",
     (("records", _poll_records), ("groups", _result_len))),
    ("repro.kafka.producer", "Producer", "send_batch", "kafka.produce",
     RECORDS_2),
    ("repro.kafka.producer", "Producer", "send", "kafka.produce",
     (("records", _one),)),
    ("repro.serde.avro", "AvroSerde", "from_bytes_batch", "serde.decode",
     RECORDS_1),
    ("repro.serde.avro", "AvroSerde", "from_bytes", "serde.decode",
     (("records", _one),)),
    ("repro.serde.avro", "AvroSerde", "to_bytes_batch", "serde.encode",
     RECORDS_1),
    ("repro.serde.avro", "AvroSerde", "to_bytes", "serde.encode",
     (("records", _one),)),
    ("repro.samzasql.task", "SamzaSqlTask", "process_batch", "samzasql.chain",
     RECORDS_2),
    ("repro.samzasql.compile", "CompiledExecutor", "route_batch",
     "samzasql.chain", ()),
    ("repro.samzasql.operators.router", "MessageRouter", "route_batch",
     "samzasql.chain", ()),
    ("repro.samzasql.task", "SamzaSqlTask", "process_batch_raw",
     "samzasql.fused", RECORDS_2),
    ("repro.samzasql.operators.router", "MessageRouter", "flush_sinks",
     "samzasql.flush", ()),
    ("repro.samza.container", "SamzaContainer", "run_iteration",
     "samza.iteration", (("records", _result), ("empty", _empty))),
    ("repro.samza.container", "SamzaContainer", "commit", "samza.commit", ()),
    ("repro.samza.storage", "WriteBehindKeyValueStore", "get",
     "samza.store.get", ()),
    ("repro.samza.storage", "CachedKeyValueStore", "get", "samza.store.get",
     ()),
    ("repro.samza.storage", "WriteBehindKeyValueStore", "put",
     "samza.store.put", ()),
    ("repro.samza.storage", "CachedKeyValueStore", "put", "samza.store.put",
     ()),
    ("repro.samza.storage", "WriteBehindKeyValueStore", "flush",
     "samza.store.flush", (("records", Before(_dirty)),)),
    ("repro.samza.storage", "LoggedKeyValueStore", "put", "samza.changelog",
     (("records", _one),)),
    ("repro.samza.storage", "LoggedKeyValueStore", "delete",
     "samza.changelog", (("records", _one),)),
    ("repro.metrics.reporter", "MetricsSnapshotReporter", "report",
     "metrics.report", (("records", _result),)),
    ("repro.metrics.instrument", "TimingSampler", "route_batch",
     "metrics.sampled", RECORDS_2),
    ("repro.samzasql.shell", "SamzaSQLShell", "execute", "shell.execute", ()),
    ("repro.sql.planner", None, "parse_statement", "sql.parse", ()),
    ("repro.serving.frontdoor", None, "parse_statement", "sql.parse", ()),
    ("repro.sql.planner", "QueryPlanner", "plan_statement", "sql.plan", ()),
    ("repro.samzasql.compile", None, "compile_chain", "samzasql.codegen", ()),
    ("repro.samzasql.serde_plan", None, "compile_serde_fused",
     "samzasql.codegen", ()),
    ("repro.samza.job", "JobRunner", "submit", "samza.launch", ()),
    ("repro.serving.frontdoor", "FrontDoor", "execute", "serving.execute", ()),
)

#: Count-only hooks: (module, owner, attribute, counter, count function).
COUNTERS = tuple(
    ("repro.zk.server", "ZkServer", op, "zk.ops", _one)
    for op in ("create", "get", "set", "exists", "delete", "get_children")
) + (
    ("repro.samza.job", "SamzaApplicationMaster", "on_containers_allocated",
     "yarn.allocations", _arg_len(1)),
    # Store reads that missed every object layer and paid the serde.
    ("repro.samza.storage", "SerializedKeyValueStore", "get",
     "samza.store.serialized_gets", _one),
)


#: Spans that, at top level, start a new context (one statement).
STATEMENT_SPANS = frozenset({"serving.execute", "shell.execute"})


class Tracer:
    """In-memory span store plus the install/uninstall of the hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        #: Calls per span name, counted only when not nested in a span of
        #: the same name (a cached store's ``get`` calls the write-behind
        #: store's ``get``; a user made one call).
        self.calls: dict[str, int] = defaultdict(int)
        #: The unit of work spans run under: bumped by every pacer
        #: iteration and every top-level statement.
        self.context = 0
        self.max_lag = 0
        #: Full (generation 2) collections the program made, and their ns.
        self.gc_full = [0, 0]
        self._gc_started = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- hooks ----------------------------------------------------------------

    def _span_wrapper(self, original, name: str, counters=()):
        nid = self.name_id(name)
        spans = self.spans
        stack = self._stack
        counts = self.counts
        calls = self.calls
        counters = tuple((f"{name}.{suffix}", fn) for suffix, fn in counters)
        before = tuple((key, fn.fn) for key, fn in counters
                       if isinstance(fn, Before))
        after = tuple((key, fn) for key, fn in counters
                      if not isinstance(fn, Before))
        perf = time.perf_counter_ns
        tracer = self
        statement = name in STATEMENT_SPANS

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            row = len(spans) // WIDTH
            if parent < 0 or spans[parent * WIDTH] != nid:
                calls[name] += 1
            if statement and parent < 0:
                tracer.context += 1
            for key, fn in before:
                counts[key] += fn(args)
            spans.extend((nid, perf(), 0, parent, tracer.context))
            stack.append(row)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[row * WIDTH + 2] = perf()
                stack.pop()
            for key, fn in after:
                counts[key] += fn(args, result)
            return result

        return wrapper

    def _count_wrapper(self, original, counter: str, count):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[counter] += count(args, result)
            return result

        return wrapper

    def _patch(self, module_name: str, owner_name, attr: str, wrapper) -> None:
        module = importlib.import_module(module_name)
        owner = module if owner_name is None else getattr(module, owner_name)
        original = owner.__dict__[attr] if owner_name else getattr(module, attr)
        setattr(owner, attr, wrapper(original))
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, owner, attr, name, count in HOOKS:
            self._patch(module, owner, attr,
                        lambda f, n=name, c=count: self._span_wrapper(f, n, c))
        for module, owner, attr, counter, count in COUNTERS:
            self._patch(module, owner, attr,
                        lambda f, n=counter, c=count: self._count_wrapper(
                            f, n, c))
        self._install_state_serde()
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        else:
            self.gc_full[0] += 1
            self.gc_full[1] += time.perf_counter_ns() - self._gc_started

    def _install_state_serde(self) -> None:
        """``ObjectSerde`` is the state serde; the container also uses one
        instance to hash partition keys, which is routing, not state."""
        from repro.samza.container import _PARTITION_KEY_SERDE as routing
        from repro.serde.object_serde import ObjectSerde

        for attr, size in (("to_bytes", lambda a, r: len(r)),
                           ("from_bytes", lambda a, r: len(a[1]))):
            original = ObjectSerde.__dict__[attr]
            traced = self._span_wrapper(original, "serde.state",
                                        (("bytes", size),))

            def wrapper(self_, data, _original=original, _traced=traced):
                if self_ is routing:
                    return _original(self_, data)
                return _traced(self_, data)

            setattr(ObjectSerde, attr, wrapper)
            self._patches.append((ObjectSerde, attr, original))

    def iteration_hook(self, env):
        """A pacer ``after_iteration`` callback: starts a new context and
        samples the backlog of every running job (``kafka.lag.max``)."""
        masters = env.runner.masters

        def hook() -> None:
            self.context += 1
            lag = sum(m.total_lag() for m in masters() if not m.finished)
            if lag > self.max_lag:
                self.max_lag = lag

        return hook

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------------

    def rows(self):
        """Spans as tuples in :data:`FIELDS` order."""
        spans = self.spans
        for i in range(0, len(spans), WIDTH):
            yield tuple(spans[i:i + WIDTH])

    def write(self, stem) -> None:
        """Write the spans (raw int64 rows) and a JSON header next to them."""
        with open(f"{stem}.spans", "wb") as out:
            self.spans.tofile(out)
        with open(f"{stem}.json", "w") as out:
            json.dump({"fields": FIELDS, "names": self.names,
                       "spans": len(self.spans) // WIDTH,
                       "counts": dict(self.counts),
                       "calls": dict(self.calls)}, out, indent=1)


def self_times(rows) -> list[int]:
    """Self time of every span: its duration minus the union of its
    children's intervals clipped to it.  ``rows`` are ``(name, start,
    end, parent, context)`` tuples; a parent index refers to a row."""
    rows = list(rows)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent, _context in rows:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_name, start, end, _parent, _context) in enumerate(rows):
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def self_time_by_name(tracer: Tracer) -> dict[str, int]:
    """Total self time in ns per span name."""
    totals: dict[str, int] = defaultdict(int)
    names = tracer.names
    rows = list(tracer.rows())
    for (nid, *_rest), own in zip(rows, self_times(rows)):
        totals[names[nid]] += own
    return dict(totals)


#: Per-layer metrics the traced run reports, with their units.
PER_LAYER = (
    ("kafka.poll.calls", "count"), ("kafka.poll.records", "count"),
    ("kafka.poll.ns", "ns/msg"), ("kafka.poll.fill_frac", "ratio"),
    ("kafka.produce.records", "count"), ("kafka.produce.ns", "ns/msg"),
    ("kafka.lag.max", "count"), ("kafka.retries", "count"),
    ("serde.decode.records", "count"), ("serde.decode.ns", "ns/msg"),
    ("serde.encode.records", "count"), ("serde.encode.ns", "ns/msg"),
    ("serde.state.calls", "count"), ("serde.state.bytes", "bytes"),
    ("serde.state.ns", "ns/msg"),
    ("samzasql.chain.records", "count"), ("samzasql.chain.ns", "ns/msg"),
    ("samzasql.fused.records", "count"), ("samzasql.fused.ns", "ns/msg"),
    ("samzasql.fused_frac", "ratio"), ("samzasql.flush.ns", "ns/msg"),
    ("samza.iteration.calls", "count"), ("samza.iteration.ns", "ns/msg"),
    ("samza.iteration.empty_frac", "ratio"),
    ("samza.group.records_mean", "records"),
    ("samza.commit.calls", "count"), ("samza.commit.ns", "ns/msg"),
    ("samza.store.get.calls", "count"), ("samza.store.get.ns", "ns/msg"),
    ("samza.store.put.calls", "count"), ("samza.store.put.ns", "ns/msg"),
    ("samza.store.cache_hit_frac", "ratio"),
    ("samza.store.flush.records", "count"), ("samza.store.flush.ns", "ns/msg"),
    ("samza.changelog.records", "count"), ("samza.changelog.ns", "ns/msg"),
    ("samza.state.rows", "count"),
    ("metrics.report.calls", "count"), ("metrics.report.records", "count"),
    ("metrics.report.ns", "ns/msg"),
    ("metrics.sampled.records", "count"), ("metrics.sampled.ns", "ns/msg"),
    ("shell.execute.calls", "count"), ("shell.execute.ns", "ns/msg"),
    ("sql.parse.ns", "ns/msg"), ("sql.plan.ns", "ns/msg"),
    ("samzasql.codegen.ns", "ns/msg"), ("samza.launch.ns", "ns/msg"),
    ("serving.execute.calls", "count"), ("serving.execute.ns", "ns/msg"),
    ("serving.admitted", "count"), ("serving.queued", "count"),
    ("serving.rejected", "count"),
    ("zk.ops", "count"), ("yarn.allocations", "count"),
    ("gc.full.calls", "count"), ("gc.full.ns", "ns/msg"),
    ("kafka.wall_frac", "ratio"), ("serde.wall_frac", "ratio"),
    ("samzasql.wall_frac", "ratio"), ("samza.wall_frac", "ratio"),
    ("metrics.wall_frac", "ratio"), ("sql.wall_frac", "ratio"),
    ("serving.wall_frac", "ratio"), ("bench.untraced_frac", "ratio"),
    ("bench.gen_late_p99_ms", "ms"), ("bench.trace_overhead_frac", "ratio"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, figures: dict, poll_batch_size: int) -> dict:
    """Every :data:`PER_LAYER` metric from a traced run.

    ``.ns`` metrics are self time per input record (records the tasks
    polled, set-up input included); ``_frac`` shares of wall time divide
    by the traced wall time ``figures["wall_ns"]``.
    """
    own = self_time_by_name(tracer)
    counts, calls = tracer.counts, tracer.calls
    inputs = counts["kafka.poll.records"]
    wall = figures["wall_ns"]
    values = {
        "kafka.poll.fill_frac": _ratio(
            inputs, calls["kafka.poll"] * poll_batch_size),
        "kafka.lag.max": tracer.max_lag,
        "kafka.retries": figures["retries"],
        "serde.state.bytes": counts["serde.state.bytes"],
        "samzasql.fused_frac": _ratio(
            counts["samzasql.fused.records"],
            counts["samzasql.fused.records"]
            + counts["samzasql.chain.records"]),
        "samza.iteration.empty_frac": _ratio(
            counts["samza.iteration.empty"], calls["samza.iteration"]),
        "samza.group.records_mean": _ratio(inputs,
                                           counts["kafka.poll.groups"]),
        "samza.store.cache_hit_frac": 1.0 - _ratio(
            counts["samza.store.serialized_gets"], calls["samza.store.get"])
        if calls["samza.store.get"] else 0.0,
        "samza.state.rows": figures["state_rows"],
        "zk.ops": counts["zk.ops"],
        "gc.full.calls": tracer.gc_full[0],
        "gc.full.ns": _ratio(tracer.gc_full[1], inputs),
        "yarn.allocations": counts["yarn.allocations"],
        "bench.gen_late_p99_ms": figures["gen_late_p99_ms"],
        "bench.trace_overhead_frac": 1.0 - _ratio(
            figures["catchup_msgs_per_s"],
            figures["untraced_catchup_msgs_per_s"]),
    }
    admission = figures.get("admission", {})
    for key in ("admitted", "queued", "rejected"):
        values[f"serving.{key}"] = admission.get(key, 0)
    layers: dict[str, int] = defaultdict(int)
    for name, ns in own.items():
        layers[LAYERS[name]] += ns
    for layer in ("kafka", "serde", "samzasql", "samza", "metrics", "sql",
                  "serving"):
        values[f"{layer}.wall_frac"] = _ratio(layers[layer], wall)
    values["bench.untraced_frac"] = 1.0 - _ratio(sum(layers.values()), wall)
    out = {}
    for name, unit in PER_LAYER:
        if name in values:
            value = values[name]
        else:
            span, _, kind = name.rpartition(".")
            if kind == "ns":
                value = _ratio(own.get(span, 0), inputs)
            elif kind == "calls":
                value = calls[span]
            else:
                value = counts[name]
        out[name] = (value, unit)
    return out
