"""The data-plane workloads: ``stateless``, ``window`` and ``join``.

One run of a workload, all in the default ``SamzaSqlEnvironment()``
(metrics on, every execution default) and from one thread, is
:func:`pacing.measure` over a :class:`StreamDeployment` per round: set
up (register the streams, submit the standing queries, consume the
set-up input: the Products bootstrap, the window warm-up), drain a
preloaded backlog, offer events at the workload's fixed rate, make a
batch of statements (a front-door session in an environment of its own
submits the workload's queries ``STATEMENTS_PER_BATCH`` times, each
timed at the session and stopped, untimed, before the next), then
decode every output and check it against the reference."""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.samzasql.environment import SamzaSqlEnvironment
from repro.serving import TenantQuota
from repro.workloads.orders import padded_orders_schema
from repro.workloads.products import PRODUCTS_SCHEMA

import reference
from pacing import ROUNDS, Deployment, measure, round_sizes
from workloads import START_TS, OrdersSource, append, products_changelog

STATEMENTS_PER_BATCH = 8

FILTER = "SELECT STREAM * FROM Orders WHERE units > 50"
PROJECT = "SELECT STREAM rowtime, productId, units FROM Orders"
WINDOW = ("SELECT STREAM rowtime, productId, units, SUM(units) OVER "
          "(PARTITION BY productId ORDER BY rowtime RANGE INTERVAL '5' "
          "MINUTE PRECEDING) unitsLastFiveMinutes FROM Orders")
JOIN = ("SELECT STREAM Orders.rowtime, Orders.orderId, Orders.productId, "
        "Orders.units, Products.supplierId FROM Orders JOIN Products "
        "ON Orders.productId = Products.productId")


@dataclass(frozen=True)
class Spec:
    """One data workload.

    ``rate`` is the open-loop offered rate in input events per second.
    ``catchup_rate`` is about the most events per second the seed drains
    from a backlog; it sizes the backlogs (:func:`pacing.round_sizes`).
    ``products`` is the key space (the Products relation size for
    ``join``); ``zipf`` its skew (0 = uniform); ``spacing_ms`` the
    rowtime gap between consecutive events; ``warmup`` the events
    consumed during set-up.
    """

    queries: tuple
    rate: float
    catchup_rate: float
    products: int
    zipf: float = 0.0
    spacing_ms: int = 1
    warmup: int = 0
    relation: bool = False


SPECS = {
    # 100 uniform keys, no state: fetch, decode, chain, encode, produce
    # and the metrics sampler do all the work.
    "stateless": Spec(queries=(FILTER, PROJECT), rate=10_000,
                      catchup_rate=55_000, products=100),
    # Zipf keys; 5 minutes of rowtime at 8 ms spacing retain 37.5k rows,
    # more than 32 tasks x 1024-entry store caches.
    "window": Spec(queries=(WINDOW,), rate=3_000, catchup_rate=19_000,
                   products=2_000, zipf=1.0, spacing_ms=8, warmup=40_000),
    # 40k products (more than 32 x 1024) bootstrapped from the changelog;
    # Zipf-skewed probes.
    "join": Spec(queries=(JOIN,), rate=4_000, catchup_rate=40_000,
                 products=40_000, zipf=1.0, relation=True),
}


def _reference(spec: Spec, sql: str, log: reference.EventLog,
               products: dict | None):
    """The expected outputs of one query, and how to index its outputs."""
    if sql == FILTER:
        return reference.filter_units(log), reference.by_key("orderId")
    if sql == PROJECT:
        return (reference.project(log),
                reference.by_rowtime(START_TS, spec.spacing_ms))
    if sql == WINDOW:
        return (reference.sliding_sum(log),
                reference.by_rowtime(START_TS, spec.spacing_ms))
    return reference.relation_join(log, products), reference.by_key("orderId")


class StreamDeployment(Deployment):
    """A set-up environment with the workload's standing queries running."""

    def __init__(self, spec: Spec, warmup, relation, products):
        self.spec = spec
        self.products = products
        self.rate = spec.rate
        generator_s = 0.0
        start = time.perf_counter()
        self.env = env = SamzaSqlEnvironment()
        shell = env.shell
        shell.register_stream("Orders", padded_orders_schema(),
                              partitions=32)
        bootstrap = 0
        if relation is not None:
            table = shell.register_table("Products", PRODUCTS_SCHEMA,
                                         key_field="productId", partitions=32)
            mark = time.perf_counter()
            bootstrap = append(env.cluster, table.changelog_topic, relation)
            generator_s += time.perf_counter() - mark
        self.handles = [shell.execute(sql) for sql in spec.queries]
        self.start()
        self.events = []
        if warmup is not None:
            mark = time.perf_counter()
            append(env.cluster, "Orders", warmup.by_partition())
            generator_s += time.perf_counter() - mark
            self.events.append(warmup)
        self.pacer.drain(bootstrap + len(warmup or ()) * len(self.handles))
        self.setup_s = time.perf_counter() - start - generator_s
        self.probe = None

    def statements(self) -> list[float]:
        if self.probe is None:
            self.probe = StatementProbe(self.spec)
        return self.probe.submit(STATEMENTS_PER_BATCH)

    def references(self, log: reference.EventLog):
        for handle, sql in zip(self.handles, self.spec.queries):
            expected, index_of = _reference(self.spec, sql, log,
                                            self.products)
            yield handle, expected, index_of

    def close(self) -> None:
        if self.probe is not None:
            self.probe.close()
        super().close()


class StatementProbe:
    """A front-door session in its own environment that submits the
    workload's queries one at a time (a closed loop of one client)."""

    def __init__(self, spec: Spec):
        self.spec = spec
        self.env = SamzaSqlEnvironment()
        self.front_door = self.env.front_door(default_quota=TenantQuota())
        catalog = self.front_door.catalog
        catalog.add_data_source("retail")
        catalog.create("Orders", "retail", padded_orders_schema(),
                       kind="stream", partitions=32)
        if spec.relation:
            catalog.create("Products", "retail", PRODUCTS_SCHEMA,
                           kind="table", key_field="productId",
                           partitions=32)
        self.front_door.register_tenant("probe")
        self.session = self.front_door.connect("probe")
        self.submitted = 0

    def submit(self, statements: int) -> list[float]:
        """Latencies of ``statements`` submissions, in ms."""
        queries = self.spec.queries
        latencies = []
        for _ in range(statements):
            sql = queries[self.submitted % len(queries)]
            self.submitted += 1
            start = time.perf_counter()
            handle = self.front_door.execute(self.session, sql)
            latencies.append((time.perf_counter() - start) * 1e3)
            # Untimed: free the slot and the YARN container, so every
            # statement meets the same cluster.
            handle.stop()
        return latencies

    def close(self) -> None:
        self.env.close()


def _inputs(spec: Spec, seed: int, seconds: float):
    """The relation and, for every round alike, the warm-up, backlog and
    offered events: each round replays them into a fresh deployment.  The
    warm-up directly precedes the backlog in rowtime, so the window holds
    five minutes of rows when the drain starts."""
    source = OrdersSource(seed, spec.products, spec.zipf, spec.spacing_ms)
    products, relation = (products_changelog(seed, spec.products)
                          if spec.relation else (None, None))
    backlog, segment = round_sizes(spec.catchup_rate, spec.rate, seconds)
    warmup = source.take(spec.warmup) if spec.warmup else None
    inputs = (warmup, source.take(backlog), source.take(segment))
    return products, relation, [inputs] * ROUNDS


def run(name: str, seed: int, seconds: float, tracer=None) -> dict:
    """One run; returns the end-to-end figures and check counts."""
    spec = SPECS[name]
    products, relation, rounds = _inputs(spec, seed, seconds)
    return measure(
        lambda warmup: StreamDeployment(spec, warmup, relation, products),
        rounds, tracer=tracer)
