"""The ``tenants`` workload: the multi-tenant front door in a closed loop.

Each round builds a fresh default environment sized for the admitted
load, registers ``TENANTS`` tenants and preloads a small shared Orders
input.  Then ``SESSIONS`` sessions per tenant each submit, in turn and
waiting for every reply, three statements: a streaming query (parse,
policy, admission, plan, codegen, ZooKeeper, YARN launch), a batch
``SELECT`` over the shared input, and a probe of ``retail.Products``.

* tenant 0 is over quota (one slot, no queue): its second and third
  streaming submissions draw ``QUOTA_EXCEEDED``;
* odd tenants may read only ``retail.Orders``: their Products probes
  draw ``SECURITY_VIOLATION`` before any planning happens;
* every other tenant runs two queries and queues its third.

After the statements every admitted query drains the shared input and a
backlog appended after it (the catch-up rate counts records summed over
the admitted jobs), then the generator offers events at ``RATE`` per
second to all of them at once.
This is the workload where per-job fixed costs -- a poll, a commit check
and a reporter tick per container per iteration, across dozens of jobs
-- dominate, and the per-message serde and state layers do little.
"""

from __future__ import annotations

import time

from repro.samzasql.environment import SamzaSqlEnvironment
from repro.serving import PendingQuery, PipelineError, TenantPolicy, TenantQuota
from repro.workloads.orders import padded_orders_schema
from repro.workloads.products import PRODUCTS_SCHEMA

import reference
from pacing import ROUNDS, Deployment, measure, round_sizes
from workloads import START_TS, OrdersSource, append, products_changelog

TENANTS = 24
SESSIONS = 3
PARTITIONS = 4
PRODUCTS = 20
SHARED_INPUT = 400
#: About the most events per second the seed drains into all admitted
#: jobs together; it sizes the backlog appended after the statements.
CATCHUP_RATE = 3_000
#: Open-loop offered rate, events per second; each event reaches every
#: admitted job.
RATE = 200

QUOTA = TenantQuota(max_concurrent_queries=2, max_queue_depth=2,
                    max_state_bytes=256 * 1024 * 1024)
HOG_QUOTA = TenantQuota(max_concurrent_queries=1, max_queue_depth=0)

STREAMING = (
    "SELECT STREAM rowtime, productId, units FROM Orders WHERE units > {units}",
    "SELECT STREAM rowtime, orderId FROM Orders",
    "SELECT STREAM rowtime, productId, units * 2 AS twice FROM Orders "
    "WHERE productId = {product}",
)
BATCH = (
    "SELECT productId, COUNT(*) AS c FROM Orders GROUP BY productId",
    "SELECT orderId, units FROM Orders WHERE units > {units}",
)
PROBE = "SELECT name FROM Products"


def tenant_name(i: int) -> str:
    return f"tenant-{i:03d}"


def expected_rejections() -> dict[str, int]:
    """Designed rejections per round."""
    return {"QUOTA_EXCEEDED": SESSIONS - HOG_QUOTA.max_concurrent_queries,
            "SECURITY_VIOLATION": (TENANTS // 2) * SESSIONS}


def expected_admission() -> tuple[int, int]:
    """(admitted, queued) streaming submissions per round."""
    per_tenant = QUOTA.max_concurrent_queries
    queued = min(SESSIONS - per_tenant, QUOTA.max_queue_depth)
    return (TENANTS - 1) * per_tenant + 1, (TENANTS - 1) * queued


def streaming_reference(template: int, session: int,
                        log: reference.EventLog) -> reference.Select:
    units, product = 30 + session % 50, session % PRODUCTS
    if template == 0:
        return reference.Select(
            log, lambda r: r["units"] > units,
            lambda r: {"rowtime": r["rowtime"], "productId": r["productId"],
                       "units": r["units"]})
    if template == 1:
        return reference.Select(
            log, lambda r: True,
            lambda r: {"rowtime": r["rowtime"], "orderId": r["orderId"]})
    return reference.Select(
        log, lambda r: r["productId"] == product,
        lambda r: {"rowtime": r["rowtime"], "productId": r["productId"],
                   "twice": r["units"] * 2})


def batch_reference(template: int, session: int, records: list) -> list:
    if template == 0:
        counts: dict[int, int] = {}
        for r in records:
            counts[r["productId"]] = counts.get(r["productId"], 0) + 1
        return [{"productId": p, "c": c} for p, c in counts.items()]
    units = 30 + session % 50
    return [{"orderId": r["orderId"], "units": r["units"]}
            for r in records if r["units"] > units]


def _same_rows(rows: list, expected: list) -> bool:
    def canon(items):
        return sorted(tuple(sorted(row.items())) for row in items)
    return canon(rows) == canon(expected)


class TenantsDeployment(Deployment):
    """One fresh environment and its closed-loop statements."""

    rate = RATE

    def __init__(self, shared, products: dict, relation: dict):
        start = time.perf_counter()
        admitted, _queued = expected_admission()
        self.env = env = SamzaSqlEnvironment(
            node_count=(admitted + 7) // 8 + 1)
        front_door = env.front_door(default_quota=QUOTA)
        catalog = front_door.catalog
        catalog.add_data_source("retail", "shared Kafka cluster")
        catalog.create("Orders", "retail", padded_orders_schema(),
                       kind="stream", partitions=PARTITIONS)
        table = catalog.create("Products", "retail", PRODUCTS_SCHEMA,
                               kind="table", key_field="productId",
                               partitions=PARTITIONS)
        mark = time.perf_counter()
        append(env.cluster, "Orders", shared.by_partition())
        append(env.cluster, table.topic, relation)
        generator_s = time.perf_counter() - mark
        for i in range(TENANTS):
            allowed = {"retail.*"} if i % 2 == 0 else {"retail.Orders"}
            front_door.register_tenant(
                tenant_name(i), TenantPolicy(tenant_name(i),
                                             frozenset(allowed)),
                quota=HOG_QUOTA if i == 0 else QUOTA)
        self.front_door = front_door
        self.latencies: list[float] = []
        self.rejections: dict[str, int] = {}
        #: (template, session number) of every running query.
        self.running: list[tuple[int, int]] = []
        self.handles = []
        self.pending = 0
        self._statements(list(shared), products)
        self.setup_s = time.perf_counter() - start - generator_s
        self.events = [shared]
        self.undrained = len(shared) * len(self.handles)
        self.start()

    def _submit(self, session, sql: str):
        start = time.perf_counter()
        try:
            return self.front_door.execute(session, sql)
        except PipelineError as exc:
            code = exc.code.value
            self.rejections[code] = self.rejections.get(code, 0) + 1
            return exc
        finally:
            self.latencies.append((time.perf_counter() - start) * 1e3)

    def _statements(self, records: list, products: dict) -> None:
        names = sorted(r["name"] for r in products.values())
        number = 0
        for t in range(TENANTS):
            for _s in range(SESSIONS):
                session = self.front_door.connect(tenant_name(t),
                                                  f"session-{number:04d}")
                template = number % len(STREAMING)
                sql = STREAMING[template].format(units=30 + number % 50,
                                                 product=number % PRODUCTS)
                result = self._submit(session, sql)
                if isinstance(result, PendingQuery):
                    self.pending += 1
                elif not isinstance(result, PipelineError):
                    self.handles.append(result)
                    self.running.append((template, number))
                batch = number % len(BATCH)
                rows = self._submit(session, BATCH[batch].format(
                    units=30 + number % 50))
                self.expected += 1
                if not (isinstance(rows, list) and _same_rows(
                        rows, batch_reference(batch, number, records))):
                    self.failed += 1
                rows = self._submit(session, PROBE)
                if t % 2 == 0:
                    self.expected += 1
                    if not (isinstance(rows, list)
                            and sorted(r["name"] for r in rows) == names):
                        self.failed += 1
                number += 1
        admitted, queued = expected_admission()
        designed = expected_rejections()
        self.expected += 3 + len(designed)
        self.failed += (len(self.running) != admitted) + (
            self.pending != queued)
        for code, count in designed.items():
            self.failed += self.rejections.get(code, 0) != count
        # Any other error code is a statement that failed by accident.
        self.failed += bool(set(self.rejections) - set(designed))

    def statements(self) -> list[float]:
        """The statements of this deployment's set-up (a round's mix)."""
        return self.latencies

    def references(self, log: reference.EventLog):
        for handle, (template, number) in zip(self.handles, self.running):
            index_of = (reference.by_key("orderId") if template == 1
                        else reference.by_rowtime(START_TS, 1))
            yield handle, streaming_reference(template, number, log), index_of

    def extra_figures(self) -> dict:
        admission = self.front_door.admission.stats
        return {"admission": {
            "admitted": admission.admitted, "queued": admission.queued,
            "rejected": sum(self.front_door.error_counts.values())}}


def run(seed: int, seconds: float, tracer=None) -> dict:
    """One run, a fresh deployment per round; returns the end-to-end
    figures and check counts."""
    source = OrdersSource(seed, PRODUCTS, partitions=PARTITIONS)
    products, relation = products_changelog(seed, PRODUCTS, suppliers=10,
                                            partitions=PARTITIONS)
    shared = source.take(SHARED_INPUT)
    backlog, segment = round_sizes(CATCHUP_RATE, RATE, seconds)
    # Every round replays the same inputs into a fresh deployment.
    rounds = [(shared, source.take(backlog), source.take(segment))] * ROUNDS
    return measure(
        lambda setup_input: TenantsDeployment(setup_input, products,
                                              relation),
        rounds, tracer=tracer)
