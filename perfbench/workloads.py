"""Seeded input generation for the benchmark workloads.

Every input the system under test sees is generated here from the run's
seed and encoded to Avro bytes *before* any timed phase, so the program
only receives pre-encoded records.  Events are numbered globally across a
run's phases (warm-up, catch-up backlogs, open-loop load): event ``i`` has
``orderId = i`` and ``rowtime = start_ts + i * spacing_ms``, which makes
both fields unique and lets outputs be matched back to their input.

No generated field is ever NULL: a NULL under a comparison currently
crashes the task, so a nullable workload waits for three-valued logic.
"""

from __future__ import annotations

import bisect
import itertools
import random
import string
from array import array

from repro.kafka.message import TopicPartition
from repro.kafka.producer import hash_partitioner
from repro.serde.avro import AvroSerde
from repro.workloads.orders import padded_orders_schema
from repro.workloads.products import PRODUCTS_SCHEMA

PARTITIONS = 32
START_TS = 1_000_000
#: Target size of one encoded Orders record (§5.1 of the paper).
MESSAGE_BYTES = 100


class Events:
    """A contiguous slice of generated events, kept compact.

    ``first`` is the global index of the first event.  What the generator
    appends to Kafka is held as lists (``partitions``, ``keys``,
    ``values``); the decoded datums the references need are rebuilt on
    demand by :meth:`record` from small integer columns, so a run's
    inputs cost little more than their encoded bytes.
    """

    __slots__ = ("first", "spacing_ms", "products", "units", "pads", "pool",
                 "pad", "partitions", "keys", "values")

    def __init__(self, first: int, spacing_ms: int, pool: str, pad: int):
        self.first = first
        self.spacing_ms = spacing_ms
        self.pool = pool
        self.pad = pad
        self.products = array("i")
        self.units = array("b")
        self.pads = array("i")
        self.partitions = array("b")
        self.keys: list[bytes] = []
        self.values: list[bytes] = []

    def __len__(self) -> int:
        return len(self.products)

    def rowtime(self, k: int) -> int:
        return START_TS + (self.first + k) * self.spacing_ms

    def record(self, k: int) -> dict:
        """The datum of the slice's ``k``-th event."""
        index = self.first + k
        start = self.pads[k]
        return {"rowtime": START_TS + index * self.spacing_ms,
                "productId": self.products[k], "orderId": index,
                "units": self.units[k],
                "padding": self.pool[start:start + self.pad]}

    def __iter__(self):
        return (self.record(k) for k in range(len(self)))

    def by_partition(self) -> dict:
        """``{partition: [(key, value, rowtime), ...]}``, in event order."""
        groups: dict[int, list] = {}
        for k, (partition, key, value) in enumerate(
                zip(self.partitions, self.keys, self.values)):
            groups.setdefault(partition, []).append(
                (key, value, self.rowtime(k)))
        return groups


class OrdersSource:
    """Seeded, padded Orders events with uniform or Zipf ``productId``.

    ``zipf == 0`` draws ``productId`` uniformly from ``products``;
    otherwise product rank ``k`` (1-based) has weight ``k ** -zipf`` and
    ranks map to ids through a seeded shuffle, so the hot products land on
    arbitrary partitions.
    """

    #: Events encoded per batch (bounds the transient datum list).
    CHUNK = 8192

    def __init__(self, seed: int, products: int, zipf: float = 0.0,
                 spacing_ms: int = 1, partitions: int = PARTITIONS):
        self.rng = random.Random(seed)
        self.products = products
        self.spacing_ms = spacing_ms
        self.partition_count = partitions
        self.schema = padded_orders_schema()
        self.serde = AvroSerde(self.schema)
        self._next = 0
        self._pool = "".join(self.rng.choices(string.ascii_letters, k=1 << 16))
        probe = {"rowtime": START_TS, "productId": products - 1,
                 "orderId": 10**7, "units": 99, "padding": ""}
        self._pad = max(MESSAGE_BYTES - len(self.serde.to_bytes(probe)), 0)
        self._cum = None
        if zipf > 0:
            ids = list(range(products))
            self.rng.shuffle(ids)
            self._ids = ids
            self._cum = list(itertools.accumulate(
                (k ** -zipf for k in range(1, products + 1))))
        self._key_route: dict[int, tuple[bytes, int]] = {}

    def _product(self) -> int:
        if self._cum is None:
            return self.rng.randrange(self.products)
        r = self.rng.random() * self._cum[-1]
        return self._ids[bisect.bisect_left(self._cum, r)]

    def take(self, count: int) -> Events:
        """The next ``count`` events, encoded and routed."""
        events = Events(self._next, self.spacing_ms, self._pool, self._pad)
        self._next += count
        rng, routes = self.rng, self._key_route
        limit = len(self._pool) - self._pad
        for _ in range(count):
            product = self._product()
            events.products.append(product)
            events.units.append(rng.randrange(100))
            events.pads.append(rng.randrange(limit))
            route = routes.get(product)
            if route is None:
                key = str(product).encode()
                route = routes[product] = (
                    key, hash_partitioner(key, self.partition_count))
            events.keys.append(route[0])
            events.partitions.append(route[1])
        for lo in range(0, count, self.CHUNK):
            events.values.extend(self.serde.to_bytes_batch(
                [events.record(k) for k in range(lo, min(lo + self.CHUNK,
                                                          count))]))
        return events


def products_changelog(seed: int, products: int, suppliers: int = 1000,
                       partitions: int = PARTITIONS) -> tuple[dict, dict]:
    """The Products relation as a changelog: ``(rows, by_partition)``.

    ``rows`` maps productId to its row (the reference's lookup table);
    ``by_partition`` is ready for :func:`append`.
    """
    rng = random.Random(seed ^ 0x5EED)
    serde = AvroSerde(PRODUCTS_SCHEMA)
    rows = {pid: {"productId": pid, "name": f"product-{pid}",
                  "supplierId": rng.randrange(suppliers)}
            for pid in range(products)}
    values = serde.to_bytes_batch(list(rows.values()))
    groups: dict[int, list] = {}
    for (pid, _row), value in zip(rows.items(), values):
        key = str(pid).encode()
        groups.setdefault(hash_partitioner(key, partitions), []).append(
            (key, value, START_TS))
    return rows, groups


def append(cluster, topic: str, groups: dict) -> int:
    """Append pre-encoded ``{partition: [(key, value, ts)]}`` to a topic."""
    written = 0
    for partition, records in groups.items():
        cluster.produce_batch(TopicPartition(topic, partition), records)
        written += len(records)
    return written
