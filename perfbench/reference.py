"""Pure-Python references for every standing query the benchmark runs.

A stream is a time-varying relation: over a finite history, a streaming
query's output must equal the relational answer over the same rows.  A
reference maps an input event number to the one output record that event
must produce, or to None when the query drops it; the checker matches
the system's outputs to it record by record.  References compute each
expected record on demand, so a check holds one partition of decoded
output at a time, not the whole expected relation.
"""

from __future__ import annotations

import bisect
from collections import deque

FIVE_MINUTES_MS = 5 * 60 * 1000


class EventLog:
    """The events one deployment received, by global event number."""

    def __init__(self, slices: list):
        self.slices = sorted(slices, key=lambda e: e.first)
        self._firsts = [e.first for e in self.slices]
        self.end = max((e.first + len(e) for e in self.slices), default=0)

    def record(self, index: int) -> dict | None:
        at = bisect.bisect_right(self._firsts, index) - 1
        if at < 0:
            return None
        events = self.slices[at]
        k = index - events.first
        return events.record(k) if k < len(events) else None

    def __iter__(self):
        """``(index, record)`` of every event, in event order."""
        for events in self.slices:
            for k in range(len(events)):
                yield events.first + k, events.record(k)


class Select:
    """``SELECT STREAM columns(r) FROM Orders WHERE where(r)``."""

    def __init__(self, log: EventLog, where, columns):
        self.log = log
        self.where = where
        self.columns = columns

    def get(self, index: int) -> dict | None:
        record = self.log.record(index)
        if record is None or not self.where(record):
            return None
        return self.columns(record)

    def indexes(self):
        """Every event number that must produce an output."""
        return (index for index, record in self.log if self.where(record))


def filter_units(log: EventLog, threshold: int = 50) -> Select:
    """``SELECT STREAM * FROM Orders WHERE units > threshold``."""
    return Select(log, lambda r: r["units"] > threshold, dict)


def project(log: EventLog) -> Select:
    """``SELECT STREAM rowtime, productId, units FROM Orders``."""
    return Select(log, lambda r: True,
                  lambda r: {"rowtime": r["rowtime"],
                             "productId": r["productId"],
                             "units": r["units"]})


def relation_join(log: EventLog, products: dict) -> Select:
    """``Orders JOIN Products ON productId``, inner: an order whose
    product is absent produces nothing."""
    return Select(log, lambda r: r["productId"] in products,
                  lambda r: {"rowtime": r["rowtime"], "orderId": r["orderId"],
                             "productId": r["productId"], "units": r["units"],
                             "supplierId": products[r["productId"]][
                                 "supplierId"]})


def sliding_sum(log: EventLog, range_ms: int = FIVE_MINUTES_MS) -> Select:
    """``SUM(units) OVER (PARTITION BY productId ORDER BY rowtime RANGE
    range_ms PRECEDING)``: the window holds the rows of the same product
    whose rowtime is at least ``rowtime - range_ms``, the current row
    included.  Events arrive in rowtime order."""
    windows: dict[int, deque] = {}
    totals: dict[int, int] = {}
    sums: dict[int, int] = {}
    for index, r in log:
        pid, ts = r["productId"], r["rowtime"]
        window = windows.get(pid)
        if window is None:
            window = windows[pid] = deque()
            totals[pid] = 0
        cutoff = ts - range_ms
        while window and window[0][0] < cutoff:
            totals[pid] -= window.popleft()[1]
        window.append((ts, r["units"]))
        totals[pid] += r["units"]
        sums[index] = totals[pid]
    return Select(log, lambda r: True,
                  lambda r: {"rowtime": r["rowtime"],
                             "productId": r["productId"], "units": r["units"],
                             "unitsLastFiveMinutes": sums[r["orderId"]]})


def by_key(field: str):
    """An ``index_of`` for outputs that carry the event number in a field."""
    def index_of(record: dict) -> int:
        return record[field]
    return index_of


def by_rowtime(start_ts: int, spacing_ms: int):
    """An ``index_of`` for outputs that carry the event's rowtime."""
    def index_of(record: dict) -> int:
        return (record["rowtime"] - start_ts) // spacing_ms
    return index_of


WRONG, MATCHED = 1, 2


class Check:
    """Matches one query's outputs, fed in any order, to its reference.

    An output is wrong when it belongs to no expected event, repeats an
    event already seen, or differs from the reference in any field; an
    expected event that no output belongs to is missing.
    """

    def __init__(self, expected, index_of, end: int):
        self.expected = expected
        self.index_of = index_of
        self.wrong = 0
        #: Per event number: 0 unseen, WRONG, or MATCHED.
        self.state = bytearray(end)

    def see(self, record: dict) -> int | None:
        """Account one output; returns its event number if it matched."""
        try:
            index = self.index_of(record)
        except (KeyError, TypeError):
            self.wrong += 1
            return None
        if not 0 <= index < len(self.state) or self.state[index]:
            self.wrong += 1
            return None
        if self.expected.get(index) == record:
            self.state[index] = MATCHED
            return index
        self.state[index] = WRONG
        self.wrong += 1
        return None

    def finish(self) -> tuple[int, int]:
        """``(expected outputs, missing outputs)``."""
        expected = missing = 0
        for index in self.expected.indexes():
            expected += 1
            missing += not self.state[index]
        return expected, missing

    def matched(self, index: int) -> bool:
        return self.state[index] == MATCHED
