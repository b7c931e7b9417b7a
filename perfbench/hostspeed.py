"""How fast the host runs Python right now, read from a fixed probe.

The benchmark shares a few cores of a busy host.  Neighbours slow it,
at times to half its speed or below, for stretches of a second to
minutes, and the program slows with them.  A run cannot outlast such a stretch, and medians within a
run do not remove it.  So the timed figures (``setup_s``,
``catchup_msgs_per_s``) are taken in *reference seconds*.

A fixed piece of pure-Python work (the probe) runs just before and just
after each set-up, and between the quarter-second chunks of a drain
window.  The host speed a probe reads is the probe's reference duration
over its measured duration.  Each timed stretch counts its wall seconds
times the mean of the two speeds read around it, so a stretch run while
the host was at half speed counts half its wall time.  Half the probe is
a record loop over a few kilobytes; the other half reads scattered bytes
from a 4 MB block in the shared cache, because the program's large heaps
slow more than the record loop alone when neighbours contend for that
cache.

The probe shares no code or data with the program and creates no object
the cyclic collector tracks, so it never triggers or pays for one of the
program's collections.  A program change therefore moves the figures as
it moves wall time, while the host's drift largely cancels.  Every run
prints the median host speed it read next to the unscaled wall-time
figures.
"""

from __future__ import annotations

import random
import time

#: The probe's duration at speed 1.0, a round figure.  On a shared
#: 2.1 GHz Xeon vCPU under CPython 3.11 the probe takes 5-8 ms, so runs
#: read speeds of about 0.45-0.65.  Any fixed value would do, since a
#: change is judged against its parent on the same probe.
REFERENCE_S = 0.0035

_DATA = bytes(range(256)) * 4
_KEYS = tuple(f"field{i}" for i in range(64))
_TABLE = dict.fromkeys(_KEYS, 0)
_PASSES = 12
#: A block larger than a core's private caches but well within the
#: shared one.  Every page is written at import, so it is resident before
#: the run measures its own memory.
_BLOCK = bytearray(4 << 20)
for _page in range(0, len(_BLOCK), 4096):
    _BLOCK[_page] = 1
_READS = tuple(random.Random(1).randrange(len(_BLOCK)) for _ in range(8000))
_READ_PASSES = 6


def _work() -> int:
    """Interpreter-bound work shaped like a record loop (byte reads,
    integer arithmetic, string-keyed dict updates over a few kilobytes),
    then scattered reads from ``_BLOCK``; about half the time each."""
    data, keys, table = _DATA, _KEYS, _TABLE
    acc = 0
    for _ in range(_PASSES):
        for byte in data:
            acc = (acc * 31 + (byte & 0x7F)) & 0xFFFFFF
            key = keys[byte & 63]
            table[key] = (table[key] + acc) & 0xFFFF
    block = _BLOCK
    for _ in range(_READ_PASSES):
        for index in _READS:
            acc = (acc * 31 + block[index]) & 0xFFFFFF
    return acc


def speed() -> float:
    """The host's speed now, relative to the reference (1.0 when the
    probe takes ``REFERENCE_S``)."""
    # Untimed: bring the block back into the shared cache (one C-speed
    # scan), so the reads time the host's contention for that cache and
    # not how much of it the program's work just evicted.
    _BLOCK.find(b"\x02")
    start = time.perf_counter()
    _work()
    return REFERENCE_S / (time.perf_counter() - start)

