"""Pace a SamzaSQL environment from one thread, and drive a whole run.

Clock choice: the environment keeps its default ``VirtualClock``, and the
pacer sets it to ``start + elapsed wall time`` before every iteration
(elapsed reference time within a timed drain window, see
:mod:`hostspeed`).
Under a virtual clock that nobody advances, the metrics reporter and the
interval timers never fire while draining; advancing it by wall time makes
them fire as they would in a deployment.  ``CLOCK`` names this choice in
every result, because it changes the numbers.

Observation stays out of the timed loop: after each iteration that
processed records the pacer copies only the end offsets of the output
partitions.  Outputs are decoded after the round and each one is dated
by the first iteration whose end offset covers it.

:func:`measure` is the run every workload shares: ``ROUNDS`` rounds of
set-up, catch-up drain, open loop, statements and output check, and the
figures.  A workload supplies only a :class:`Deployment` subclass
(its set-up, its statements and its references) and its inputs.
"""

from __future__ import annotations

import bisect
import gc
import math
import re
import statistics
import time
from typing import NamedTuple

from repro.kafka.message import TopicPartition

import hostspeed
import reference
from workloads import append


CLOCK = ("VirtualClock advanced to start + elapsed wall time before each "
         "iteration (reference time within timed drain windows)")

#: Give up waiting for a backlog after this long; what is left counts as
#: missing output.
DRAIN_TIMEOUT_S = 60.0
#: After the last event is due, wait at most this long for its output.
TAIL_TIMEOUT_S = 10.0

#: Rounds of a run, and of the traced run.
ROUNDS = 4
TRACED_ROUNDS = 3
#: The timed part of each catch-up drain: three metrics-reporter
#: intervals, so every window holds three ticks of every container's
#: reporter, and about three collection cycles of the heaviest workload.
DRAIN_WINDOW_S = 3.0
#: A timed window reads the host's speed this often.
PROBE_EVERY_S = 0.25
#: A backlog holds this many windows' worth of events at about the
#: fastest catch-up rate the seed reaches, so the window seldom runs dry;
#: the rest drains untimed.
BACKLOG_WINDOWS = 1.1
#: Every round sets up again, in fresh environments, while its set-ups
#: take under ``SETUP_SECONDS`` together (a cheap set-up is noisier, and
#: samples spread over the run see more of the host's phases), up to
#: ``MAX_SETUPS`` times.
MAX_SETUPS, SETUP_SECONDS = 50, 0.5


class Window(NamedTuple):
    """Records a drain processed in a timed window, the window's wall
    seconds and its reference seconds (:mod:`hostspeed`)."""

    records: int
    wall_s: float
    reference_s: float


class Pacer:
    """Runs ``env.runner`` iterations with the virtual clock on wall time
    (on reference time within a timed drain window)."""

    def __init__(self, env):
        self.env = env
        self.runner = env.runner
        self._clock = env.clock
        self._origin_ms = env.clock.now_ms()
        self._origin_s = time.perf_counter()
        #: Environment seconds per wall second.
        self._pace = 1.0
        #: Called after every iteration (the traced run samples lag here).
        self.after_iteration = None

    def _now_ms(self) -> float:
        return self._origin_ms + (
            (time.perf_counter() - self._origin_s) * self._pace * 1e3)

    def _set_pace(self, pace: float) -> None:
        """From now on, advance the clock ``pace`` seconds per second."""
        self._origin_ms = self._now_ms()
        self._origin_s = time.perf_counter()
        self._pace = pace

    def iterate(self) -> int:
        self._clock.set_time(int(self._now_ms()))
        processed = self.runner.run_iteration()
        if self.after_iteration is not None:
            self.after_iteration()
        return processed

    def probe(self) -> float:
        """The host's speed now (:func:`hostspeed.speed`).  The probe's
        time is kept off the environment's clock, which runs at that
        speed from then on: on reference time."""
        now_ms = self._now_ms()
        speed = hostspeed.speed()
        self._origin_ms, self._origin_s = now_ms, time.perf_counter()
        self._pace = speed
        return speed

    def drain(self, records: int, window_s: float = 0.0) -> Window:
        """Iterate until ``records`` task-level records were processed.

        Returns the records processed in the first ``window_s`` seconds,
        the wall seconds that window lasted and its reference seconds;
        with ``window_s`` 0, all of them and the time they took,
        unscaled.  A timed window stops every ``PROBE_EVERY_S`` to read
        the host's speed (untimed), and each stretch between two readings
        counts its wall time times their mean.  Within the window the
        environment's clock runs on reference time too, so its timers
        (the metrics reporters above all) fire as often per unit of work
        however fast the host runs.
        """
        perf = time.perf_counter
        deadline = perf() + DRAIN_TIMEOUT_S
        done = 0
        iterate = self.iterate
        if window_s:
            speed = self.probe()
            wall = reference = 0.0
            while done < records and wall < window_s:
                start = perf()
                while done < records and perf() - start < PROBE_EVERY_S:
                    done += iterate()
                stretch = perf() - start
                after = self.probe()
                wall += stretch
                reference += stretch * (speed + after) / 2
                speed = after
            self._set_pace(1.0)
            window = Window(done, wall, reference)
        start = perf()
        while done < records and perf() < deadline:
            done += iterate()
        if window_s:
            return window
        wall = perf() - start
        return Window(done, wall, wall)


def round_sizes(catchup_rate: float, rate: float,
                seconds: float) -> tuple[int, int]:
    """Events per round: a backlog of ``BACKLOG_WINDOWS`` drain windows
    at ``catchup_rate`` events per second (about the fastest the seed
    drains), and an open-loop segment at the offered ``rate`` that fills
    the rest of the round's share of ``seconds`` (at least half a
    second)."""
    backlog = int(catchup_rate * DRAIN_WINDOW_S * BACKLOG_WINDOWS)
    segment = int(rate * max(seconds / ROUNDS - DRAIN_WINDOW_S, 0.5))
    return backlog, segment


def poll_batch_size(env) -> int:
    """The records one container poll may return (the container's own
    default when the job leaves it unset)."""
    config = env.runner.masters()[0].job.config
    return config.get_int("task.poll.batch.size", 200)


class OutputTopics:
    """The output partitions whose end offsets the open loop records."""

    def __init__(self, cluster, topics: list[str]):
        self._columns: dict[tuple[str, int], int] = {}
        self._logs = []
        for topic in topics:
            for partition in range(cluster.topic(topic).partition_count):
                self._columns[(topic, partition)] = len(self._logs)
                self._logs.append(cluster.topic(topic).partition(partition))

    def ends(self) -> tuple:
        return tuple(log.end_offset for log in self._logs)

    def column(self, topic: str, partition: int) -> int:
        return self._columns[(topic, partition)]


class OpenLoopRun:
    """What one open-loop phase recorded, for offline analysis.

    ``due`` holds each event's due time and ``marks`` the (end time,
    output end offsets) of every iteration that processed records, both
    in seconds from the phase origin; ``produced`` holds ``(lo, hi, t)``
    for each generator burst that appended events ``[lo, hi)`` at ``t``.
    """

    def __init__(self, first_event: int, due: list, start_ends: tuple):
        self.first_event = first_event
        self.due = due
        self.start_ends = start_ends
        self.marks: list[tuple[float, tuple]] = []
        self.produced: list[tuple[int, int, float]] = []

    def append_times(self, column: int) -> list[float]:
        """Append time of each output offset of one column, from the
        phase's start offset to the end offset after its last iteration
        (index 0 is the start offset)."""
        start = self.start_ends[column]
        times: list[float] = []
        prev = start
        for t, ends in self.marks:
            off = ends[column]
            if off > prev:
                times.extend([t] * (off - prev))
                prev = off
        return times

    def latency_ms(self, index: int, column: int, offset: int,
                   cache: dict) -> float:
        """Latency of event ``index`` whose output sits at ``offset`` of
        ``column``: from its due time to the end of the iteration that
        appended it; infinite when no iteration of this phase did."""
        times = cache.get(column)
        if times is None:
            times = cache[column] = self.append_times(column)
        k = offset - self.start_ends[column]
        if 0 <= k < len(times):
            return (times[k] - self.due[index - self.first_event]) * 1e3
        return math.inf

    def gen_lateness_ms(self) -> list[float]:
        due = self.due
        return [(t - due[i]) * 1e3 for lo, hi, t in self.produced
                for i in range(lo, hi)]


def open_loop(pacer: Pacer, topic: str, events, rate: float,
              outputs: OutputTopics, records_per_event: int) -> OpenLoopRun:
    """Offer ``events`` at ``rate`` per second on a fixed schedule.

    Event ``i`` is due at ``i / rate`` seconds after the origin whatever
    the system does; every iteration first appends all events that are
    due, then runs once.  When nothing was processed and the next event
    is not due yet, the loop sleeps until it is, like a blocking poll.
    """
    cluster = pacer.env.cluster
    n = len(events)
    due = [i / rate for i in range(n)]
    run = OpenLoopRun(events.first, due, outputs.ends())
    expected_records = n * records_per_event
    partitions = events.partitions
    rowtime = events.rowtime
    keys, values = events.keys, events.values
    tps = {}
    iterate = pacer.iterate
    marks = run.marks
    ends = outputs.ends
    perf = time.perf_counter
    origin = perf()
    last_due = due[-1] if n else 0.0
    deadline = last_due + TAIL_TIMEOUT_S
    i = 0
    done = 0
    while done < expected_records:
        now = perf() - origin
        if i < n and due[i] <= now:
            j = i
            while j < n and due[j] <= now:
                j += 1
            groups: dict[int, list] = {}
            for k in range(i, j):
                group = groups.get(partitions[k])
                if group is None:
                    group = groups[partitions[k]] = []
                group.append((keys[k], values[k], rowtime(k)))
            for partition, batch in groups.items():
                tp = tps.get(partition)
                if tp is None:
                    tp = tps[partition] = TopicPartition(topic, partition)
                cluster.produce_batch(tp, batch)
            run.produced.append((i, j, now))
            i = j
        processed = iterate()
        if processed:
            done += processed
            marks.append((perf() - origin, ends()))
        elif i < n:
            wait = due[i] - (perf() - origin)
            if wait > 0:
                time.sleep(wait)
        if now > deadline:
            break
    return run


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of unsorted values."""
    if not values:
        return math.inf
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def check_outputs(cluster, outputs: OutputTopics, handle, expected, index_of,
                  end: int, loops: list) -> tuple[int, int, list]:
    """Check a query's whole output against its reference and date the
    outputs of every open-loop phase in ``loops``.

    Decodes one output partition at a time.  Returns the number of
    expected outputs, the failed ones (missing or wrong) and, per loop,
    the latency of every expected output of the events it offered
    (infinite for one that is missing or wrong).
    """
    result = reference.Check(expected, index_of, end)
    firsts = [loop.first_event for loop in loops]
    samples = [[] for _ in loops]
    caches = [{} for _ in loops]
    decode = handle.output_serde.from_bytes_batch
    for tp in cluster.partitions_for(handle.output_stream):
        messages = cluster.fetch(tp, cluster.earliest_offset(tp))
        column = outputs.column(handle.output_stream, tp.partition)
        for message, record in zip(messages,
                                   decode([m.value for m in messages])):
            index = result.see(record)
            if index is None:
                continue
            k = bisect.bisect_right(firsts, index) - 1
            if k >= 0 and index - firsts[k] < len(loops[k].due):
                samples[k].append(loops[k].latency_ms(
                    index, column, message.offset, caches[k]))
    for loop, latencies in zip(loops, samples):
        for index in range(loop.first_event, loop.first_event + len(loop.due)):
            if not result.matched(index) and expected.get(index) is not None:
                latencies.append(math.inf)
    total, missing = result.finish()
    return total, missing + result.wrong, samples


def reset_peak_rss() -> None:
    """Restart the process's resident high-water mark from its current
    resident size (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as out:
        out.write("5")


def _status_mb(field: str) -> float:
    """A memory figure of this process from ``/proc/self/status``, in MB."""
    with open("/proc/self/status") as status:
        match = re.search(rf"^{field}:\s+(\d+) kB", status.read(), re.M)
    return int(match.group(1)) / 1024


def rss_mb() -> float:
    """The process's resident size now, in MB."""
    return _status_mb("VmRSS")


def peak_rss_mb() -> float:
    """The resident high-water mark since :func:`reset_peak_rss`, in MB."""
    return _status_mb("VmHWM")


def median_rate(drains: list, seconds: str = "reference_s") -> float:
    """The median drain window's records per second (``drains`` holds
    :class:`Window` values), per reference second or, with ``seconds``
    ``"wall_s"``, per wall second: the median holds off a window a
    collection or a reporter tick slowed more than most."""
    return statistics.median(w.records / getattr(w, seconds) for w in drains)


class Deployment:
    """A set-up environment whose standing queries read ``Orders``.

    A workload's subclass builds ``env`` in its constructor, times that as
    ``setup_s`` and sets ``handles`` (the running queries), ``rate`` (the
    open-loop offered rate, events per second) and ``events`` (the input
    slices appended so far); it answers :meth:`statements` and
    :meth:`references`.  ``undrained`` counts task-level records appended
    during set-up that no iteration has consumed yet; ``expected`` and
    ``failed`` count the set-up's own checks and grow in :meth:`check`.
    """

    rate: float
    undrained = 0
    expected = 0
    failed = 0

    def start(self) -> None:
        """Finish set-up: pace the environment and watch the outputs."""
        self.pacer = Pacer(self.env)
        self.outputs = OutputTopics(
            self.env.cluster, [h.output_stream for h in self.handles])
        self.loops: list[OpenLoopRun] = []

    def drain(self, events) -> Window:
        """Append ``events`` as a backlog and drain it with everything
        set-up left; returns its first ``DRAIN_WINDOW_S`` seconds as a
        :class:`Window` of task-level records."""
        append(self.env.cluster, "Orders", events.by_partition())
        self.events.append(events)
        records = self.undrained + len(events) * len(self.handles)
        self.undrained = 0
        return self.pacer.drain(records, DRAIN_WINDOW_S)

    def offer(self, events) -> None:
        self.events.append(events)
        self.loops.append(open_loop(self.pacer, "Orders", events, self.rate,
                                    self.outputs, len(self.handles)))

    def statements(self) -> list[float]:
        """Latencies of one batch of front-door statements, in ms."""
        raise NotImplementedError

    def references(self, log: reference.EventLog):
        """``(handle, expected, index_of)`` for every running query."""
        raise NotImplementedError

    def check(self) -> list[float]:
        """Check every output; returns the open-loop latencies."""
        log = reference.EventLog(self.events)
        latencies: list[float] = []
        for handle, expected, index_of in self.references(log):
            total, failed, samples = check_outputs(
                self.env.cluster, self.outputs, handle, expected, index_of,
                log.end, self.loops)
            self.expected += total
            self.failed += failed
            for segment in samples:
                latencies.extend(segment)
        return latencies

    def containers(self) -> list:
        return [container for master in self.env.runner.masters()
                for container in master.samza_containers.values()]

    def extra_figures(self) -> dict:
        return {}

    def close(self) -> None:
        self.env.close()


def _set_up(deploy, durations: list, walls: list,
            repeat: bool) -> Deployment:
    """Set up a fresh deployment, or several while ``SETUP_SECONDS``
    allows when ``repeat``; keep the last one.  Each set-up's wall time
    goes to ``walls`` and, times the mean host speed read just before and
    after it, to ``durations``.  Every set-up starts like a fresh
    process: the resident high-water mark restarts, and a discarded
    deployment's garbage is collected, untimed, before the next set-up
    (the caller collects before the first)."""
    deployment = None
    spent = 0.0
    for _ in range(MAX_SETUPS if repeat else 1):
        if deployment is not None:
            if spent >= SETUP_SECONDS:
                break
            deployment.close()
            deployment = None
            gc.collect()
        reset_peak_rss()
        before = hostspeed.speed()
        deployment = deploy()
        after = hostspeed.speed()
        walls.append(deployment.setup_s)
        durations.append(deployment.setup_s * (before + after) / 2)
        spent += deployment.setup_s
    return deployment


def _account(deployment: Deployment, figures: dict) -> None:
    """Add a checked round's counts to ``figures``."""
    containers = deployment.containers()
    figures["expected"] += deployment.expected
    figures["failed"] += deployment.failed
    figures["retries"] += sum(c.retry_count for c in containers)
    figures["state_rows"] = sum(len(store) for c in containers
                                for task in c.tasks.values()
                                for store in task.stores.values())
    figures["poll_batch_size"] = poll_batch_size(deployment.env)
    figures.update(deployment.extra_figures())


def measure(deploy, rounds: list, tracer=None) -> dict:
    """One run: the rounds, each checked as it ends, and the figures.

    ``rounds`` holds a (set-up input, backlog, offered events) triple per
    round; ``deploy(set-up input)`` sets up a fresh :class:`Deployment`.
    Every round sets up its own deployment (again while ``SETUP_SECONDS``
    allows), drains its backlog timing the first
    ``DRAIN_WINDOW_S``, offers its events at the deployment's rate, makes
    one batch of statements, and is checked and closed.  A fresh
    deployment per round keeps every round's heap the same size: the
    in-process broker retains every message, so one deployment kept for
    the whole run makes each full collection longer than the last.

    Nothing is collected between set-up and the end of the round, so the
    program's collections fall in the windows and segments that cause
    them.  The inputs are frozen out of the collector's reach
    (``gc.freeze``), since a real deployment keeps them in its brokers.
    ``peak_rss_mb`` is the highest resident high-water mark of a round,
    from its set-up to the end of its statements (before its outputs are
    decoded and checked), less ``base_rss_mb``: the resident size once
    the inputs are generated (the interpreter, the program's modules and
    the inputs).

    With a ``tracer`` the run first drains the first round's backlog
    untraced, in a deployment of its own (the base of
    ``bench.trace_overhead_frac``), then runs
    ``TRACED_ROUNDS`` rounds with the tracer installed from set-up to the
    end of the statements; ``wall_ns`` is the time it was installed.
    """
    gc.freeze()
    base_mb = rss_mb()
    untraced = []
    if tracer is not None:
        base = deploy(rounds[0][0])
        untraced = [base.drain(rounds[0][1])]
        base.close()
        del base
        rounds = rounds[:TRACED_ROUNDS]
    setups: list[float] = []
    setup_walls: list[float] = []
    drains, batches, latencies, lateness = [], [], [], []
    figures = {"expected": 0, "failed": 0, "retries": 0, "wall_ns": 0,
               "peak_rss_mb": 0.0, "base_rss_mb": base_mb}
    for setup_input, backlog, offered in rounds:
        # Untimed: the previous round's closed deployment.
        gc.collect()
        if tracer is not None:
            tracer.install()
        traced_from = time.perf_counter_ns()
        try:
            deployment = _set_up(lambda: deploy(setup_input), setups,
                                 setup_walls, repeat=tracer is None)
            if tracer is not None:
                deployment.pacer.after_iteration = tracer.iteration_hook(
                    deployment.env)
            drains.append(deployment.drain(backlog))
            deployment.offer(offered)
            batches.append(deployment.statements())
        finally:
            figures["wall_ns"] += time.perf_counter_ns() - traced_from
            if tracer is not None:
                tracer.uninstall()
        figures["peak_rss_mb"] = max(figures["peak_rss_mb"],
                                     peak_rss_mb() - base_mb)
        latencies.extend(deployment.check())
        lateness.extend(late for loop in deployment.loops
                        for late in loop.gen_lateness_ms())
        _account(deployment, figures)
        deployment.close()
        # Nothing may keep the closed deployment alive into the next round.
        del deployment
    statements = [latency for batch in batches for latency in batch]
    figures.update({
        "setup_s": statistics.median(setups),
        "catchup_msgs_per_s": median_rate(drains),
        "setup_wall_s": statistics.median(setup_walls),
        "catchup_wall_msgs_per_s": median_rate(drains, "wall_s"),
        "host_speed": statistics.median(
            w.reference_s / w.wall_s for w in drains),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "stmt_p50_ms": percentile(statements, 50),
        "stmt_p99_ms": percentile(statements, 99),
        "latency_samples": len(latencies),
        "statements": len(statements),
        "gen_late_p99_ms": percentile(lateness, 99),
        "untraced_catchup_msgs_per_s": (
            median_rate(untraced) if untraced else None),
    })
    return figures
