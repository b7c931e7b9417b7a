"""The benchmark's own tests: checker, span arithmetic, open-loop timing.

    python3 -m pytest perfbench/tests -q
"""

import json
import time
from pathlib import Path

import pytest

import hostspeed
import reference
import spans
from pacing import OutputTopics, Pacer, check_outputs, open_loop
from repro.samzasql.environment import SamzaSqlEnvironment
from repro.workloads.orders import padded_orders_schema
from streams import PROJECT
from workloads import START_TS, OrdersSource, append

ROOT = Path(__file__).resolve().parents[2]


def _check(expected, outputs, index_of, end):
    result = reference.Check(expected, index_of, end)
    for record in outputs:
        result.see(record)
    total, missing = result.finish()
    return total, missing, result.wrong


def test_checker_flags_one_corrupted_and_one_missing_output():
    log = reference.EventLog(
        [OrdersSource(seed=3, products=10, partitions=4).take(50)])
    expected = reference.project(log)
    outputs = [expected.get(i) for i in range(50)]
    outputs[7]["units"] += 1          # corrupted
    del outputs[20]                   # missing
    assert _check(expected, outputs, reference.by_rowtime(START_TS, 1),
                  log.end) == (50, 1, 1)


def test_checker_flags_duplicates_and_strangers():
    log = reference.EventLog(
        [OrdersSource(seed=3, products=10, partitions=4).take(5)])
    expected = reference.filter_units(log, threshold=-1)
    outputs = [expected.get(i) for i in range(5)]
    outputs += [outputs[0], {"orderId": 99}, {"no": "index"}]
    assert _check(expected, outputs, reference.by_key("orderId"),
                  log.end) == (5, 0, 3)


class _Rows:
    """Hand-written events with the slice interface the references read."""

    def __init__(self, rows):
        self.first = 0
        self.rows = rows

    def __len__(self):
        return len(self.rows)

    def record(self, k):
        rowtime, product, units = self.rows[k]
        return {"rowtime": rowtime, "productId": product, "orderId": k,
                "units": units}


def test_sliding_sum_reference_keeps_five_minutes_per_product():
    log = reference.EventLog([_Rows([(0, 1, 5), (100_000, 2, 7),
                                     (200_000, 1, 3), (300_000, 1, 2),
                                     (300_001, 1, 4)])])
    expected = reference.sliding_sum(log)
    sums = [expected.get(i)["unitsLastFiveMinutes"] for i in range(5)]
    # At 300_001 the row at 0 is older than five minutes; at 300_000 it
    # is exactly on the boundary and still counts.
    assert sums == [5, 7, 8, 10, 9]


def test_self_time_of_a_nested_span_tree():
    # root [0,100) holds a [10,40) and b [50,70); a holds c [20,30).
    rows = [(0, 0, 100, -1, 0), (1, 10, 40, 0, 0), (2, 20, 30, 1, 0),
            (3, 50, 70, 0, 0)]
    assert spans.self_times(rows) == [50, 20, 10, 20]
    # Overlapping children are counted once; a child reaching past its
    # parent only covers the parent's part.
    rows = [(0, 0, 100, -1, 0), (1, 10, 40, 0, 0), (1, 30, 60, 0, 0),
            (1, 90, 120, 0, 0)]
    assert spans.self_times(rows)[0] == 100 - 50 - 10


def test_tracer_records_nested_spans_and_restores_originals():
    from repro.samza.storage import (InMemoryKeyValueStore,
                                     SerializedKeyValueStore,
                                     WriteBehindKeyValueStore)
    from repro.serde.object_serde import ObjectSerde

    before = WriteBehindKeyValueStore.flush
    tracer = spans.Tracer()
    tracer.install()
    try:
        serde = ObjectSerde()
        store = WriteBehindKeyValueStore(
            SerializedKeyValueStore(InMemoryKeyValueStore(), serde, serde),
            serde)
        store.put("k", [1, 2])
        store.flush()
        assert store.get("k") == [1, 2]
    finally:
        tracer.uninstall()
    assert WriteBehindKeyValueStore.flush is before
    rows = list(tracer.rows())
    names = [tracer.names[row[0]] for row in rows]
    assert names.count("samza.store.flush") == 1
    flush = names.index("samza.store.flush")
    # The state serde ran inside the flush, as its children.
    children = [tracer.names[row[0]] for row in rows if row[3] == flush]
    assert children == ["serde.state", "serde.state"]
    assert tracer.calls["samza.store.get"] == 1
    assert tracer.counts["serde.state.bytes"] > 0


def _project_deployment():
    env = SamzaSqlEnvironment()
    env.shell.register_stream("Orders", padded_orders_schema(), partitions=4)
    handle = env.shell.execute(PROJECT)
    return env, handle


class _StallingPacer(Pacer):
    """Sleeps ``stall_s`` before its ``at``-th iteration."""

    def __init__(self, env, at: int, stall_s: float):
        super().__init__(env)
        self.countdown = at
        self.stall_s = stall_s

    def iterate(self) -> int:
        self.countdown -= 1
        if self.countdown == 0:
            time.sleep(self.stall_s)
        return super().iterate()


def _latencies(stall_s):
    env, handle = _project_deployment()
    events = OrdersSource(seed=5, products=10, partitions=4).take(600)
    outputs = OutputTopics(env.cluster, [handle.output_stream])
    pacer = _StallingPacer(env, at=20, stall_s=stall_s)
    loop = open_loop(pacer, "Orders", events, 1000.0, outputs, 1)
    log = reference.EventLog([events])
    total, failed, (latencies,) = check_outputs(
        env.cluster, outputs, handle, reference.project(log),
        reference.by_rowtime(START_TS, 1), log.end, [loop])
    env.close()
    assert (total, failed) == (600, 0)
    return loop, latencies


def test_a_stalled_iteration_delays_the_events_due_after_it():
    loop, plain = _latencies(stall_s=0.0)
    stalled_loop, stalled = _latencies(stall_s=0.3)
    assert len(plain) == len(stalled) == 600
    # Events due while the pacer was stalled were appended late and
    # count their wait from their due time.
    assert sum(1 for x in stalled if x > 100.0) >= 100
    assert max(stalled) >= 250.0
    assert sorted(stalled)[len(stalled) // 2] >= sorted(plain)[len(plain) // 2]
    assert max(stalled_loop.gen_lateness_ms()) >= 250.0


def test_a_timed_drain_is_scaled_by_the_host_speed(monkeypatch):
    env, _ = _project_deployment()
    events = OrdersSource(seed=5, products=10, partitions=4).take(2000)
    append(env.cluster, "Orders", events.by_partition())
    monkeypatch.setattr(hostspeed, "speed", lambda: 0.5)
    window = Pacer(env).drain(len(events), window_s=10.0)
    env.close()
    assert window.records == len(events)
    assert window.reference_s == pytest.approx(window.wall_s * 0.5)


def test_probes_stay_off_the_environment_clock_which_runs_at_their_speed(
        monkeypatch):
    env, _ = _project_deployment()
    pacer = Pacer(env)
    monkeypatch.setattr(hostspeed, "speed", lambda: time.sleep(0.3) or 0.5)
    before = env.clock.now_ms()
    pacer.probe()
    time.sleep(0.4)
    pacer.iterate()
    env.close()
    # 0.4 s of wall time at half speed; the probe's 0.3 s not at all.
    assert 180 <= env.clock.now_ms() - before < 300


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import run

    units = dict(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, units[name]) for name in run.GATED]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        spans.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert not set(run.UNLISTED) & set(run.WORKLOADS)


def test_runner_refuses_without_program_source(tmp_path, capsys):
    import run

    original = run.ROOT
    run.ROOT = tmp_path
    try:
        code = run.main(["--workload", "stateless", "--seed", "1",
                         "--seconds", "1"])
    finally:
        run.ROOT = original
    assert code != 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("zipf", [0.0, 1.0])
def test_inputs_depend_only_on_the_seed(zipf):
    a = OrdersSource(seed=9, products=50, zipf=zipf).take(200)
    b = OrdersSource(seed=9, products=50, zipf=zipf).take(200)
    assert a.values == b.values and a.partitions == b.partitions
    records = list(a)
    assert all(0 <= r["productId"] < 50 for r in records)
    assert all(v is not None for r in records for v in r.values())
    # The encoded value is the datum the references rebuild.
    assert [a.record(k) for k in (0, 199)] == OrdersSource(
        seed=9, products=50).serde.from_bytes_batch([a.values[0],
                                                     a.values[199]])
