"""SamzaSQL benchmark: run one workload once and check its outputs.

    python3 perfbench/run.py --workload stateless --seed 1 --seconds 14 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: ``stateless``, ``window``, ``join`` (streams.py) and
``tenants`` (tenants.py); BENCHMARK.json lists all but ``join``.
README.md in this directory says why each exists and what each metric
should respond to.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
traced run instead and prints the per-layer metrics, writing its spans to
``perfbench/out/trace-<workload>.spans`` (raw int64 rows) and ``.json``
(field names, span names, counts).  Each metric is printed on its own line
as ``name = value unit``; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The workloads BENCHMARK.json names.
WORKLOADS = ("stateless", "window", "tenants")
#: Runs like the others but is not in BENCHMARK.json: its catch-up rate
#: swings more than any bound allows (README.md, "Steadiness").
UNLISTED = ("join",)

#: End-to-end metrics, with units; every run prints all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("catchup_msgs_per_s", "msgs/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("stmt_p50_ms", "ms"),
    ("stmt_p99_ms", "ms"),
    ("failed_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)
#: The ones the JSON result carries and BENCHMARK.json gates: those whose
#: quartile distance over ten runs stays within their bound on every
#: listed workload.  The latency figures spread wider (README.md,
#: "Steadiness"); ``failed_frac`` is 0 on a correct run and travels as
#: ``failed``/``attempted``.
GATED = ("setup_s", "catchup_msgs_per_s", "peak_rss_mb")
#: What an infinite latency (an output never emitted) is printed as.
NEVER_MS = 1e9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + UNLISTED)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import pacing
    import streams
    import tenants
    import spans

    tracer = spans.Tracer() if args.trace else None
    if args.workload == "tenants":
        figures = tenants.run(args.seed, args.seconds, tracer)
    else:
        figures = streams.run(args.workload, args.seed, args.seconds, tracer)
    expected, failed = figures["expected"], figures["failed"]
    figures["failed_frac"] = failed / expected if expected else 1.0

    print(f"workload = {args.workload}, seed = {args.seed}, "
          f"seconds = {args.seconds:g}, trace = {args.trace}")
    print(f"clock = {pacing.CLOCK}")
    print(f"host speed = {figures['host_speed']:.4g} (median of the drain "
          f"windows; the timed figures are in reference seconds, see "
          f"hostspeed.py); unscaled: setup_s = {figures['setup_wall_s']:.6g} "
          f"s, catchup_msgs_per_s = "
          f"{figures['catchup_wall_msgs_per_s']:.6g} msgs/s per wall second")
    print(f"resident before set-up (interpreter, program, inputs) = "
          f"{figures['base_rss_mb']:.1f} MB")
    print(f"latency samples = {figures['latency_samples']}, "
          f"statements = {figures['statements']}, "
          f"expected outputs = {expected}, failed = {failed}")
    if tracer is None:
        metrics = {name: (figures[name], unit) for name, unit in END_TO_END}
    else:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}")
        metrics = spans.layer_metrics(tracer, figures,
                                      figures["poll_batch_size"])
        print(f"spans = {len(tracer.spans) // spans.WIDTH}, written to "
              f"{out / ('trace-' + args.workload)}.spans")
    result = {}
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            value = NEVER_MS
        print(f"{name} = {value:.6g} {unit}")
        if tracer is not None or name in GATED:
            result[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": max(expected, 1),
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
