"""Run one benchmark workload and print every metric with its unit.

    python3 perfbench/run.py --workload locality_full --seed 1 --seconds 30 --trace 0

Prints a table of the metrics, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json,
measured untraced; with ``--trace 1`` they are the ``per_layer`` ones,
from runs with the layer wrappers of ``tracer.py`` installed.

The program is imported from ``src/`` beside this directory; the command
exits with code 2 when it is missing.  ``--record`` rewrites
``expected.json`` from one untraced run of every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Per-layer metrics that must read the same on every traced repetition.
RATIOS_OF_COUNTS = ("sched.hit_ratio", "cache.hit_ratio")


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--probe-setup", metavar="WORKLOAD")
    return parser.parse_args(argv)


def _metric_units(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _header(args, workloads) -> None:
    print(
        f"perfbench workload={args.workload} trace={args.trace} "
        f"seconds={args.seconds:g} seed={args.seed} (recorded only: the paper "
        f"cells draw no random input)"
    )
    print(
        f"host nproc={os.cpu_count()} python={platform.python_version()} "
        f"sweep_workers={workloads.workers()} benchmark_processes=1"
    )


def _print_rows(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<24} {value:>16.6g} {unit:<6} {note}")


def _outcome_lines(outcome) -> None:
    print(
        f"  {'failed_share':<24} {outcome.failed_share:>16.6g} {'ratio':<6} "
        f"{outcome.failed} failed of {outcome.attempted} operations"
    )
    for problem in outcome.problems[:5]:
        print(f"  FAILED {problem}")


def measure(args, workloads, workload, expected, work, outcome) -> dict:
    units = _metric_units("end_to_end")
    probes = workloads.probe_setup(args.workload)
    samples = workload.measure(args.seconds, expected, work, outcome)
    samples.values["setup_s"] = [workloads.host_scaled(*probe) for probe in probes]
    samples.values["unscaled_setup_s"] = [seconds for seconds, _ in probes]
    if samples.count("wall_s") == 0:
        raise SystemExit("no operation completed; nothing to report")
    rows, metrics = [], {}
    for name, unit in units.items():
        value = samples.median(name)
        n = samples.count(name)
        rows.append((name, value, unit, f"median of {n}" if n > 1 else "1 sample"))
        metrics[name] = {"value": value, "unit": unit}
    _print_rows(rows)
    # Measured and checked on every run, but too unsteady on a shared host
    # to gate on: see README.md.
    _print_rows(
        (name, samples.median(name), "s", f"median of {samples.count(name)}, not gated")
        for name in samples.values
        if name not in units
    )
    _outcome_lines(outcome)
    return metrics


def trace(args, workloads, workload, expected, work, outcome) -> dict:
    units = _metric_units("per_layer")
    repeats: list[dict] = []
    last: list = []

    def op() -> None:
        try:
            layer_values, tracer = workload.trace(expected, work, outcome)
        except Exception as error:  # counted, the run goes on
            outcome.error("traced repetition", error)
            return
        repeats.append(layer_values)
        last[:] = [tracer]

    workloads.repeat_for(args.seconds, op)
    if not repeats:
        raise SystemExit("no traced repetition completed; nothing to report")
    exact = [n for n, unit in units.items() if unit == "count"] + list(RATIOS_OF_COUNTS)
    for name in exact:
        seen = sorted({values[name] for values in repeats})
        outcome.check(len(seen) == 1, f"{name} differs between traced runs: {seen}")
    merged = {
        name: statistics.median(values[name] for values in repeats)
        for name in repeats[0]
    }
    tracer = last[0]
    rows, metrics = [], {}
    for name, unit in units.items():
        note = f"median of {len(repeats)}" if unit != "count" else ""
        rows.append((name, merged[name], unit, note))
        metrics[name] = {"value": merged[name], "unit": unit}
    _print_rows(rows)
    _print_rows(
        [
            ("pool.run_s", merged["pool.run_s"], "s", "pool.run inclusive"),
            ("pool.spawn_s", merged["pool.spawn_s"], "s", "pool.spawn inclusive"),
        ]
    )
    print(
        f"  ratios: sched.hit_ratio {merged['sched.hit_ratio']:.4f} of "
        f"{merged['sched.selects']:.0f} selects; cache.hit_ratio "
        f"{merged['cache.hit_ratio']:.4f} of {merged['cache.gets']:.0f} gets; "
        f"pool.efficiency {merged['pool.efficiency']:.4f} over "
        f"{merged['pool.items']:.0f} items on {merged['pool.workers']:.0f} workers"
    )
    ranking = sorted(
        ((tracer.layer_self(layer), layer) for layer in tracer.layers()),
        reverse=True,
    )
    print(
        "  self time by layer (last traced run): "
        + ", ".join(f"{layer} {seconds:.3f}s" for seconds, layer in ranking)
    )
    spans = work / "spans.txt"
    count = tracer.write_spans(spans)
    print(f"  {count} spans written to {spans.relative_to(ROOT)}")
    if tracer.missing:
        print(f"  entry points not found (metrics read 0): {', '.join(tracer.missing)}")
    _outcome_lines(outcome)
    return metrics


def main(argv=None) -> int:
    args = _arguments(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(work_root)
    import workloads

    if args.probe_setup:
        _, seconds, calibration = workloads.calibrated(
            lambda: workloads.setup_probe(args.probe_setup)
        )
        print(seconds, calibration)
        return 0
    if args.record:
        expected = {name: w.observe() for name, w in workloads.WORKLOADS.items()}
        workloads.EXPECTED_PATH.write_text(
            json.dumps(expected, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(json.dumps(expected, indent=2, sort_keys=True))
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: --workload must be one of {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = workloads.WORKLOADS[args.workload]
    expected = workloads.load_expected()[args.workload]
    work = workloads.fresh_dir(work_root / args.workload)
    outcome = workloads.Outcome()
    _header(args, workloads)
    step = trace if args.trace else measure
    metrics = step(args, workloads, workload, expected, work, outcome)
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
