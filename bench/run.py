"""Run one critforge benchmark workload and print its metrics.

    python3 bench/run.py --workload corpus_sweep --seed 1 --seconds 20 --trace 0

Run from a source checkout; the package is imported from ``src/``.
A run makes a fixed number of whole passes over the workload's units,
derived from ``--seconds`` and the workload's nominal pass length (see
``pass_count``), so the work done never depends on the machine's speed.
With ``--trace 0`` the workload runs untraced as a closed loop with one
client, with slices of a reference task after each unit (``speed.py``),
and the end-to-end metrics are reported at the reference speed; the raw
figures are printed beside them.  With ``--trace 1`` it makes half as
many passes (at least one), running each unit untraced and then traced,
and reports the per-layer metrics per pass and the tracing overhead
(traced against untraced time of the same units).
A report goes to stdout first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record
of the run (and, when traced, its spans) is written under ``.bench_out/``.
The exit code is 0 only when every answer check passed, apart from
the recorded ``reduce_support`` defect, which counts as failed ops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from speed import REFERENCE_SHARE, Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up runs at least this many times and for at least this long; its
# median is reported, so a set-up of a few milliseconds is still steady.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0

END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "raw_ops_per_s": "1/s", "raw_op_p50_ms": "ms", "speed_factor": "ratio",
         "peak_rss_mb": "MB", "error_rate": "ratio", "construct_s": "s",
         "group_s": "s", "cli.startup_ms": "ms", "cli.import_ms": "ms",
         "cli.inproc_ms": "ms", "trace.overhead_pct": "%",
         "construct.verify_share": "%", "exactlinalg.max_side": "rows",
         "exactlinalg.max_entry_bits": "bits"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    return "s" if name.endswith("_s") else "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, workload) -> dict:
    blob = json.dumps(workload.canonical(), sort_keys=True, default=str)
    return {
        "seed": seed,
        "inputs_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pass_count(workload, seconds: float) -> int:
    """Whole passes in a run of ``seconds``, reference slices included,
    fixed by the workload's nominal pass length rather than by how fast
    the machine is."""
    return max(1, round(seconds / (workload.pass_seconds * (1 + REFERENCE_SHARE))))


def run_unit(run, i: int, rec) -> float:
    """Run one unit; an exception fails one op instead of the run."""
    t0 = perf_counter()
    try:
        run(i, rec)
    except Exception as exc:  # every failure is counted, none ends the run
        rec.op(perf_counter() - t0, f"unit {i}: {type(exc).__name__}: {exc}")
    return perf_counter() - t0


def loop(workload, rec, passes: int) -> list[tuple[int, float, float]]:
    """Closed loop over ``passes`` whole passes of the units, in order,
    with reference slices after each unit (see ``speed.py``).

    Returns, for each pass, its first op index, the time its units took,
    and the speed factor the slices measured during it.
    """
    out = []
    for p in range(passes):
        first_op, busy, speed = len(rec.latencies), 0.0, Speed()
        for i in range(p * workload.pass_len, (p + 1) * workload.pass_len):
            unit_s = run_unit(workload.run_unit, i, rec)
            busy += unit_s
            speed.sample(unit_s)
        out.append((first_op, busy, speed.factor))
    return out


def summary(rec, passes) -> dict[str, float]:
    """Throughput, and median and p90 latency over every op of the run,
    at the reference speed: each pass's times are divided by the speed
    factor measured during it.  The raw figures are reported beside them.
    """
    lat = rec.latencies
    ends = [first for first, _, _ in passes[1:]] + [len(lat)]
    adj = [x / f for (first, _, f), end in zip(passes, ends) for x in lat[first:end]]
    busy = sum(b for _, b, _ in passes)
    adjusted = sum(b / f for _, b, f in passes)
    out = {"ops_per_s": len(lat) / adjusted, "op_p50_ms": median(adj) * 1e3,
           "samples": len(adj), "passes": len(passes), "speed_factor": busy / adjusted,
           "raw_ops_per_s": len(lat) / busy, "raw_op_p50_ms": median(lat) * 1e3}
    if len(adj) >= 100:
        out["op_p90_ms"] = quantiles(adj, n=10)[-1] * 1e3
    return out


def traced_passes(workload, rec, tracer, passes: int) -> float:
    """Run each unit untraced and then traced; return the traced time of
    the units over their untraced time, less one, in percent.

    Pairing each unit with itself keeps drift on the machine out of the
    overhead figure.
    """
    plain = traced = 0.0
    for i in range(passes * workload.pass_len):
        plain += run_unit(workload.trace_unit, i, rec)
        tracer.op = i
        with tracer:
            traced += run_unit(workload.trace_unit, i, rec)
    return 100.0 * (traced / plain - 1.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "critforge" / "__init__.py").is_file():
        print(f"error: no critforge sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import critforge
    from workloads import WORKLOADS, Recorder, cli_costs
    from tracer import Tracer

    if Path(critforge.__file__).resolve().parent != (SRC / "critforge").resolve():
        print(f"error: critforge imported from {critforge.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    setups, setup_speed = [], Speed()
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        t0 = perf_counter()
        workload = cls(args.seed)
        setups.append(perf_counter() - t0)
        setup_speed.sample(setups[-1])
    facts = provenance(args.seed, workload)
    rec = Recorder()
    report: dict[str, float] = {"setup_s": median(setups) / setup_speed.factor,
                                "raw_setup_s": median(setups)}

    passes = pass_count(workload, args.seconds)
    if not args.trace:
        report.update(summary(rec, loop(workload, rec, passes)))
        report["peak_rss_mb"] = peak_rss_mb(children=args.workload == "cli_fixtures")
        report.update(rec.timers)
        wanted = END_TO_END
    else:
        tracer = Tracer()
        passes = max(1, passes // 2)
        report["trace.overhead_pct"] = traced_passes(workload, rec, tracer, passes)
        report.update(tracer.layer_metrics(passes=passes))
        report.update(cli_costs(args.seed))
        report["traced_passes"] = passes
        report["spans"] = len(tracer.start)
        wanted = tuple(k for k in report
                       if k not in ("setup_s", "raw_setup_s", "traced_passes", "spans"))

    attempted = len(rec.latencies)
    report["error_rate"] = rec.failed / attempted if attempted else 1.0
    report["known_defect_ops"] = rec.known_defects
    correct = attempted > 0 and not rec.unexpected

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(str(OUT / f"{stem}-spans.tsv.gz"))
    record = {"workload": args.workload, "provenance": facts, "seconds": args.seconds,
              "correct": correct, "attempted": attempted, "failed": rec.failed,
              "problems": rec.unexpected,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in report.items()}}
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs {facts['inputs_sha256'][:16]}")
    print(f"python {facts['python']}  nproc {facts['nproc']}  cpu {facts['cpu']}")
    for name, value in report.items():
        print(f"  {name:32s} {value:14.6g} {unit_of(name)}")
    for text in rec.unexpected:
        print(f"  FAILED CHECK: {text}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": rec.failed,
        "metrics": {k: {"value": report[k], "unit": unit_of(k)} for k in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
