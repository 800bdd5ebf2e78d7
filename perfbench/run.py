"""Benchmark of farfirst's five lanes in three workloads, run from the root
of a source checkout.

    python3 perfbench/run.py --workload graph --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one table

One workload runs in one single-threaded process (BLAS pinned to one
thread).  A run repeats whole rounds of the workload's calls until
--seconds have passed, then checks every distinct output against numpy and
scipy references and prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The line before it holds
the per-call breakdown.  See README.md.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEFAULT_SEED = 1
DEFAULT_SECONDS = 40

END_TO_END = [("setup_s", "s"), ("lane_s", "s"), ("rest_s", "s"), ("peak_rss_mib", "MiB")]


def _import_library():
    """farfirst from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "farfirst" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no farfirst sources under {src}")
    sys.path.insert(0, str(src))
    import scipy.sparse.csgraph as csgraph
    import scipy.spatial  # noqa: F401  (loaded here, not inside the first timed call)

    import farfirst
    from farfirst import generators, graphs, greedy, planar, points, treewidth

    if Path(farfirst.__file__).resolve().parent != (src / "farfirst").resolve():
        raise SystemExit(f"run.py: imported farfirst from {farfirst.__file__}, not {src}")
    return argparse.Namespace(generators=generators, graphs=graphs, greedy=greedy,
                              points=points, treewidth=treewidth, planar=planar,
                              csgraph=csgraph)


def _run_round(workload, outputs: list[dict], freeze) -> dict:
    """One pass over every operation; returns this round's times."""
    t0 = time.perf_counter()
    workload.write()
    setup = time.perf_counter() - t0
    times = []
    raised = 0
    for op, seen in zip(workload.ops, outputs):
        t0 = time.perf_counter()
        args = op.load()
        t1 = time.perf_counter()
        try:
            out = op.call(*args)
        except Exception:  # a failing call is counted, and the run goes on
            traceback.print_exc()
            out = None
            raised += 1
        t2 = time.perf_counter()
        setup += t1 - t0
        times.append(t2 - t1)
        if out is not None:
            key = freeze(out)
            seen[key] = seen.get(key, 0) + 1
    return {"setup": setup, "times": times, "raised": raised, "total": setup + sum(times)}


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    ff = _import_library()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = workloads.build(name, ff, seed, work)
        tracer = spans.Tracer()
        outputs: list[dict] = [{} for _ in workload.ops]
        rounds, layer_rounds = [], []
        start = time.perf_counter()
        while True:
            # a traced run alternates untraced and traced rounds, so the
            # difference of their medians is the tracing overhead
            traced = trace and len(rounds) % 2 == 1
            tracer.reset()
            with tracer.installed(vars(ff)) if traced else nullcontext():
                rnd = _run_round(workload, outputs, workloads.freeze)
            rnd["traced"] = traced
            rounds.append(rnd)
            if traced:
                layer_rounds.append(spans.snapshot(tracer))
            if time.perf_counter() - start >= seconds and (not trace or len(rounds) % 2 == 0):
                break
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed = sum(r["raised"] for r in rounds)
        correct = True
        for op, seen in zip(workload.ops, outputs):
            for out, times in seen.items():
                try:
                    op.check(out)
                except checks.CheckError as exc:
                    print(f"check failed: {op.kind}: {exc}", file=sys.stderr)
                    failed += times
                    correct = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Each call's time is its median round: the host slows every process by
    # up to 40% in phases lasting seconds to minutes, and on calls this long
    # the fastest round proved no steadier than the median one.
    plain = [r for r in rounds if not r["traced"]]
    typical = [statistics.median(r["times"][i] for r in plain)
               for i in range(len(workload.ops))]
    kinds: dict[str, float] = {}
    roles = {"lane": 0.0, "rest": 0.0}
    for op, t in zip(workload.ops, typical):
        kinds[op.kind] = kinds.get(op.kind, 0.0) + t
        roles[op.role] += t
    if trace:
        metrics = {m: statistics.median(snap[m] for snap in layer_rounds)
                   for m, *_ in spans.PER_LAYER}
        metrics["trace.overhead_s"] = (
            statistics.median(r["total"] for r in rounds if r["traced"])
            - statistics.median(r["total"] for r in plain))
        units = {m: u for m, u, *_ in spans.PER_LAYER} | {"trace.overhead_s": "s"}
        (OUT / f"trace-{name}-seed{seed}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "rounds": layer_rounds}, indent=1))
    else:
        metrics = {
            "setup_s": statistics.median(r["setup"] for r in plain),
            "lane_s": roles["lane"],
            "rest_s": roles["rest"],
            "peak_rss_mib": peak_rss_mib,
        }
        units = dict(END_TO_END)
    return {
        "calls": kinds,
        "result": {
            "correct": correct,
            "attempted": len(rounds) * len(workload.ops),
            "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        },
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; prints one table, writes a summary."""
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exited {proc.returncode} without a result")
            return 1
        summary[name] = {"calls": json.loads(lines[-2].split(" ", 1)[1]),
                         **json.loads(lines[-1])}
    for name, res in summary.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for metric, entry in res["metrics"].items():
            print(f"  {metric:<36} {entry['value']:>12.4f} {entry['unit']}")
        for kind, value in res["calls"].items():
            print(f"  {'calls.' + kind:<36} {value:>12.4f} s")
    OUT.mkdir(exist_ok=True)
    (OUT / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1))
    return 0 if all(r["correct"] and r["failed"] == 0 for r in summary.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    # the per-call breakdown (median-round seconds by call kind) comes just
    # before the result line
    print("calls " + json.dumps(res["calls"]))
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
