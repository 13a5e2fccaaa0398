"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 perfbench/report.py                       # every workload, seed 1
    python3 perfbench/report.py --workloads mc-ensemble --seeds 1-5
    python3 perfbench/report.py --seeds 1-10 --json perfbench/baseline.json

Each run is a fresh ``run.py`` process.  For every end-to-end metric the
table gives the median over seeds and the quartile spread, (Q3 - Q1) /
median with quartiles from ``statistics.quantiles(values, n=4)``.  With
``--trace 1`` it prints the per-layer medians instead.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("nan")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=[1])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write every run's result here")
    args = parser.parse_args(argv)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = [(m["name"], m["unit"], m.get("bound")) for m in bench[kind]]
    results, status = {}, 0
    for name in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            elapsed = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            record = ROOT / ".perfbench_out" / name / f"result-seed{seed}-trace{args.trace}.json"
            full = json.loads(record.read_text())
            result["samples"], result["env"] = full["samples"], full["env"]
            result["seed"], result["elapsed_s"] = seed, elapsed
            runs.append(result)
            if not result["correct"]:
                status = 1
            print(f"{name} seed {seed}: {elapsed:.1f} s, {result['failed']} of "
                  f"{result['attempted']} passes failed", file=sys.stderr, flush=True)
        results[name] = runs
        if not runs:
            continue
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"\n{name}: {len(runs)} runs of {args.seconds:g} s, "
              f"failed_frac {failed}/{attempted}, "
              f"mean run time {statistics.mean(r['elapsed_s'] for r in runs):.1f} s")
        print(f"  {'metric':36s} {'median':>12s} {'unit':6s} {'spread':>8s} {'bound':>6s}  per run")
        for metric, unit, bound in metrics:
            values = [r["metrics"][metric]["value"] for r in runs]
            sp = spread(values) if len(values) > 1 else float("nan")
            flag = " !" if bound is not None and metric != "setup_s" and sp > bound / 3 else ""
            print(f"  {metric:36s} {statistics.median(values):12.6g} {unit:6s} {sp:8.2%} "
                  f"{'' if bound is None else format(bound, '6.2f'):>6s}{flag:2s} "
                  f"{runs[-1]['samples'][metric]}")
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
