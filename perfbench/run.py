"""ltgsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload delta-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; it imports ``ltgsim`` from
``src/`` of that checkout.  Each workload is a closed loop: one client,
passes back to back in this process, each pass the ``ltgsim.cli.main``
calls of the workload (see workloads.py).  After one warm-up pass the
loop runs passes for ``--seconds`` seconds and checks every pass's output.

``--trace 0`` prints the end-to-end metrics: median wall and CPU seconds
of a warmed pass, the set-up time of fresh interpreters and the peak RSS
of a fresh process running one pass.  ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics of spans.py, plus the
tracing overhead.  The last line of standard output is the result as
JSON; spans and the full record (with the environment) go to
``.perfbench_out/<workload>/``.  Exit code 1 means no result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, CheckError  # noqa: E402

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120

# Fresh-interpreter set-up: import the CLI and resolve (validate) the
# workload's configs, as every ``ltgsim`` invocation does before it runs.
_SETUP_CHILD = """
import json, sys
import ltgsim.cli as cli
for argv in json.loads(sys.argv[1]):
    if cli.main(argv + ["--validate"]) != 0:
        sys.exit(3)
print(json.dumps({"ltgsim": cli.__file__}))
"""

# Fresh process running one pass; reports its own peak RSS.
_PASS_CHILD = """
import contextlib, io, json, resource, sys
import ltgsim.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"ltgsim": cli.__file__, "rcs": rcs,
                  "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def import_ltgsim():
    """Import ltgsim from this checkout's src/, never from anywhere else."""
    if not (SRC / "ltgsim" / "__init__.py").exists():
        raise BenchError(f"no ltgsim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ltgsim
    import ltgsim.cli

    if Path(ltgsim.__file__).resolve().parent != (SRC / "ltgsim").resolve():
        raise BenchError(f"imported ltgsim from {ltgsim.__file__}, not from {SRC}")
    return ltgsim


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(ltgsim_file: str) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "ltgsim_path": str(Path(ltgsim_file).resolve().relative_to(ROOT)),
    }


def run_pass(ltgsim, workload, seed: int, out_dir: Path, tamper=None):
    """One pass: (wall s, CPU s, error or None).  The check is not timed."""
    argvs = workload.argvs(seed, out_dir)
    error = None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rcs = [ltgsim.cli.main(argv) for argv in argvs]
    except Exception:  # a pass that raises counts as failed
        rcs, error = [], "raised " + traceback.format_exc(limit=-3)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is None and any(rcs):
        error = f"exit codes {rcs}"
    if error is None:
        error = check_output(workload, seed, out_dir, tamper)
    return wall, cpu, error


def check_output(workload, seed: int, out_dir: Path, tamper=None):
    """The check's complaint about a pass's output, or None."""
    if tamper is not None:
        tamper(out_dir)
    try:
        workload.check(out_dir, seed)
    except (CheckError, OSError, KeyError, ValueError, IndexError) as exc:
        return f"check: {exc}"
    return None


def output_bytes(workload, out_dir: Path) -> int:
    """Bytes of the CSV files the last pass wrote."""
    return sum(p.stat().st_size for r in workload.runs for p in (out_dir / r.label).glob("*.csv"))


def child_env(ltgsim) -> dict:
    src = str(Path(ltgsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(ltgsim, code: str, argvs) -> tuple[float, dict]:
    """Wall seconds and JSON report of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        cwd=ROOT, env=child_env(ltgsim), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"fresh process exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["ltgsim"] != ltgsim.cli.__file__:
        raise BenchError(f"fresh process imported {report['ltgsim']}, not {ltgsim.cli.__file__}")
    return wall, report


class Tally:
    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, error):
        self.attempted += 1
        if error is not None:
            self.errors.append(error)


def measure_end_to_end(ltgsim, workload, seed: int, seconds: float, tally: Tally):
    out_dir = OUT / workload.name
    setups = [run_child(ltgsim, _SETUP_CHILD, workload.argvs(seed, out_dir / "setup"))[0]
              for _ in range(SETUP_SAMPLES)]
    fresh_dir = out_dir / "fresh"
    _, report = run_child(ltgsim, _PASS_CHILD, workload.argvs(seed, fresh_dir))
    tally.add(f"exit codes {report['rcs']}" if any(report["rcs"])
              else check_output(workload, seed, fresh_dir))

    tally.add(run_pass(ltgsim, workload, seed, out_dir)[2])  # warm-up
    walls, cpus = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not walls:
        wall, cpu, error = run_pass(ltgsim, workload, seed, out_dir)
        walls.append(wall)
        cpus.append(cpu)
        tally.add(error)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["maxrss_kib"] / 1024.0,
    }
    samples = {
        "wall_s": f"median of {len(walls)} warmed passes",
        "cpu_s": f"median of {len(cpus)} warmed passes (user + sys)",
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "peak_rss_mb": "1 fresh process running one pass",
    }
    record = {"walls": walls, "cpus": cpus, "setups": setups}
    return metrics, dict(END_TO_END), samples, record


def measure_traced(ltgsim, workload, seed: int, seconds: float, tally: Tally):
    from spans import PER_LAYER, Tracer, median_metrics

    out_dir = OUT / workload.name
    tracer = Tracer()
    tally.add(run_pass(ltgsim, workload, seed, out_dir)[2])  # warm-up
    untraced, traced, per_pass = [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or not traced:
        wall, _, error = run_pass(ltgsim, workload, seed, out_dir)
        untraced.append(wall)
        tally.add(error)
        pass_id = len(traced)
        with tracer.installed(pass_id):
            wall, _, error = run_pass(ltgsim, workload, seed, out_dir)
        traced.append(wall)
        tally.add(error)
        per_pass.append(tracer.pass_metrics(pass_id, wall, output_bytes(workload, out_dir)))
    medians = median_metrics(per_pass)
    medians["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics = {m: medians[m] for m, _, _ in PER_LAYER}
    n = len(traced)
    samples = {m: f"median of {n} traced passes" for m, _, _ in PER_LAYER}
    samples["trace.overhead_s"] = f"median of {n} traced - median of {len(untraced)} untraced passes"
    spans_path = out_dir / f"spans-seed{seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "pass_id", "counts"], "spans": tracer.spans}))
    record = {"traced_walls": traced, "untraced_walls": untraced,
              "span_self_sum_s": [p["trace.coverage"] * w for p, w in zip(per_pass, traced)],
              "spans": str(spans_path.relative_to(ROOT))}
    return metrics, {m: u for m, u, _ in PER_LAYER}, samples, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")

    try:
        ltgsim = import_ltgsim()
        workload = WORKLOADS[args.workload]
        (OUT / workload.name).mkdir(parents=True, exist_ok=True)
        tally = Tally()
        measure = measure_traced if args.trace else measure_end_to_end
        metrics, units, samples, record = measure(ltgsim, workload, args.seed, args.seconds, tally)
        env = environment(ltgsim.__file__)
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed = len(tally.errors)
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for error in sorted(set(tally.errors)):
        print(f"FAILED pass: {error}")
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {units[name]:6s} {samples[name]}")
    print(f"  {'failed_frac':36s} {failed / tally.attempted:14.6g} {'frac':6s} "
          f"{failed} of {tally.attempted} passes")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    (OUT / workload.name / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
         "samples": samples, "record": record, "errors": tally.errors, "env": env}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
