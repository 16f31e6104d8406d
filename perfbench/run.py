"""Benchmark of oscontrol: verified answers per second on seeded workloads.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``chain`` runs ``oscontrol chain``, ``recur``
runs ``oscontrol recur`` on planted recurrences and ``evolve`` runs
``oscontrol evolve`` on long schedules; ``all`` runs the three in turn, each
in its own process. Every call goes through ``oscontrol.cli.main(argv)`` in
this process, one at a time (a closed loop with one client), writes its
report with ``--out`` and is judged by an oracle; only answers the oracle
accepts count.

With ``--trace 0`` the run reports the end-to-end metrics: ``answers_per_s``
(answers the oracles accepted per second spent in the CLI, over whole
blocks of operations), ``setup_s`` (median cost of a fresh
``python -m oscontrol.cli`` over the warm in-process time, for the smallest
operation) and ``peak_rss_mb``.
With ``--trace 1`` it runs each block both untraced and traced, and reports
per-layer figures from spans recorded around the package's functions.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``correct`` is false when an answer fails its
oracle in a way that matches none of the documented known defects, or when
the spans of an operation do not add up to its root span. A record of the
run, with the environment and every failed operation, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; at most the machine's cores
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# nominal seconds of one untraced block, which fixes how many blocks a traced
# run measures (a fixed count keeps its per-operation counts reproducible)
NOMINAL_BLOCK_S = {"chain": 15.0, "recur": 1.6, "evolve": 3.0}
SETUP_SPAWNS = 7


def load_package():
    """Import oscontrol from this checkout's src/, and nothing else."""
    if not (SRC / "oscontrol" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'oscontrol'}")
    sys.path.insert(0, str(SRC))
    import oscontrol.cli

    if Path(oscontrol.cli.__file__).resolve().parent != SRC / "oscontrol":
        sys.exit(f"error: oscontrol was imported from {oscontrol.cli.__file__}, not {SRC}")
    return oscontrol.cli


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


class Runner:
    """Runs operations through the CLI entry point and judges their answers."""

    def __init__(self, cli, workloads, workdir: Path):
        self.cli = cli
        self.workloads = workloads
        self.workdir = workdir
        self.out = workdir / "report.json"
        self.attempted = 0
        self.failures: list = []

    def call(self, argv: list) -> tuple:
        self.out.unlink(missing_ok=True)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(argv + ["--out", str(self.out)])
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code
            except Exception:  # a crash is a failed operation, not a stop
                rc = None
                err.write(traceback.format_exc())
        return rc, time.perf_counter() - start, err.getvalue()

    def judge(self, op, rc, stderr: str) -> bool:
        try:
            report = json.loads(self.out.read_text()) if self.out.exists() else None
            verdict = op.check(rc, report, stderr)
        except (ValueError, KeyError, TypeError) as exc:
            verdict = self.workloads.Verdict(False, f"malformed report: {exc!r}")
        self.attempted += 1
        if not verdict.ok:
            self.failures.append({"op": op.label, "inputs": op.inputs,
                                  "reason": verdict.reason, "known": verdict.known})
        return verdict.ok

    def block_ops(self, stream) -> list:
        """The next block of the stream, its input files replacing the last one's."""
        block_dir = self.workdir / "block"
        if block_dir.exists():
            shutil.rmtree(block_dir)
        block_dir.mkdir()
        ops = next(stream)
        self.workloads.materialise(ops, block_dir)
        return ops

    def run_block(self, ops: list, tracer=None) -> dict:
        """One pass over a block, in order, one operation at a time."""
        stats = {"answers": 0, "busy": 0.0, "times": [], "report_bytes": 0}
        for op in ops:
            if tracer is None:
                rc, dt, stderr = self.call(op.argv)
            else:
                with tracer.span("cli"):
                    rc, dt, stderr = self.call(op.argv)
                tracer.op += 1
            if self.out.exists():
                stats["report_bytes"] += self.out.stat().st_size
            stats["answers"] += self.judge(op, rc, stderr)
            stats["busy"] += dt
            stats["times"].append(dt)
        return stats


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def warm_up(runner: Runner) -> float:
    """Run every command, hence every layer, once before timing."""
    import numpy as np

    w = runner.workloads
    rng = np.random.default_rng(0)
    ops = [w.chain_op(4, 0.2), w.recur_op(rng, 2, 0.5), *w.evolve_pair(rng, 2, 500)]
    block_dir = runner.workdir / "warmup"
    block_dir.mkdir()
    w.materialise(ops, block_dir)
    start = time.perf_counter()
    for op in ops:
        runner.call(op.argv)
    return time.perf_counter() - start


def setup_seconds(runner: Runner, op) -> list:
    """Fresh-process wall time of one operation minus its warm in-process time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    warm = [runner.call(op.argv) for _ in range(3)]
    warm_s = statistics.median(dt for _, dt, _ in warm)
    costs = []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "oscontrol.cli", *op.argv, "--out", str(runner.out)],
            cwd=ROOT, env=env, capture_output=True, timeout=120,
        )
        costs.append(time.perf_counter() - start - warm_s)
        if proc.returncode != warm[0][0]:
            sys.exit(f"error: a fresh process exited {proc.returncode}, the warm call "
                     f"{warm[0][0]}: {proc.stderr.decode()[-300:]}")
    return costs


def measure(args, runner: Runner) -> dict:
    """Untraced blocks until --seconds of CLI time: the end-to-end metrics."""
    stream = runner.workloads.blocks(args.workload, args.seed)
    rates, answers, busy = [], 0, 0.0
    while not rates or busy < args.seconds:
        ops = runner.block_ops(stream)
        stats = runner.run_block(ops)
        rates.append(stats["answers"] / stats["busy"])
        answers += stats["answers"]
        busy += stats["busy"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    smallest = ops[min(range(len(ops)), key=stats["times"].__getitem__)]
    setup = setup_seconds(runner, smallest)
    return {
        "answers_per_s": (answers / busy, "1/s", rates, "per-block rates"),
        "setup_s": (statistics.median(setup), "s", setup, f"spawns of {smallest.label}"),
        "peak_rss_mb": (peak_rss_mb, "MB", [], ""),
    }


def measure_traced(args, runner: Runner, warmup_s: float) -> tuple:
    """Each block untraced and traced: per-layer metrics and the overhead."""
    import spans

    n_blocks = max(1, int(args.seconds / (2 * NOMINAL_BLOCK_S[args.workload])))
    stream = runner.workloads.blocks(args.workload, args.seed)
    tracer = spans.Tracer()
    busy = {False: 0.0, True: 0.0}  # CLI seconds of the untraced and traced passes
    report_bytes = 0
    for k in range(n_blocks):
        ops = runner.block_ops(stream)
        # alternate which pass goes first, as a repeated block runs warmer
        for traced_pass in (k % 2 == 1, k % 2 == 0):
            with tracer.patched() if traced_pass else contextlib.nullcontext():
                stats = runner.run_block(ops, tracer if traced_pass else None)
            busy[traced_pass] += stats["busy"]
            if traced_pass:
                report_bytes += stats["report_bytes"]
    metrics = {k: (v, unit, [], "") for k, (v, unit) in
               spans.layer_metrics(tracer.spans, tracer.op).items()}
    metrics["documents.report_bytes"] = (report_bytes / tracer.op, "B", [], "")
    metrics["bench.warmup_s"] = (warmup_s, "s", [], "")
    # both passes run the same operations, so the ratio of their answers per
    # second is the ratio of their CLI times
    metrics["bench.trace_overhead"] = (busy[False] / busy[True], "ratio", [], "")
    metrics["failed_frac"] = (len(runner.failures) / runner.attempted, "ratio", [], "")
    selfs = spans.self_times(tracer.spans)
    residual = spans.accounting_residual(tracer.spans, selfs)
    tolerance = time.get_clock_info("perf_counter").resolution * len(tracer.spans)
    return metrics, tracer, residual, tolerance


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("chain", "recur", "evolve"):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: {workload} exited {proc.returncode}: {proc.stderr[-500:]}")
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["chain", "recur", "evolve", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cli = load_package()
    sys.path.insert(0, str(HERE))
    import workloads

    (HERE / ".work").mkdir(exist_ok=True)
    record = {"args": vars(args), "environment": environment()}
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        runner = Runner(cli, workloads, Path(tmp))
        warmup_s = warm_up(runner)
        if args.trace:
            metrics, tracer, residual, tolerance = measure_traced(args, runner, warmup_s)
            record["trace_accounting"] = {"max_residual_s": residual, "tolerance_s": tolerance}
            record["spans"] = [[s.name, s.start, s.end, s.parent, s.op, s.attrs]
                               for s in tracer.spans]
        else:
            metrics = measure(args, runner)
            residual, tolerance = 0.0, 0.0
    unknown = [f for f in runner.failures if f["known"] is None]
    correct = not unknown and residual <= tolerance
    record.update(known_defects=workloads.KNOWN_DEFECTS, failures=runner.failures,
                  metrics={k: {"value": v, "unit": u, "samples": samples}
                           for k, (v, u, samples, _) in metrics.items()})
    (HERE / "out").mkdir(exist_ok=True)
    record_path = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {runner.attempted} operations, "
          f"{len(runner.failures)} failed ({len(unknown)} not a known defect); "
          f"record in {record_path.relative_to(ROOT)}")
    for f in unknown[:10]:
        print(f"  unexpected failure: {f['op']}: {f['reason']}")
    if residual > tolerance:
        print(f"  span self times miss the root span by {residual:.3g} s (> {tolerance:.3g} s)")
    for name, (value, unit, samples, what) in metrics.items():
        extra = ""
        if samples:
            q1, med, q3 = quartiles(samples)
            extra = f" ({what}: median {med:.6g}, q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)})"
        print(f"  {name}: {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
