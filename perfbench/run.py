"""Benchmark of the unext converse-bound calculator.

    python3 perfbench/run.py --workload curve --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

Run from the repository root; the package is imported from ./src. Each
workload runs as a closed loop: one client in one fresh process issues the
next operation when the previous one returns, for --seconds seconds. After
the timed phase an oracle checks every output (see oracle.py).

Workloads (inputs in workloads.py); each is a fixed cycle of operations that
the timed phase runs over and over:
  curve       README `bound` and `figure` commands through unext.cli.main, plus
              interleaved and Bell-diagonal distillation rows. Nearly all its
              time is in optimize_k and the Bernoulli engine; it never calls the
              extension solver or dense linear algebra.
  extend      check_k_extendible on states with a closed-form verdict. Its time
              is in symmetrize, affine_project and psd_project.
  divergence  one large evaluation per op: commuting-pair divergences of n-fold
              tensor powers, np_divergence and the exact engine at large n,
              and fidelity (Jacobi path).

--trace 0 prints the end-to-end metrics: setup_s (median of five set-ups in
fresh processes: import, input generation and warm-up), ops_per_s (the
cycle's length over the sum of each op's median latency), op_p50_ms (the
median of the ops' median latencies), op_tail_ms (the highest percentile
with at least ten samples beyond it, over every sample of the run, each
counted at its op's median latency) and peak_rss_mb. Medians over the
repetitions of each op keep a stall of the machine out of these numbers;
both percentiles are Harrell-Davis estimates, so that they do not jump
between neighbouring ops of different cost. --trace 1 runs every op
twice, untraced and then traced, prints the per-layer metrics (tracing.py)
with the tracing overhead, and writes the spans as JSONL to
.perfbench-work/spans-<workload>.jsonl.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's metadata
(nproc, BLAS library and threads, versions, git commit, src/ line count), the
failures by reason and, on curve, the known-defect probes. An op fails if it
raised, ended inconclusive or failed its check; `correct` is true when no op
failed. The probes run the inputs the cycles leave out because the program
answers them wrongly (workloads.defect_probes); their findings are reported
beside the result and do not count as failed ops.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS runs on one thread unless the environment sets a count: two threads on
# two shared cores made the same dense work 1.5x faster or slower from one
# minute to the next. Set these variables to measure another thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
TAIL_BEYOND = 10


def _import_package():
    """Import unext from ./src, never from anywhere else."""
    if not (SRC / "unext" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'unext'}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import unext

    if Path(unext.__file__).resolve().parent != (SRC / "unext").resolve():
        sys.exit(f"perfbench: imported unext from {unext.__file__}, expected {SRC / 'unext'}")
    return unext


def _blas_info() -> dict:
    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["library"] = "unknown"
    info["env"] = {var: os.environ[var] for var in BLAS_THREAD_VARS if var in os.environ}
    info["threads"] = None
    try:
        import ctypes

        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            for sym in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    info["threads"] = int(fn())
                    return info
    except OSError:
        pass
    return info


def run_metadata() -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas_info(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def _setup(workload: str, seed: int, workdir: Path, tiny: bool):
    import workloads

    workdir.mkdir(parents=True, exist_ok=True)
    return workloads.build(workload, seed, workdir, tiny)


def _measure_setups(args) -> list[float]:
    """Process start to ready, in fresh processes: import, inputs and warm-up."""
    times = []
    for i in range(1 if args.tiny else SETUP_REPEATS):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", "--workdir", str(args.workdir / f"setup-{i}")]
        if args.tiny:
            cmd.append("--tiny")
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up process failed with exit code {code}")
        times.append(ready - start)
    return times


def harrell_davis(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all order statistics.

    It moves smoothly as samples change, where a single order statistic jumps
    between neighbouring ops of different cost.
    """
    import numpy as np

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    x = np.linspace(0.0, 1.0, 200001)[1:-1]
    log_pdf = (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, x, cdf))
    return float(weights @ ordered)


def _tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that still has TAIL_BEYOND samples beyond it."""
    n = len(latencies_ms)
    if n <= TAIL_BEYOND:  # too few samples for any percentile: report the slowest
        return max(latencies_ms), 100.0, n
    q = (n - TAIL_BEYOND) / n
    return harrell_davis(latencies_ms, q), 100.0 * q, n


def _op_medians(records) -> dict[int, float]:
    """Median untraced latency in seconds of every op that ran."""
    by_op: dict[int, list[float]] = {}
    for idx, latency, _, _, traced in records:
        if not traced:
            by_op.setdefault(idx, []).append(latency)
    return {idx: statistics.median(v) for idx, v in by_op.items()}


def _p50_by_kind(ops, records) -> dict:
    """Median untraced latency and sample count per op kind, to show where a run's time went."""
    by_kind: dict[str, list[float]] = {}
    for idx, latency, _, _, traced in records:
        if not traced:
            by_kind.setdefault(ops[idx].kind, []).append(latency * 1e3)
    return {kind: [statistics.median(v), len(v)] for kind, v in sorted(by_kind.items())}


def _timed_loop(ops, seconds: float, tracer=None):
    """Closed loop over the op list until the time is up.

    Returns (records, wall seconds, tracing overhead); a record is
    (op index, latency seconds, output or None, error or None, traced). With
    a tracer, every op runs untraced and then traced; the overhead is the
    traced time over the untraced time of the same ops, minus one.
    """
    records = []
    untraced_s = traced_s = 0.0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        idx = i % len(ops)
        op = ops[idx]
        for traced in ((False, True) if tracer is not None else (False,)):
            error = output = None
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.op_span(idx, op.kind):
                        ret = op.call()
                else:
                    ret = op.call()
                latency = time.perf_counter() - t0
                output = op.collect(ret)
            except Exception as exc:  # an op that raises is a failed op, not a crash
                latency = time.perf_counter() - t0
                error = f"raised: {type(exc).__name__}: {exc}"
            if traced:
                traced_s += latency
            elif tracer is not None:
                untraced_s += latency
            records.append((idx, latency, output, error, traced))
        i += 1
    wall = time.perf_counter() - start
    overhead = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
    return records, wall, overhead


def _fingerprint(output) -> str:
    """What must repeat exactly when an op runs again: its outputs, or a verdict's summary."""
    if hasattr(output, "status"):
        return repr((output.status, output.iterations, output.residual))
    if isinstance(output, tuple):  # (exact beta, NPResult) from the exact engine
        return repr((hash(output[0]), output[1]))
    return repr(output)


def _check(workload: str, ops, records):
    """Run the oracle on every record.

    Returns (failed ops, failure counts by reason, a few examples, the oracle).
    """
    from oracle import Oracle

    oracle = Oracle()
    cache: dict[int, tuple[str, list[str]]] = {}
    failed = 0
    reasons: dict[str, int] = {}
    examples: list[str] = []
    for idx, _, output, error, _ in records:
        if error is not None:
            found = [error]
        else:
            fingerprint = _fingerprint(output)
            if idx in cache and cache[idx][0] == fingerprint:
                found = cache[idx][1]
            elif idx in cache:
                found = ["nondeterministic: output differs from an earlier execution"]
            else:
                found = oracle.check(workload, ops[idx], output)
                cache[idx] = (fingerprint, found)
        if found:
            failed += 1
            for r in found:
                kind = r.split(":", 1)[0]
                reasons[kind] = reasons.get(kind, 0) + 1
                if len(examples) < 5 and r not in examples:
                    examples.append(r)
    return failed, reasons, examples, oracle


def _probe_defects(workdir: Path) -> dict:
    """Oracle findings on the inputs the curve cycle leaves out, by probe."""
    import workloads
    from oracle import Oracle

    oracle = Oracle()
    findings = {}
    for op in workloads.defect_probes(workdir):
        try:
            found = oracle.check("curve", op, op.collect(op.call()))
        except Exception as exc:  # a probe that raises is reported like any finding
            found = [f"raised: {type(exc).__name__}: {exc}"]
        argv = op.params.get("argv")
        label = " ".join(argv[: argv.index("--format")]) if argv else f"{op.kind} k={op.params['k']}"
        findings[label] = sorted({r.split(":", 1)[0] for r in found})
    return findings


def run_workload(unext, args) -> int:
    setups = _measure_setups(args)
    ops = _setup(args.workload, args.seed, args.workdir, args.tiny)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(unext)
    records, wall, overhead = _timed_loop(ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check_start = time.perf_counter()
    failed, reasons, examples, oracle = _check(args.workload, ops, records)
    check_s = time.perf_counter() - check_start
    attempted = len(records)
    latencies_ms = [r[1] * 1e3 for r in records if not r[4]]
    medians = _op_medians(records)
    # every sample stands for its op's median latency, so that a stall of the
    # machine during a few runs of an op does not read as a slow op
    tail_ms, tail_pct, tail_n = _tail([medians[r[0]] * 1e3 for r in records if not r[4]])
    meta = run_metadata()
    meta.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "ops_in_cycle": len(ops),
            "ops_distinct": len(medians),
            "cycles": len(latencies_ms) / len(ops),
            "wall_s": wall,
            "ops_per_s_wall": len(latencies_ms) / wall,
            "oracle_s": check_s,
            "oracle_divergence_recomputations": oracle.divergence_checks,
            "setup_runs_s": setups,
            "failures_by_reason": reasons,
            "failure_examples": examples,
            "op_p50_ms_by_kind": _p50_by_kind(ops, records),
            "op_medians_ms": sorted(round(m * 1e3, 3) for m in medians.values()),
            "op_tail_percentile": tail_pct,
            "op_tail_samples": tail_n,
        }
    )

    if args.workload == "curve":
        meta["known_defects"] = _probe_defects(args.workdir)

    if not args.trace:
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (len(medians) / sum(medians.values()), "1/s"),
            "op_p50_ms": (harrell_davis(list(medians.values()), 0.5) * 1e3, "ms"),
            "op_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from tracing import layer_metrics

        traced = [r for r in records if r[4]]
        rows = sum(ops[r[0]].rows for r in traced if r[3] is None)
        values = layer_metrics(tracer, len(traced), rows, overhead)
        meta["absent"] = tracer.absent
        meta["spans"] = len(tracer)
        spans_path = WORK / f"spans-{args.workload}.jsonl"
        tracer.write_jsonl(spans_path)
        meta["spans_file"] = str(spans_path.relative_to(ROOT))

    for name, (value, unit) in values.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{tail_pct:.1f} of {tail_n} samples, {TAIL_BEYOND} beyond)"
        print(f"{args.workload:<10} {name:<44} {value:>14.6g} {unit}{note}")
    print(f"{args.workload:<10} failed {failed} of {attempted} ops; by reason {reasons}")
    for probe, found in meta.get("known_defects", {}).items():
        print(f"{args.workload:<10} known-defect probe: {probe}: {', '.join(found) or 'passed'}")
    print(json.dumps({"metadata": meta}, default=str))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each metric per workload with its unit."""
    import workloads

    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 3)[0] + "\n" if proc.stdout else "")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the unext package.")
    parser.add_argument("--workload", required=True, choices=["curve", "extend", "divergence", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs and one set-up; for the benchmark's own test"
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    unext = _import_package()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        _setup(args.workload, args.seed, args.workdir, args.tiny)
        print("ready", flush=True)
        return 0

    WORK.mkdir(exist_ok=True)
    args.workdir = WORK / f"run-{os.getpid()}"
    try:
        return run_workload(unext, args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
