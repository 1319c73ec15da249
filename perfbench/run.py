"""fedrr benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2_grid --seed 0 --seconds 12 --trace 0

Every repetition runs in a fresh child process (``workloads.py``), so total
time and peak memory are those of a real process that imports fedrr and does
the work once.  ``--trace 0`` runs several untraced repetitions and reports
the medians of the end-to-end metrics; ``--trace 1`` runs one untraced and
one traced repetition and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller result, with machine facts, digests and the
per-module trace tables, is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import VARIANCE_MAX_SIZE, variance_geometries  # noqa: E402

CHILD_TIMEOUT_S = 150
RUN_DEADLINE_S = 170
GOLDEN = BENCH / "golden.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# harness.run_experiment runs grid jobs in a process pool when FEDRR_WORKERS > 1;
# the benchmark measures the serial path only (see README.md)
CHILD_ENV = {"FEDRR_WORKERS": "1"}

# Work per repetition is fixed by --seconds through these rates (measured on
# a loaded 2-core Xeon, Python 3.11, numpy 2.4), never by a speed measured at
# run time, so one (seed, seconds) pair always does the same work and
# produces the same bytes.
FIG2_EPOCHS_PER_S = 11.0  # 15-job grid, epochs summed over jobs
QUAD_EPOCHS_PER_S = 950.0
VARIANCE_CHECKS_PER_S = 100.0
QUAD_MC_RUNS = 24  # acceptance test 05: rrcli, reshuffling, T=50
QUAD_MC_EPOCHS = QUAD_MC_RUNS * 50
QUAD_PLATEAU_EPOCHS = 2 * (400 + 700)  # acceptance test 06: rrcli and rrcli-wr at gamma and gamma/2

REPETITIONS = {"fig2_grid": 3, "quad_montecarlo": 7, "variance_enum": 5}
WALL_RATE = {"fig2_grid": "epochs_per_s", "quad_montecarlo": "epochs_per_s", "variance_enum": "checks_per_s"}

# Median time of workloads.reference_loop on the same machine.  A unit of
# work that took t seconds while the loop took r seconds is counted as
# t * REFERENCE_NOMINAL_S / r reference seconds (see README.md).
REFERENCE_NOMINAL_S = 0.019


def sizes(workload: str, seconds: float) -> dict:
    """Per-repetition work such that the work after set-up, summed over the repetitions, is about ``seconds``.

    Only that work scales.  Every repetition also pays interpreter start,
    imports and its own set-up, and ``quad_montecarlo`` always does its 24
    bound runs and at least one plateau seed, so a whole run takes about two
    to three times ``seconds`` (README.md gives the figures).
    """
    share = seconds / REPETITIONS[workload]
    if workload == "fig2_grid":
        return {"T": max(1, round(share * FIG2_EPOCHS_PER_S / 15))}
    if workload == "quad_montecarlo":
        plateau_seeds = max(0, math.ceil((share * QUAD_EPOCHS_PER_S - QUAD_MC_EPOCHS) / QUAD_PLATEAU_EPOCHS))
        return {"mc_runs": QUAD_MC_RUNS, "plateau_seeds": plateau_seeds}
    return {"inputs": max(1, round(share * VARIANCE_CHECKS_PER_S / len(variance_geometries(VARIANCE_MAX_SIZE))))}


# -- inputs --------------------------------------------------------------------


def write_phishing_like(path: Path, seed: int, count: int = 11055, dim: int = 68, nnz: int = 30) -> None:
    """Gzip LIBSVM file shaped like phishing: binary features, about ``nnz`` per row.

    Labels come from a weak logistic teacher so the problem is neither
    separable nor pure noise.
    """
    rng = np.random.default_rng([seed, 1])
    teacher = rng.normal(size=dim) / np.sqrt(dim)
    k = rng.integers(nnz - 5, nnz + 6, size=count)
    order = np.argsort(rng.random((count, dim)), axis=1)
    lines = []
    for i in range(count):
        idx = np.sort(order[i, : k[i]])
        p = 1.0 / (1.0 + np.exp(-teacher[idx].sum()))
        label = "+1" if rng.random() < p else "-1"
        lines.append(label + " " + " ".join(f"{j + 1}:1" for j in idx))
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(("\n".join(lines) + "\n").encode())


# -- machine facts -------------------------------------------------------------


def machine_facts(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "fedrr").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "child_env": CHILD_ENV,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


# -- orchestration ---------------------------------------------------------------


def run_child(spec: dict, deadline: float) -> dict:
    timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise RuntimeError("run deadline reached before all repetitions ran")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), json.dumps(spec)],
        cwd=ROOT, env={**os.environ, **CHILD_ENV}, capture_output=True, text=True, timeout=timeout,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{spec['workload']} repetition exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["total_s"] = wall
    # reference seconds per wall second over the child's life
    out["speed"] = REFERENCE_NOMINAL_S / statistics.fmean(out["references"])
    return out


def work_rate(samples, reference: bool) -> float:
    """Work units per second, with each kind of unit taking the median time of its kind.

    With ``reference`` the unit times are in reference seconds.
    """
    by_kind: dict[str, list[tuple[float, float]]] = {}
    for kind, seconds, units, ref in samples:
        by_kind.setdefault(kind, []).append((seconds * REFERENCE_NOMINAL_S / ref if reference else seconds, units))
    units = sum(u for runs in by_kind.values() for _, u in runs)
    seconds = sum(len(runs) * statistics.median(t for t, _ in runs) for runs in by_kind.values())
    return units / seconds if seconds else 0.0


def load_golden(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def compare_golden(workload: str, seed: int, size: dict, digests: dict, golden: dict) -> tuple[int, list[str]]:
    """Compare digests with the golden entry for this (workload, seed, size), if there is one."""
    entry = golden.get(workload)
    if not entry or entry.get("seed") != seed or entry.get("size") != size:
        return 0, []
    failures = [f"golden digest mismatch: {name}" for name, want in entry["digests"].items() if digests.get(name) != want]
    return len(entry["digests"]), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPETITIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (ROOT / "src" / "fedrr" / "__init__.py").is_file():
        print(f"no fedrr sources under {ROOT / 'src'}; run from the root of a fedrr checkout", file=sys.stderr)
        return 2

    size = sizes(args.workload, args.seconds)
    work_dir = Path("perfbench") / "work" / args.workload
    spec = {"workload": args.workload, "seed": args.seed, **size, "out": str(work_dir / "out")}
    if args.workload == "fig2_grid":
        data = work_dir / f"phishing_like-seed{args.seed}.libsvm.gz"
        if not (ROOT / data).exists():
            write_phishing_like(ROOT / data, args.seed)
        spec["data"] = str(data)

    try:
        if args.trace:
            plain = [run_child({**spec, "trace": False}, deadline)]
            traced = run_child({**spec, "trace": True}, deadline)
            reps = plain + [traced]
        else:
            plain = [run_child({**spec, "trace": False}, deadline) for _ in range(REPETITIONS[args.workload])]
            traced = None
            reps = plain
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1

    # correctness: every repetition's own checks, identical digests across
    # repetitions, and the golden digests where this run has an entry
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    digests = reps[0]["digests"]
    for r in reps[1:]:
        attempted += 1
        if r["digests"] != digests:
            failures.append("digests differ between repetitions")
    n_golden, golden_failures = compare_golden(args.workload, args.seed, size, digests, load_golden(GOLDEN))
    attempted += n_golden
    failures += golden_failures

    samples = [tuple(x) for r in plain for x in r["samples"]]
    end_to_end = {
        "setup_s": (statistics.median(r["info"]["setup_s"] * r["speed"] for r in plain), "s"),
        "total_ref_s": (statistics.median(r["total_s"] * r["speed"] for r in plain), "ref_s"),
        "work_per_ref_s": (work_rate(samples, reference=True), "1/ref_s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in plain) / 1024.0, "MB"),
    }
    wall = {
        "setup_s": statistics.median(r["info"]["setup_s"] for r in plain),
        "total_s": statistics.median(r["total_s"] for r in plain),
        "work_per_s": work_rate(samples, reference=False),
        "reference_s": statistics.median(ref for r in plain for ref in r["references"]),
    }
    per_layer = {}
    if traced is not None:
        # a nesting or clock error shows as a negative self time, or as self
        # times that add up to more than the traced process lived
        acc = traced["trace"]["accounting"]
        unaccounted = traced["total_s"] - acc["modules_self_s"] - acc["bench_self_s"]
        attempted += 2
        if acc["min_self_s"] < -1e-9:
            failures.append(f"trace accounting: negative self time {acc['min_self_s']!r}")
        if unaccounted < 0:
            failures.append(f"trace accounting: self times add up to {-unaccounted!r} s more than the traced process's wall time")
        per_layer = {k: tuple(v) for k, v in traced["trace"]["metrics"].items()}
        per_layer["trace.overhead_ref_s"] = (traced["total_s"] * traced["speed"] - plain[0]["total_s"] * plain[0]["speed"], "ref_s")
        per_layer["trace.unaccounted_s"] = (unaccounted, "s")

    error_rate = len(failures) / attempted
    alias = WALL_RATE[args.workload]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "machine": machine_facts(args.seed),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": error_rate,
        "failures": failures,
        "digests": digests,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "wall": wall,
        alias: wall["work_per_s"],
        "repetitions": [
            {k: r[k] for k in ("total_s", "speed", "peak_rss_kb", "info", "samples", "references")} for r in reps
        ],
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
    }
    if traced is not None:
        result["trace_tables"] = {k: traced["trace"][k] for k in ("modules", "setup_modules", "work_modules", "accounting")}
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=2) + "\n")

    shown = per_layer if args.trace else end_to_end
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} wall setup_s = {wall['setup_s']:.6g} s, total_s = {wall['total_s']:.6g} s, "
          f"{alias} = {wall['work_per_s']:.6g} 1/s")
    print(f"{args.workload} error_rate = {error_rate:.6g} ({len(failures)} of {attempted} operations failed)")
    for name, value in digests.items():
        print(f"{args.workload} digest {name} = {value}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
