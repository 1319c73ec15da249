"""Smoke self-test of the fedrr benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that each run is correct and emits every metric BENCHMARK.json
names, with its unit.  It then runs one workload in-process against a golden
file whose digest was tampered with, and checks that the mismatch is counted
as a failed operation.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402

TINY_SECONDS = "1"
TAMPER_WORKLOAD = "quad_montecarlo"


def tiny_args(workload: str, trace: int) -> list[str]:
    return ["--workload", workload, "--seed", "0", "--seconds", TINY_SECONDS, "--trace", str(trace)]


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *tiny_args(workload, trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_with_golden(golden: Path) -> dict:
    """Run the tamper workload in-process, untraced, with ``golden`` as the golden file."""
    saved, bench_run.GOLDEN = bench_run.GOLDEN, golden
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = bench_run.main(tiny_args(TAMPER_WORKLOAD, 0))
    finally:
        bench_run.GOLDEN = saved
    if code != 0:
        raise SystemExit(f"{TAMPER_WORKLOAD} with golden file {golden} exited with {code}")
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            out = run(w["name"], trace)
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w['name']} trace={trace}: result keys {sorted(out)}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{w['name']} trace={trace}: correct={out['correct']} failed={out['failed']}")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {[n for n in want if n in got and got[n] != want[n]]}")
            print(f"{w['name']} trace={trace}: {len(got)} metrics, {out['attempted']} operations, {out['failed']} failed")

    # a golden entry with the right digests passes; a tampered one is a failure
    result = json.loads((BENCH / "results" / f"{TAMPER_WORKLOAD}-seed0-trace1.json").read_text())
    golden_path = BENCH / "work" / "selftest_golden.json"
    entry = {"seed": 0, "size": result["size"], "digests": dict(result["digests"])}
    golden_path.write_text(json.dumps({TAMPER_WORKLOAD: entry}))
    good = run_with_golden(golden_path)
    name, value = next(iter(entry["digests"].items()))
    entry["digests"][name] = ("0" if value[0] != "0" else "1") + value[1:]
    golden_path.write_text(json.dumps({TAMPER_WORKLOAD: entry}))
    bad = run_with_golden(golden_path)
    golden_path.unlink()
    if not good["correct"] or good["failed"]:
        problems.append(f"matching golden digests counted as failures: {good['failed']}")
    if bad["correct"] or bad["failed"] != 1 or bad["attempted"] != good["attempted"]:
        problems.append(f"tampered golden digest not counted as one failure: {bad}")
    print(f"tampered golden digest: correct={bad['correct']}, {bad['failed']} of {bad['attempted']} failed")

    for p in problems:
        print(f"SELFTEST FAILED: {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
