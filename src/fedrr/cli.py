"""Command-line entry points: run experiments, verify variance formulas,
solve optima.

Exit codes: 0 success, 2 configuration error, 3 all runs diverged,
4 verification or optimum-solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .dataset import DatasetError, load_libsvm_file, partition
from .harness import ConfigError, ExperimentConfig, _atomic_write, run_experiment
from .optimizer import DivergenceError
from .problem import ProblemError, SolverError, logistic_problem, solve_optimum
from .rng import stream
from .variance_lab import EnumerationTooLarge, VarianceInputs, max_rel_error

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


def _parse_args(argv):
    parser = argparse.ArgumentParser(prog="fedrr", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment grid from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None, help="output directory override")
    run.add_argument("--seeds", default=None, help="comma-separated replicate indices")
    run.add_argument("--algo", default=None, help="comma-separated algorithm names")
    run.add_argument("--multipliers", default=None, help="comma-separated step-size multipliers")
    run.add_argument("--decay", action="store_true", help="enable 1/(1+epoch) step decay")

    verify = sub.add_parser("verify-variance", help="check closed-form variances against enumeration")
    verify.add_argument("--max-size", type=int, default=8, help="largest M*N to enumerate")
    verify.add_argument("--inputs", type=int, default=5, help="random inputs per geometry")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=1e-10)

    solve = sub.add_parser("solve-optimum", help="solve a regularized logistic problem to high accuracy")
    solve.add_argument("--dataset", required=True)
    solve.add_argument("--alpha", type=float, required=True)
    solve.add_argument("--tol", type=float, default=1e-12)
    solve.add_argument("--clients", type=int, default=1)
    solve.add_argument("--seed", type=int, default=2024)
    solve.add_argument("--out", default=None, help="write the solution vector in .npy format to exactly this path")

    return parser.parse_args(argv)


def _split(text: str, convert, flag: str) -> list:
    try:
        return [convert(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} takes a comma-separated list of {convert.__name__}s, got {text!r}") from None


def _cmd_run(args) -> int:
    overrides = {"out_dir": args.out}
    if args.algo is not None:
        overrides["algorithms"] = args.algo.split(",")
    if args.decay:
        overrides["decay"] = True
    if args.seeds is not None:
        overrides["seeds"] = _split(args.seeds, int, "--seeds")
    if args.multipliers is not None:
        overrides["multipliers"] = _split(args.multipliers, float, "--multipliers")
    summary = run_experiment(ExperimentConfig.from_file(args.config, overrides))
    n = len(summary["results"])
    diverged = summary["manifest"]["diverged_count"]
    print(f"{n} runs completed ({diverged} diverged); outputs in {summary['out_dir']}")
    if summary["best_multipliers"]:
        print("best multipliers:", summary["best_multipliers"])
    return EXIT_OK


def _geometries(max_size: int):
    for M in range(1, max_size + 1):
        for N in range(1, max_size // M + 1):
            for C in range(1, M + 1):
                if M % C == 0:
                    yield M, N, C


def _cmd_verify(args) -> int:
    for bad, message in (
        (args.max_size < 1, f"--max-size must be at least 1, got {args.max_size}"),
        (args.inputs < 1, f"--inputs must be at least 1, got {args.inputs}"),
        (not (math.isfinite(args.tol) and args.tol > 0), f"--tol must be finite and positive, got {args.tol}"),
    ):
        if bad:
            raise ConfigError(message)
    rng = stream(args.seed, "verify_variance")
    worst = 0.0
    failures = 0
    for M, N, C in _geometries(args.max_size):
        for _ in range(args.inputs):
            inp = VarianceInputs(rng.normal(size=(M, N, 2)))
            try:
                error = max_rel_error(inp, C)
            except EnumerationTooLarge as exc:
                print(f"M={M} N={N} C={C}: skipped ({exc})")
                continue
            worst = max(worst, error)
            status = "ok" if error <= args.tol else "FAIL"
            if status == "FAIL":
                failures += 1
            print(f"M={M} N={N} C={C}: max rel error {error:.3e} {status}")
    print(f"worst relative error {worst:.3e}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_solve(args) -> int:
    X, labels = load_libsvm_file(args.dataset)
    problem = logistic_problem(partition(len(labels), args.clients, args.seed), X, labels, args.alpha)
    opt = solve_optimum(problem, args.tol)
    print(f"samples={len(labels)} dim={X.shape[1]} L={problem.L:.6g} mu={problem.mu:.6g} kappa={problem.L / problem.mu:.6g}")
    print(f"f(x*)={opt.f_star:.12g} ||grad||={opt.grad_norm:.3e}")
    if args.out:
        with _atomic_write(args.out, "wb") as fh:
            np.save(fh, opt.x_star, allow_pickle=False)
        print(f"solution written to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _parse_args(argv)
    command = {"run": _cmd_run, "verify-variance": _cmd_verify, "solve-optimum": _cmd_solve}[args.command]
    try:
        return command(args)
    except (ConfigError, DatasetError, ProblemError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
