"""Command-line entry points: run experiments, verify variance formulas,
solve optima.

A command line is parsed once, by its command's own parser; the full parser
takes only a line that names no command or holds a flag it does not know.

Exit codes: 0 success, 2 configuration error, 3 every run of some algorithm
diverged (with one multiplier or many), 4 verification or optimum-solver failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .dataset import DatasetError, load_libsvm_file, partition
from .harness import ConfigError, ExperimentConfig, _atomic_write, run_experiment
from .optimizer import DivergenceError
from .problem import ProblemError, SolverError, logistic_problem, solve_optimum
from .rng import stream
from .variance_lab import EnumerationTooLarge, _prefix_gram, max_rel_errors

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach ``main`` as one-line config errors."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    """The ``fedrr`` parser, and each command's own parser by name."""
    # subcommand parsers take their parent's class
    parser = _Parser(prog="fedrr", description=__doc__.splitlines()[0])
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

    return parser, {"run": run, "verify-variance": verify, "solve-optimum": solve}


_PARSER, _COMMAND_PARSERS = _build_parser()  # built once, at import


def _parse(argv) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``'s namespace, from the named command's own parser alone where that suffices.

    ``_PARSER`` hands everything after the command to that command's parser, and fails only on arguments it leaves
    over; so where it leaves none, its namespace is ``_PARSER``'s, and any other argv goes to ``_PARSER`` itself.
    """
    parser = _COMMAND_PARSERS.get(argv[0]) if argv else None
    if parser is not None:
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return _PARSER.parse_args(argv)


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


# (input, k) rows checked in one batch: its gathered Gram slices take up to 2,048 bytes a row (M = N = 4, the largest
# M*N the guard admits), so a full batch gathers about a megabyte however many inputs a call draws
CHECK_ROWS = 512


def _cmd_verify(args) -> int:
    for bad, message in (
        (args.max_size < 1, f"--max-size must be at least 1, got {args.max_size}"),
        (args.inputs < 1, f"--inputs must be at least 1, got {args.inputs}"),
        (not (math.isfinite(args.tol) and args.tol > 0), f"--tol must be finite and positive, got {args.tol}"),
    ):
        if bad:
            raise ConfigError(message)
    rng = stream(args.seed, "verify_variance")
    worst, failures = 0.0, 0

    def draw(count, M, N):  # a skipped block, or one past the budget, drawn alone
        try:
            return rng.standard_normal(count)
        except (MemoryError, ValueError):  # numpy raises ValueError for a size past its index range
            raise ConfigError(f"--inputs {args.inputs} takes {count} draws at M={M} N={N}, more than fit in memory") from None

    def check(runs, block):
        nonlocal worst, failures
        heads, errors = max_rel_errors(runs, block)
        worst = max(worst, *errors)
        failed = [not error <= args.tol for error in errors]  # a NaN error fails
        failures += sum(failed)
        print("\n".join(f"{head}{error:.3e} {'FAIL' if bad else 'ok'}" for head, error, bad in zip(heads, errors, failed)))

    batch, rows = [], 0  # (M, N, C, count) runs of admitted inputs not yet drawn, and their (input, k) rows

    def check_batch():  # one draw of all its normals, as consecutive per-(M, N) draws would give them
        nonlocal rows
        if batch:
            runs = tuple(batch)
            check(runs, rng.standard_normal(sum(M * N * count for M, N, _, count in runs) * 2).reshape(-1, 2))
            batch.clear()
            rows = 0

    for M in range(1, args.max_size + 1):
        Cs = [c for c in range(1, M + 1) if M % c == 0]
        for N in range(1, args.max_size // M + 1):
            # every input of (M, N), C by C, takes M*N*2 normals, so the stream moves as one normal call per input
            # would move it, whether the inputs are checked or skipped
            count = len(Cs) * args.inputs * M * N * 2
            block_rows = args.inputs * sum(N * M // C for C in Cs)
            try:  # C = 1 always divides M, and the outcome count, so the guard's verdict, depends on M and N alone
                _prefix_gram(M, N, 1)
            except EnumerationTooLarge as exc:
                check_batch()
                draw(count, M, N)
                for C in Cs:
                    print(f"M={M} N={N} C={C}: skipped ({exc})")
                continue
            if rows + block_rows > CHECK_ROWS:  # a batch takes whole blocks only
                check_batch()
            if block_rows <= CHECK_ROWS:
                batch.extend((M, N, C, args.inputs) for C in Cs)
                rows += block_rows
                continue
            # a block past the budget is drawn alone and checked C by C, in slices of as many inputs as fit
            for C, inputs in zip(Cs, draw(count, M, N).reshape(len(Cs), args.inputs, M * N, 2)):
                step = CHECK_ROWS // (N * M // C)
                for part in (inputs[i : i + step] for i in range(0, args.inputs, step)):
                    check(((M, N, C, len(part)),), part)
    check_batch()
    print(f"worst relative error {worst:.3e}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_solve(args) -> int:
    if args.out is not None and not (args.out and os.path.isdir(os.path.dirname(args.out) or ".")):
        raise ConfigError(f"--out must be a nonempty path in an existing directory, got {args.out!r}")
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
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return {"run": _cmd_run, "verify-variance": _cmd_verify, "solve-optimum": _cmd_solve}[args.command](args)
    except (ConfigError, DatasetError, ProblemError, OSError) as exc:
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
