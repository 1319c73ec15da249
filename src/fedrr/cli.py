"""Command-line entry points: run experiments, verify variance formulas,
solve optima.

verify-variance checks every (M, N, C) with M*N up to --max-size against the
exact variance, whose two coefficients per prefix length are reduced ratios of
small Python integers: no geometry is too large to check.

A command line is parsed once, by its command's own parser; the full parser
takes only a line that names no command or holds a flag it does not know.

Exit codes: 0 success, 2 configuration error, 3 every run of some algorithm
diverged (with one multiplier or many), 4 verification or optimum-solver failure,
141 (128 + SIGPIPE) when stdout's reader closes the pipe first, with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache
from itertools import islice

import numpy as np

# run and solve-optimum import the modules they use when they run, so a verify-variance process loads none of
# harness, dataset, optimizer, problem, theory and shuffling
from .errors import ConfigError, DatasetError, DivergenceError, ProblemError, SolverError
from .rng import stream
from .variance_lab import max_rel_errors

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

    verify = sub.add_parser("verify-variance", help="check closed-form variances against the exact variance")
    verify.add_argument("--max-size", type=int, default=8, help="largest M*N to check")
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
    from .harness import ExperimentConfig, run_experiment

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


# (input, k) rows checked in one batch, whose normals are drawn for it alone. A row takes about 190 bytes at its peak,
# but a batch also holds its inputs' moment stacks and normals: a warm --max-size 8 --inputs 300 call peaks at 1.4 MB
# with 512 rows and at 5.0 MB with 4,096, past the 2.2 MB of the per-input loop that it must stay under; with 512 rows
# it peaks at 1.8 MB at --inputs 3,000 and 1.6 MB at 30,000 (x86-64, Python 3.11, numpy 2.4.6)
CHECK_ROWS = 512
# steps a verify-variance plan may hold and still be kept for the next call with its (max-size, inputs); a plan past
# it, such as one of --max-size 160 at one input, is worked out afresh by every call
PLAN_STEPS = 256


def _verify_plan(max_size: int, inputs: int):
    """Yield verify-variance's steps in (M, N, C) scan order: ``(draws, runs)``.

    A step draws ``draws`` normals in one ``standard_normal`` call and checks them as one ``max_rel_errors`` batch of
    these (M, N, C, count) ``runs``.  Each (M, N, C)'s inputs come in slices of as many as fit ``CHECK_ROWS`` (input,
    k) rows, or of one input where a single input has more rows, and a slice joins the pending batch while the batch
    stays within the budget; numpy fills consecutive calls as it fills one, so the stream moves as one normal call per
    input would move it.  Steps come one at a time, so a huge --max-size or --inputs starts at once, in bounded memory.
    """
    batch, rows, draws = [], 0, 0  # runs of inputs not yet checked, and their (input, k) rows and normals
    for M in range(1, max_size + 1):
        Cs = [c for c in range(1, M + 1) if M % c == 0]
        for N in range(1, max_size // M + 1):
            for C in Cs:
                n = N * M // C  # an input's rows
                step = max(1, CHECK_ROWS // n)
                for first in range(0, inputs, step):
                    count = min(step, inputs - first)
                    if batch and rows + count * n > CHECK_ROWS:
                        yield draws, tuple(batch)
                        batch, rows, draws = [], 0, 0
                    batch.append((M, N, C, count))
                    rows, draws = rows + count * n, draws + M * N * 2 * count
    if batch:
        yield draws, tuple(batch)


@lru_cache(maxsize=8)
def _kept_plan(max_size: int, inputs: int):
    """``_verify_plan(max_size, inputs)``'s steps as a tuple, kept for the next call; None past ``PLAN_STEPS`` steps."""
    plan = tuple(islice(_verify_plan(max_size, inputs), PLAN_STEPS + 1))
    return plan if len(plan) <= PLAN_STEPS else None


def _cmd_verify(args) -> int:
    for bad, message in (
        (args.max_size < 1, f"--max-size must be at least 1, got {args.max_size}"),
        (args.inputs < 1, f"--inputs must be at least 1, got {args.inputs}"),
        (not (math.isfinite(args.tol) and args.tol > 0), f"--tol must be finite and positive, got {args.tol}"),
    ):
        if bad:
            raise ConfigError(message)
    plan = _kept_plan(args.max_size, args.inputs)
    rng = stream(args.seed, "verify_variance")
    worst, failures = 0.0, 0
    for draws, runs in _verify_plan(args.max_size, args.inputs) if plan is None else plan:
        try:
            normals = rng.standard_normal(draws)
        except (MemoryError, ValueError):  # numpy raises ValueError for a size past its index range
            M, N = runs[-1][:2]
            raise ConfigError(f"the batch up to M={M} N={N} takes {draws} normal draws, more than fit in memory") from None
        heads, errors = max_rel_errors(runs, normals.reshape(-1, 2))
        worst = max(worst, *errors)
        failed = [not error <= args.tol for error in errors]  # a NaN error fails
        failures += sum(failed)
        print("\n".join(f"{head}{error:.3e} {'FAIL' if bad else 'ok'}" for head, error, bad in zip(heads, errors, failed)))
    print(f"worst relative error {worst:.3e}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_solve(args) -> int:
    from .dataset import load_libsvm_file, partition
    from .harness import _atomic_write
    from .problem import logistic_problem, solve_optimum

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
    except BrokenPipeError:  # stdout's reader is gone, as when `| head` has its lines: no error to report
        devnull = os.open(os.devnull, os.O_WRONLY)  # stdout writes there now, so the flush at exit stays quiet too
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a command that the signal ended
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
