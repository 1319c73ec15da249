"""Command-line entry points: run experiments, verify variance formulas,
solve optima.

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

import numpy as np

from .dataset import DatasetError, load_libsvm_file, partition
from .harness import ConfigError, ExperimentConfig, _atomic_write, run_experiment
from .optimizer import DivergenceError
from .problem import ProblemError, SolverError, logistic_problem, solve_optimum
from .rng import stream
from .variance_lab import EnumerationTooLarge, _guarded_outcomes, max_rel_errors

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


# (input, k) rows checked in one batch. A row takes about 190 bytes at its peak, but a batch also holds its inputs'
# padded moment stacks and normals: a warm --max-size 8 --inputs 300 call peaks at 1.4 MB with 512 rows and at 5.0 MB
# with 4,096, past the 2.2 MB of the per-input loop that it must stay under (x86-64, Python 3.11, numpy 2.4.6)
CHECK_ROWS = 512
# steps a finished verify-variance plan may hold and still be kept for the next call with its (max-size, inputs); a
# plan past it, such as one of a --max-size whose skipped geometries run into the thousands, is replayed by no call
PLAN_STEPS = 256
_PLANS = {}  # finished plans by (max_size, inputs), oldest first: at most 8, about 1.3 MB at the largest plans


def _verify_plan(max_size: int, inputs: int):
    """Yield verify-variance's steps in (M, N) scan order: ``(where, draws, runs, part, lines)``.

    A step draws ``draws`` normals in one ``standard_normal`` call (none: it reads the last draw again), then checks
    the ``part`` slice of the flat draw as one ``max_rel_errors`` batch of these (M, N, C, count) ``runs``, or, with
    no runs, prints its skip ``lines``; ``where`` is the (M, N) that a draw past memory names.  Admitted (M, N)
    blocks wait whole in a batch of at most ``CHECK_ROWS`` (input, k) rows, drawn at once when the next block does
    not fit, at a skipped (M, N) and at the end; numpy fills one call as it fills consecutive calls, so the stream
    moves as one normal call per input would move it.  A block past the budget is drawn alone and checked C by C, in
    slices of as many inputs as fit; a skipped (M, N) draws its block and prints one line per C.  Steps come one at a
    time, so a huge --max-size or --inputs starts at once.
    """
    batch, rows = (), 0  # (M, N, C, count) runs of admitted inputs not yet drawn, and their (input, k) rows
    for M in range(1, max_size + 1):
        Cs = [c for c in range(1, M + 1) if M % c == 0]
        for N in range(1, max_size // M + 1):
            # every input of (M, N), C by C, takes M*N*2 normals, whether it is checked or skipped
            size, block_rows = M * N * 2, inputs * sum(N * M // C for C in Cs)
            try:  # the outcome count, so the guard's verdict, depends on M and N alone
                _guarded_outcomes(M, N)
                skip = None
            except EnumerationTooLarge as exc:
                skip = tuple(f"M={M} N={N} C={C}: skipped ({exc})" for C in Cs)
            if batch and (skip or rows + block_rows > CHECK_ROWS):  # a batch takes whole blocks only
                yield _batch_step(batch)
                batch, rows = (), 0
            if skip:
                yield (M, N), len(Cs) * inputs * size, (), None, skip
            elif block_rows <= CHECK_ROWS:
                batch += tuple((M, N, C, inputs) for C in Cs)
                rows += block_rows
            else:
                for i, C in enumerate(Cs):
                    step = CHECK_ROWS // (N * M // C)
                    for first in range(0, inputs, step):
                        count, start = min(step, inputs - first), (i * inputs + first) * size
                        draws = len(Cs) * inputs * size if i == first == 0 else 0
                        yield (M, N), draws, ((M, N, C, count),), slice(start, start + count * size), ()
    if batch:
        yield _batch_step(batch)


def _batch_step(batch):
    """The step that draws all of a batch's normals in one call and checks them all."""
    return batch[-1][:2], sum(M * N * count for M, N, _, count in batch) * 2, batch, slice(None), ()


def _cmd_verify(args) -> int:
    for bad, message in (
        (args.max_size < 1, f"--max-size must be at least 1, got {args.max_size}"),
        (args.inputs < 1, f"--inputs must be at least 1, got {args.inputs}"),
        (not (math.isfinite(args.tol) and args.tol > 0), f"--tol must be finite and positive, got {args.tol}"),
    ):
        if bad:
            raise ConfigError(message)
    key = (args.max_size, args.inputs)
    plan = _PLANS.get(key)
    kept = [] if plan is None else None  # the steps run so far, while they fit PLAN_STEPS
    rng = stream(args.seed, "verify_variance")
    worst, failures = 0.0, 0
    for step in _verify_plan(*key) if plan is None else plan:
        (M, N), draws, runs, part, lines = step
        if kept is not None and len(kept) < PLAN_STEPS:
            kept.append(step)
        else:
            kept = None  # a replay, or a plan past PLAN_STEPS steps: nothing to keep, in O(1) memory
        if draws:
            try:
                normals = rng.standard_normal(draws)
            except (MemoryError, ValueError):  # numpy raises ValueError for a size past its index range
                raise ConfigError(f"--inputs {args.inputs} takes {draws} draws at M={M} N={N}, more than fit in memory") from None
        if runs:
            heads, errors = max_rel_errors(runs, normals[part].reshape(-1, 2))
            worst = max(worst, *errors)
            failed = [not error <= args.tol for error in errors]  # a NaN error fails
            failures += sum(failed)
            print("\n".join(f"{head}{error:.3e} {'FAIL' if bad else 'ok'}" for head, error, bad in zip(heads, errors, failed)))
        else:
            print("\n".join(lines))
    if kept is not None:
        if len(_PLANS) >= 8:
            del _PLANS[next(iter(_PLANS))]
        _PLANS[key] = tuple(kept)
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
