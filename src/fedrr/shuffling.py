"""Permutations, shuffle modes and fixed client schedules.

The participation scheme is "regularized": every meta-epoch the M clients are
partitioned into R = M/C disjoint cohorts of size C, so each client trains
exactly once per meta-epoch.  Client and data permutations can each be drawn
once up front (shuffle-once), redrawn every meta-epoch (reshuffling), or, for
the client level, supplied as a fixed deterministic schedule.  The optimizer's
round plan draws every cohort and data order with ``fisher_yates``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import SHORT_PERMUTATION, shuffled_range, swap_indices


class ScheduleError(ValueError):
    """An invalid deterministic client schedule."""


class ClientMode(Enum):
    SHUFFLE_ONCE = "shuffle_once"
    RESHUFFLING = "reshuffling"
    DETERMINISTIC_FIXED = "deterministic_fixed"


class DataMode(Enum):
    SHUFFLE_ONCE = "shuffle_once"
    RESHUFFLING = "reshuffling"


@dataclass(frozen=True)
class ShuffleMode:
    client_mode: ClientMode = ClientMode.SHUFFLE_ONCE
    data_mode: DataMode = DataMode.SHUFFLE_ONCE
    # rounds-per-epoch lists of client ids, one list of cohorts per meta-epoch;
    # reused cyclically when shorter than the run
    fixed_schedule: tuple[tuple[tuple[int, ...], ...], ...] | None = None


def fisher_yates(n: int, root_seed: int, label: str, *parts) -> np.ndarray:
    """Uniform permutation of range(n) from the named stream, draw for draw the scalar swap loop's.

    Swap i (for i = n-1 down to 1) exchanges positions i and j ~ U{0..i}, j
    drawn as n-1 scalar ``stream(root_seed, label, *parts).integers(0, i + 1)``
    calls would draw it.  Past ``SHORT_PERMUTATION`` elements numpy's C shuffle
    swaps (``rng.shuffled_range``); up to it, and after a rejected draw up to
    ``rng.FLOYD_CHOICE``, the Python loop swaps over ``rng.swap_indices``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > SHORT_PERMUTATION:
        perm = shuffled_range(n, root_seed, label, *parts)
        if perm is not None:
            return perm
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), swap_indices(n, root_seed, label, *parts)):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def check_fixed_schedule(M: int, C: int, schedule) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``schedule`` with int client ids, once every epoch is checked to split range(M) into M/C cohorts of C."""
    if schedule is None:
        raise ScheduleError("deterministic client mode requires a fixed schedule")
    if not schedule:
        raise ScheduleError("the fixed schedule lists no epoch")
    for epoch_plan in schedule:
        flat = [m for cohort in epoch_plan for m in cohort]
        if len(epoch_plan) != M // C or any(len(c) != C for c in epoch_plan) or sorted(flat) != list(range(M)):
            raise ScheduleError("fixed schedule is not a partition of clients into R cohorts of C")
    return tuple(tuple(tuple(int(m) for m in cohort) for cohort in epoch_plan) for epoch_plan in schedule)


def load_fixed_schedule(path) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Read a deterministic client schedule from a JSON array-of-arrays file.

    Layout: ``[epoch][round] -> [client ids]``; each id a JSON integer (not a
    bool, a fraction or a string).
    """
    with open(path) as fh:
        schedule = tuple(tuple(tuple(cohort) for cohort in epoch) for epoch in json.load(fh))
    bad = [m for epoch in schedule for cohort in epoch for m in cohort if type(m) is not int]  # bool is not int
    if bad:
        raise TypeError(f"client id {bad[0]!r} is not an integer")
    return schedule
