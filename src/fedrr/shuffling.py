"""Permutations and cohort schedules.

The participation scheme is "regularized": every meta-epoch the M clients are
partitioned into R = M/C disjoint cohorts of size C, so each client trains
exactly once per meta-epoch.  Client and data permutations can each be drawn
once up front (shuffle-once), redrawn every meta-epoch (reshuffling), or, for
the client level, supplied as a fixed deterministic schedule; the optimizer's
round plan picks the stream epoch that each builder here draws.  Data
permutations are drawn lazily, only for the clients that train.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .rng import swap_indices


class ScheduleError(ValueError):
    """Invalid cohort geometry or deterministic schedule."""


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


@dataclass(frozen=True)
class CohortSchedule:
    """Disjoint cohorts for one meta-epoch: ``cohorts[r]`` holds C client ids."""

    cohorts: tuple[tuple[int, ...], ...]


def fisher_yates(n: int, root_seed: int, label: str, *parts) -> np.ndarray:
    """Uniform permutation of range(n) from the named stream, draw for draw the scalar swap loop's.

    Swap i (for i = n-1 down to 1) exchanges positions i and j ~ U{0..i}.  The
    n-1 indices j are ``rng.swap_indices``: the draws that n-1 scalar
    ``stream(root_seed, label, *parts).integers(0, i + 1)`` calls would make.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), swap_indices(n, root_seed, label, *parts).tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def build_cohort_schedule(M: int, C: int, stream_epoch: int, seed: int) -> CohortSchedule:
    """One partition of the M clients into M/C cohorts of C, from the client permutation of ``stream_epoch``."""
    if M % C != 0:
        raise ScheduleError(f"cohort size {C} does not divide client count {M}")
    perm = fisher_yates(M, seed, "client_perm", stream_epoch)
    return CohortSchedule(tuple(tuple(int(m) for m in perm[r * C : (r + 1) * C]) for r in range(M // C)))


def check_fixed_schedule(M: int, C: int, schedule) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """``schedule`` with int client ids, once every epoch is checked to split range(M) into M/C cohorts of C."""
    if not schedule:
        raise ScheduleError("deterministic client mode requires a fixed schedule")
    for epoch_plan in schedule:
        flat = [m for cohort in epoch_plan for m in cohort]
        if len(epoch_plan) != M // C or any(len(c) != C for c in epoch_plan) or sorted(flat) != list(range(M)):
            raise ScheduleError("fixed schedule is not a partition of clients into R cohorts of C")
    return tuple(tuple(tuple(int(m) for m in cohort) for cohort in epoch_plan) for epoch_plan in schedule)


class DataPermutations(dict):
    """One epoch's per-client data permutations, each drawn on first access.

    ``perms[m]`` is client m's permutation of range(N) from its own named
    stream (seed, "data_perm", t, m).  No draw depends on another, so drawing
    only the clients that train, in whatever order they train, yields the same
    permutations as drawing all M up front.
    """

    def __init__(self, N: int, t: int, seed: int):
        super().__init__()
        self.N, self.t, self.seed = N, t, seed

    def __missing__(self, m: int) -> np.ndarray:
        perm = self[m] = fisher_yates(self.N, self.seed, "data_perm", self.t, m)
        return perm


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
