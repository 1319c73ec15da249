"""Counter-based random streams with stable, named derivation.

Every source of randomness in the package is a Philox generator keyed by a
SHA-256 hash of ``(root_seed, label, *parts)``.  Philox is counter-based, so
the same key yields the same stream on every platform and numpy version that
ships the bit generator.  Deriving streams by name (rather than by draw order)
means that adding a client, an algorithm, or a multiplier to an experiment
never perturbs the streams of the others.

A permutation of more than ``SHORT_PERMUTATION`` elements is numpy's C
shuffle on this thread's private Philox, fed the stream's own values
(``shuffled_range``); a shorter one, or one of at most ``FLOYD_CHOICE``
elements with a rejected draw, is swapped in Python over ``swap_indices``.
Either way the swaps are those of ``stream(...)``.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def stream_key(root_seed: int, label: str, *parts) -> int:
    """Derive a 128-bit Philox key: SHA-256 of ``"root_seed:label:part..."``, its first 16 bytes little-endian."""
    # concatenation, not formatting: a label that is not a str raises TypeError
    text = str(int(root_seed)) + ":" + label + "".join([":" + str(p) for p in parts])
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:16], "little")


class _PhiloxKey(ISeedSequence):
    """A seed sequence that holds a 128-bit key as the two little-endian words Philox asks for.

    ``Philox(_PhiloxKey(k))`` has the state of ``Philox(key=k)``, without the
    OS-entropy ``SeedSequence`` that numpy draws for a generator built from a key.
    """

    def __init__(self, key: int):
        self.words = np.array([key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key holds exactly two uint64 words")
        return self.words.copy()


def stream(root_seed: int, label: str, *parts) -> np.random.Generator:
    """Return an independent generator for the named (seed, label, parts) context."""
    key = _PhiloxKey(stream_key(root_seed, label, *parts))
    return np.random.Generator(np.random.Philox(key))


# each thread's Philox, re-keyed by every swap_indices and shuffled_range call and never handed out
_local = threading.local()


def _keyed_philox(key: int, counter: tuple = (0, 0, 0, 0), buffer_pos: int = 4, has_uint32: int = 0) -> np.random.Philox:
    """This thread's Philox under ``key``, by default in the state of ``Philox(key=key)``: counter 0, empty buffers.

    Philox increments its counter before it fills its 4-word buffer, so the
    stream's first block is at counter 1.  Buffered words and the spare half
    are all ones, which a bounded draw never rejects: the leftover of an
    all-ones half, 2**32 - r, is at least r.
    """
    bg = getattr(_local, "philox", None)
    if bg is None:
        bg = _local.philox = np.random.Philox(_PhiloxKey(0))
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": (key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64)},
        "buffer": (0xFFFF_FFFF_FFFF_FFFF,) * 4,
        "buffer_pos": buffer_pos,
        "has_uint32": has_uint32,
        "uinteger": 0xFFFF_FFFF,
    }
    return bg


# Permutations up to this length swap in Python over swap_indices' Python-integer draws, longer ones in numpy's
# C shuffle: on a 2-core AMD EPYC VM a whole fisher_yates took 6.3 against 6.4 us at n = 32, 6.8 against 6.5 at 48
SHORT_PERMUTATION = 32


def swap_indices(n: int, root_seed: int, label: str, *parts) -> list[int]:
    """The n-1 swap indices of a Fisher-Yates shuffle of range(n), from the named stream.

    Equal, bit for bit, to ``stream(root_seed, label, *parts).integers(0,
    np.arange(n, 1, -1))``, rejections included, as Python ints.  Up to
    ``SHORT_PERMUTATION`` elements each raw Philox word gives its low 32 bits,
    then its high 32 bits, as numpy's ``next_uint32`` does, and each draw is
    j = (u*r) >> 32 at bound r.  2**32 mod r is below r, so a draw whose low
    word (u*r) mod 2**32 is at least r is never rejected.  After any other
    draw (one in about 2**33 / n**2 permutations), and for longer ones,
    ``Generator.integers`` draws from the re-keyed Philox by numpy's rule.
    """
    key = stream_key(root_seed, label, *parts)
    if n <= SHORT_PERMUTATION:
        # a word's low half draws at bound r, its high half at r - 1; an even n's last word keeps only its low half
        draws, r = [], n
        for w in _keyed_philox(key).random_raw(n // 2).tolist():
            p = (w & 0xFFFF_FFFF) * r
            if p & 0xFFFF_FFFF < r:
                break
            draws.append(p >> 32)
            if r == 2:
                return draws
            p = (w >> 32) * (r - 1)
            if p & 0xFFFF_FFFF < r - 1:
                break
            draws.append(p >> 32)
            r -= 2
        else:
            return draws
    return np.random.Generator(_keyed_philox(key)).integers(0, np.arange(n, 1, -1)).tolist()


# numpy's Generator.choice(n, n, replace=False) runs Floyd's algorithm up to this n, a tail shuffle beyond it
FLOYD_CHOICE = 10_000


def shuffled_range(n: int, root_seed: int, label: str, *parts) -> np.ndarray | None:
    """range(n) shuffled in numpy's C loop with the swaps of ``swap_indices``, or None if a draw was rejected.

    ``Generator.choice(n, n, replace=False)`` ends with the swap loop of
    ``shuffling.fisher_yates``, by numpy's own bounded draw; past
    ``FLOYD_CHOICE`` elements that is all it does, so it runs on the stream.
    Up to it, Floyd's algorithm first makes n-1 draws at bounds 2..n, whose
    result is range(n) whatever they are, so the Philox starts that many draws
    before the stream.  A rejected draw in either phase, or a numpy whose
    ``choice`` draws otherwise, leaves the Philox off the state n-1 draws into
    the stream: then the result is None.
    """
    key = stream_key(root_seed, label, *parts)
    if n > FLOYD_CHOICE:
        return np.random.Generator(_keyed_philox(key)).choice(n, n, replace=False)
    # n-1 draws before the stream: (n-1) mod 2 from the spare half, s buffered words, then the
    # blocks at counters -q+1 .. 0, the counter -q mod 2**256 written as four little-endian words
    q, s = divmod((n - 1) // 2, 4)
    counter = (-q % 2**64, 2**64 - 1, 2**64 - 1, 2**64 - 1) if q else (0, 0, 0, 0)
    bg = _keyed_philox(key, counter, 4 - s, (n - 1) % 2)
    perm = np.random.Generator(bg).choice(n, n, replace=False)
    state = bg.state
    # n-1 draws read ⌈(n-1)/2⌉ words, the last of them from the block at counter ⌈words/4⌉
    words = n // 2
    blocks = -(-words // 4)
    at = (state["state"]["counter"].tolist(), state["buffer_pos"], state["has_uint32"])
    return perm if at == ([blocks, 0, 0, 0], words - 4 * blocks + 4, (n - 1) % 2) else None


def derive_seed(root_seed: int, label: str, *parts) -> int:
    """Collapse a named context to a 63-bit integer seed (for manifests/logs)."""
    return stream_key(root_seed, label, *parts) & (2**63 - 1)
