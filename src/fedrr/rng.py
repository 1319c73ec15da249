"""Counter-based random streams with stable, named derivation.

Every source of randomness in the package is a Philox generator keyed by a
SHA-256 hash of ``(root_seed, label, *parts)``.  Philox is counter-based, so
the same key yields the same stream on every platform and numpy version that
ships the bit generator.  Deriving streams by name (rather than by draw order)
means that adding a client, an algorithm, or a multiplier to an experiment
never perturbs the streams of the others.

A permutation's swap indices mostly skip the ``Generator``: ``swap_indices``
re-keys one private Philox per thread and takes Lemire's bounded draws from
its raw words itself, in Python integers up to ``SHORT_PERMUTATION`` elements
and in numpy arrays beyond.  The rare permutation with a draw that numpy might
reject is drawn again, from the start of the same stream, by numpy's own
``Generator.integers``, so the indices are always those of ``stream(...)``.
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


# each thread's Philox, re-keyed by every swap_indices call and never handed out
_local = threading.local()


def _keyed_philox(key: int) -> np.random.Philox:
    """This thread's Philox, set to the state of ``Philox(key=key)``: counter 0, empty buffers."""
    bg = getattr(_local, "philox", None)
    if bg is None:
        bg = _local.philox = np.random.Philox(_PhiloxKey(0))
    bg.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bg


# Permutations up to this length draw in Python integers, longer ones in numpy arrays: the
# paths cost the same near 32 elements.  A whole fisher_yates on a 2-core Xeon VM (Python
# 3.11, numpy 2.4), Python against numpy: 5.9 against 10.2 us at n = 4, 8.0 against 10.9 at
# 12, 12.6 against 12.5 at 32, 16.7 against 13.9 at 48.
SHORT_PERMUTATION = 32


def swap_indices(n: int, root_seed: int, label: str, *parts) -> list[int]:
    """The n-1 swap indices of a Fisher-Yates shuffle of range(n), from the named stream.

    Equal, bit for bit, to ``stream(root_seed, label, *parts).integers(0,
    np.arange(n, 1, -1))``, rejections included, as Python ints: each raw
    Philox word gives its low 32 bits, then its high 32 bits, as numpy's
    ``next_uint32`` does, and each draw is j = (u*r) >> 32 at bound r.

    2**32 mod r is below r, so a draw whose low word (u*r) mod 2**32 is at
    least r is never rejected.  Up to ``SHORT_PERMUTATION`` elements the
    ⌈(n-1)/2⌉ words' draws are Python integers, beyond it numpy arrays.  A
    permutation with any other draw (one in about 2**33 / n**2) re-keys the
    Philox and hands it to ``Generator.integers``, which applies numpy's
    rejection rule to the same words.
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
    else:
        r = np.arange(n, 1, -1, dtype=np.uint64)
        # both halves of the n // 2 words: explicit little-endian views put the low half first on any platform
        prod = _keyed_philox(key).random_raw(n // 2).astype("<u8", copy=False).view("<u4")[: n - 1] * r
        if not np.count_nonzero(prod & 0xFFFF_FFFF < r):
            return (prod >> 32).tolist()
    return np.random.Generator(_keyed_philox(key)).integers(0, np.arange(n, 1, -1)).tolist()


def derive_seed(root_seed: int, label: str, *parts) -> int:
    """Collapse a named context to a 63-bit integer seed (for manifests/logs)."""
    return stream_key(root_seed, label, *parts) & (2**63 - 1)
