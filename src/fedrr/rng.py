"""Counter-based random streams with stable, named derivation.

Every source of randomness in the package is a Philox generator keyed by a
SHA-256 hash of ``(root_seed, label, *parts)``.  Philox is counter-based, so
the same key yields the same stream on every platform and numpy version that
ships the bit generator.  Deriving streams by name (rather than by draw
order) means that adding a client, an algorithm, or a multiplier to an
experiment never perturbs the streams of the others.

A permutation's swap indices skip the ``Generator``: ``swap_indices`` re-keys
one private Philox per thread and takes numpy's bounded draws from its raw
words itself, so the indices are those that ``stream(...)`` would draw.
"""

from __future__ import annotations

import hashlib
import threading

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def stream_key(root_seed: int, label: str, *parts) -> int:
    """Derive a 128-bit Philox key from a root seed and a named context."""
    text = ":".join([str(int(root_seed)), label] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


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


def _bounded_draws(r: np.ndarray, uint32s) -> np.ndarray:
    """numpy's draws j ~ U{0..r-1}, as uint64, for each bound in the uint64 array ``r``, from the values ``uint32s`` reads.

    ``uint32s(k)`` returns at least k more 32-bit values of the stream, in
    order.  This is numpy's Lemire step for a bound 1 <= r < 2**32:
    j = (u*r) >> 32, unless (u*r) mod 2**32 < 2**32 mod r, when u is rejected
    and this draw and every later one move one value along the stream.
    """
    u = uint32s(len(r))
    done = []
    while True:
        prod = u[: len(r)] * r
        low = prod & 0xFFFF_FFFF
        # 2**32 mod r is below r, so only a draw with low < r may be rejected: rarely any
        rejected = np.flatnonzero(low < (1 << 32) % r) if np.count_nonzero(low < r) else ()
        if not len(rejected):
            return np.concatenate(done + [prod >> 32]) if done else prod >> 32
        p = rejected[0]
        done.append(prod[:p] >> 32)
        r, u = r[p:], u[p + 1 :]
        if len(u) < len(r):
            u = np.concatenate([u, uint32s(len(r) - len(u))])


def swap_indices(n: int, root_seed: int, label: str, *parts) -> np.ndarray:
    """The n-1 swap indices of a Fisher-Yates shuffle of range(n), from the named stream.

    Equal, bit for bit, to ``stream(root_seed, label, *parts).integers(0,
    np.arange(n, 1, -1))``, rejections included, as uint64: each raw Philox
    word gives its low 32 bits, then its high 32 bits, as numpy's
    ``next_uint32`` does.  No ``Generator`` is built.
    """
    bg = _keyed_philox(stream_key(root_seed, label, *parts))

    def uint32s(k):
        # both halves of ceil(k/2) words: explicit little-endian views put the low half first on any platform
        return bg.random_raw(-(-k // 2)).astype("<u8", copy=False).view("<u4")

    return _bounded_draws(np.arange(n, 1, -1, dtype=np.uint64), uint32s)


def derive_seed(root_seed: int, label: str, *parts) -> int:
    """Collapse a named context to a 63-bit integer seed (for manifests/logs)."""
    return stream_key(root_seed, label, *parts) & (2**63 - 1)
