"""Counter-based random streams with stable, named derivation.

Every source of randomness in the package is a Philox generator keyed by a
SHA-256 hash of ``(root_seed, label, *parts)``.  Philox is counter-based, so
the same key yields the same stream on every platform and numpy version that
ships the bit generator.  Deriving streams by name (rather than by draw
order) means that adding a client, an algorithm, or a multiplier to an
experiment never perturbs the streams of the others.
"""

from __future__ import annotations

import hashlib

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


def derive_seed(root_seed: int, label: str, *parts) -> int:
    """Collapse a named context to a 63-bit integer seed (for manifests/logs)."""
    return stream_key(root_seed, label, *parts) & (2**63 - 1)
