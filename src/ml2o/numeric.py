"""Seeded, splittable random streams and the samplers built on them.

Everything downstream (task sampling, parameter init, evaluation seeds)
draws from :class:`RngStream`, a counter-based generator whose children
are derived by hashing labels into fresh Philox keys.  Deriving a child
never consumes draws from the parent, so the draw order of one module
cannot perturb another.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "RngStream",
    "gauss_sample",
    "uniform_mixture_sample",
]

_MASK64 = (1 << 64) - 1


def _derive_key(parent_key: bytes, label: bytes) -> bytes:
    return hashlib.blake2b(parent_key + b"/" + label, digest_size=16).digest()


class RngStream:
    """Deterministic random stream with labeled, order-independent splits.

    The stream wraps a Philox bit generator keyed by 128 bits derived from
    the seed.  ``child(label)`` hashes the label into a new key, so child
    streams are fixed by (seed, label path) alone: the same derivation
    always yields the same sequence, regardless of how many values were
    drawn from the parent or from sibling streams.
    """

    def __init__(self, seed: int = 0, _key: bytes | None = None):
        if _key is None:
            seed = int(seed) & _MASK64
            _key = _derive_key(seed.to_bytes(8, "little"), b"root")
        self.key = _key
        key_words = np.frombuffer(_key, dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key_words))

    def child(self, label) -> "RngStream":
        """Fresh stream for `label`; repeatable and independent of draw order."""
        return RngStream(_key=_derive_key(self.key, str(label).encode("utf-8")))

    def derive_seed(self, label) -> int:
        """Stable 64-bit integer for `label`, e.g. to seed a sub-config."""
        key = _derive_key(self.key, str(label).encode("utf-8"))
        return int.from_bytes(key[:8], "little")

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(key={self.key.hex()})"


def gauss_sample(rng: RngStream, n: int, mean: float = 0.0, sigma: float = 1.0) -> np.ndarray:
    """Draw n i.i.d. N(mean, sigma^2) values from the stream."""
    if n < 0:
        raise ValueError(f"gauss_sample: n must be nonnegative, got {n}")
    if sigma < 0:
        raise ValueError(f"gauss_sample: sigma must be nonnegative, got {sigma}")
    return rng.gen.normal(loc=mean, scale=sigma, size=n)


def uniform_mixture_sample(
    rng: RngStream, n: int, ranges: tuple[tuple[float, float], ...]
) -> np.ndarray:
    """Sample each entry by picking one (lo, hi) range uniformly, then U(lo, hi).

    Draw order is fixed: n range indices first, then n uniforms.
    """
    if n < 0:
        raise ValueError(f"uniform_mixture_sample: n must be nonnegative, got {n}")
    if len(ranges) == 0:
        raise ValueError("uniform_mixture_sample: empty range list")
    lows = np.array([r[0] for r in ranges], dtype=np.float64)
    highs = np.array([r[1] for r in ranges], dtype=np.float64)
    if np.any(lows >= highs):
        bad = int(np.argmax(lows >= highs))
        raise ValueError(
            f"uniform_mixture_sample: range {ranges[bad]} has lo >= hi"
        )
    idx = rng.gen.integers(0, len(ranges), size=n)
    u = rng.gen.random(n)
    return lows[idx] + u * (highs[idx] - lows[idx])
