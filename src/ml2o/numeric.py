"""Seeded, splittable random streams, array digests, finite differences and
the numeric environment.

Everything downstream (task sampling, parameter init, evaluation seeds)
draws from :class:`RngStream`, a counter-based generator whose children
are derived by hashing labels into fresh Philox keys.  Deriving a child
never consumes draws from the parent, so the draw order of one module
cannot perturb another.  The laws of the draws live with their users:
`tasks.sample_task` holds the task law.
"""

from __future__ import annotations

import functools
import hashlib
from typing import NamedTuple

import numpy as np

__all__ = [
    "NumericEnvironment",
    "RngStream",
    "array_digest",
    "central_diff",
    "numeric_environment",
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

    def unread(self) -> bool:
        """Whether nothing has been drawn yet: every draw advances Philox's counter."""
        return not self.gen.bit_generator.state["state"]["counter"].any()

    def derive_seed(self, label) -> int:
        """Stable 64-bit integer for `label`, e.g. to seed a sub-config."""
        key = _derive_key(self.key, str(label).encode("utf-8"))
        return int.from_bytes(key[:8], "little")

    def __repr__(self) -> str:  # pragma: no cover
        return f"RngStream(key={self.key.hex()})"


def array_digest(*arrays) -> str:
    """128-bit blake2b hex digest of the arrays' C-order bytes, in argument order."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def central_diff(fn, x: np.ndarray, eps: float) -> np.ndarray:
    """Central differences (fn(x + eps e_i) - fn(x - eps e_i)) / (2 eps) for each entry i of x.

    The result has fn(x)'s shape plus a last axis of length x.size.
    """
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for i in range(x.size):
        up = x.copy()
        up.flat[i] += eps
        dn = x.copy()
        dn.flat[i] -= eps
        cols.append((np.asarray(fn(up)) - np.asarray(fn(dn))) / (2.0 * eps))
    return np.stack(cols, axis=-1)


class NumericEnvironment(NamedTuple):
    """The floating-point paths numpy takes on this host.

    Each part is ``"unknown"`` when it cannot be read.
    """

    simd: str  # enabled SIMD dispatch targets, comma-separated, or "none"
    blas_core: str  # the kernel OpenBLAS picked for this CPU

    def __str__(self) -> str:
        return f"simd={self.simd} blas={self.blas_core}"


# OpenBLAS's name for its core query in numpy >= 2 wheels, in older 64-bit
# wheels and in a plain build
_CORENAME_SYMBOLS = (
    "scipy_openblas_get_corename64_",
    "openblas_get_corename64_",
    "openblas_get_corename",
)


@functools.cache
def numeric_environment() -> NumericEnvironment:
    """Read the SIMD dispatch targets and the OpenBLAS core of this process.

    Both change the bits of ``tanh``, ``exp`` and ``matmul``, so results are
    reproducible only within one environment.  The dispatch targets honour
    ``NPY_DISABLE_CPU_FEATURES``, the core ``OPENBLAS_CORETYPE``.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    try:
        features = umath.__cpu_features__
        simd = ",".join(t for t in umath.__cpu_dispatch__ if features.get(t)) or "none"
    except AttributeError:
        simd = "unknown"
    return NumericEnvironment(simd, _blas_core(umath.__file__))


def _blas_core(extension_path: str) -> str:
    """OpenBLAS's core name, looked up through numpy's extension module, which links it."""
    import ctypes

    try:
        lib = ctypes.CDLL(extension_path)
    except OSError:
        return "unknown"
    for symbol in _CORENAME_SYMBOLS:
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_char_p
            name = fn()
            return name.decode("ascii", "replace") if name else "unknown"
    return "unknown"
