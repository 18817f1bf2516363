import importlib
import struct
import zlib

import numpy as np
import pytest

from ml2o.cell import ParamLayout
from ml2o.numeric import RngStream
from ml2o.tasks import QUADRATIC, OptimizeeTask


@pytest.fixture
def rng():
    return RngStream(20240817)


def make_quadratic(rng: RngStream, dim: int) -> OptimizeeTask:
    a = rng.gen.normal(size=(dim, dim))
    b = rng.gen.normal(size=dim)
    return OptimizeeTask(kind=QUADRATIC, dim=dim, a=a, b=b)


def write_checkpoint(path, hidden: int, feature_dim: int):
    """Hand-written all-zero checkpoint of any sizes, with a matching count and CRC."""
    count = ParamLayout(hidden, feature_dim).size
    payload = np.zeros(count, dtype="<f8").tobytes()
    path.write_bytes(
        b"ML2O" + struct.pack("<IIId", 1, hidden, feature_dim, 0.01) + struct.pack("<I", 0)
        + struct.pack("<Q", count) + payload + struct.pack("<I", zlib.crc32(payload))
    )
    return path


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(want)), 1e-300)
    return float(np.linalg.norm(got - want)) / denom


@pytest.fixture
def poison_fd_minus_half(monkeypatch):
    """Make chosen minus-half rows of every finite-difference pair diverge.

    With alpha > 0 under fd_hvp_meta, every third stacked meta-gradient call
    is the +/- pair, whose second half holds the minus perturbations.  The
    returned function takes the rows to poison and returns the list of stack
    sizes seen, one per call.  Training makes the first of the three calls
    itself and `maml_parts_stack` the other two, so both modules' names for
    the kernel are patched.
    """
    # the package re-exports a function named `unroll` over the submodule
    unroll_mod = importlib.import_module("ml2o.unroll")
    train_mod = importlib.import_module("ml2o.train")
    real = unroll_mod.meta_grad_stack

    def install(rows):
        calls = []

        def patched(params, tasks, theta0, horizon, mode):
            calls.append(params.size)
            if len(calls) % 3 == 0:
                theta0 = np.array(theta0, dtype=np.float64)
                theta0[[params.size // 2 + r for r in rows]] = np.nan
            return real(params, tasks, theta0, horizon, mode)

        monkeypatch.setattr(unroll_mod, "meta_grad_stack", patched)
        monkeypatch.setattr(train_mod, "meta_grad_stack", patched)
        return calls

    return install
