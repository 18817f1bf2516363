import os
import struct
import zlib

import numpy as np
import pytest

import ml2o
from ml2o import unroll
from ml2o.cell import ParamStack
from ml2o.numeric import RngStream
from ml2o.tasks import QUADRATIC, OptimizeeTask


@pytest.fixture
def rng():
    return RngStream(20240817)


def make_quadratic(rng: RngStream, dim: int) -> OptimizeeTask:
    a = rng.gen.normal(size=(dim, dim))
    b = rng.gen.normal(size=dim)
    return OptimizeeTask(kind=QUADRATIC, dim=dim, a=a, b=b)


def write_checkpoint(path, hidden: int, feature_dim: int, output_scale: float = 0.01):
    """Hand-written all-zero checkpoint of any header values, with a matching count and CRC."""
    # the parameter count of a cell reading `feature_dim` features, which
    # `ParamLayout` (fixed at the cell's two) cannot give
    count = 4 * (feature_dim + hidden + 1) * hidden + hidden + 1
    payload = np.zeros(count, dtype="<f8").tobytes()
    path.write_bytes(
        b"ML2O" + struct.pack("<IIId", 1, hidden, feature_dim, output_scale) + struct.pack("<I", 0)
        + struct.pack("<Q", count) + payload + struct.pack("<I", zlib.crc32(payload))
    )
    return path


def set_curves_head(path, at: int, *values: int):
    """Overwrite i64 head fields of the curves entry at `path` from field `at` (0 is the
    task count n, then n cuts, n curve lengths and n text lengths) and recompute its CRC,
    so that a loader's checks past the checksum see the values."""
    body = bytearray(path.read_bytes()[:-4])
    struct.pack_into(f"<{len(values)}q", body, 8 + 8 * at, *values)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))


def with_proj(params: ParamStack, w_proj: float | None = None, b_proj: float | None = None):
    """`params` with every output projection weight, or its bias, set to one value."""
    flat, layout = params.flat.copy(), params.layout
    if w_proj is not None:
        flat[:, layout.proj_base : layout.b_proj_index] = w_proj
    if b_proj is not None:
        flat[:, layout.b_proj_index] = b_proj
    return ParamStack(flat, params.hidden)


def child_env(**overrides) -> dict:
    """Environment for a child interpreter that imports this checkout's `ml2o`."""
    src = os.path.dirname(os.path.dirname(ml2o.__file__))
    return dict(os.environ, PYTHONPATH=src, **overrides)


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(want)), 1e-300)
    return float(np.linalg.norm(got - want)) / denom


@pytest.fixture
def poison_fd_minus_half(monkeypatch):
    """Make chosen minus-half rows of every finite-difference pair diverge.

    With alpha > 0 under fd_hvp_meta, every third stacked meta-gradient call
    is the +/- pair, whose second half holds the minus perturbations.  The
    returned function takes the rows to poison and returns the list of stack
    sizes seen, one per call.  All three calls come from `maml_parts_stack`,
    which training makes once per epoch.
    """
    real = unroll.meta_grad_stack

    def install(rows):
        calls = []

        def patched(params, tasks, theta0, horizon, mode):
            calls.append(params.size)
            if len(calls) % 3 == 0:
                theta0 = np.array(theta0, dtype=np.float64)
                theta0[[params.size // 2 + r for r in rows]] = np.nan
            return real(params, tasks, theta0, horizon, mode)

        monkeypatch.setattr(unroll, "meta_grad_stack", patched)
        return calls

    return install
