import importlib

import numpy as np
import pytest

from ml2o.cell import random_params
from ml2o.numeric import RngStream
from ml2o.tasks import QUADRATIC, OptimizeeTask


@pytest.fixture
def rng():
    return RngStream(20240817)


def make_quadratic(rng: RngStream, dim: int) -> OptimizeeTask:
    a = rng.gen.normal(size=(dim, dim))
    b = rng.gen.normal(size=dim)
    return OptimizeeTask(kind=QUADRATIC, dim=dim, a=a, b=b)


def make_probe_params(rng: RngStream, hidden: int, feature_dim: int = 2):
    return random_params(hidden, feature_dim, rng)


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(want)), 1e-300)
    return float(np.linalg.norm(got - want)) / denom


@pytest.fixture
def poison_fd_minus_half(monkeypatch):
    """Make chosen minus-half rows of every finite-difference pair diverge.

    With alpha > 0 under fd_hvp_meta, every third stacked meta-gradient call
    is the +/- pair, whose second half holds the minus perturbations.  The
    returned function takes the rows to poison and returns the list of stack
    sizes seen, one per call.
    """
    # the package re-exports a function named `unroll` over the submodule
    unroll_mod = importlib.import_module("ml2o.unroll")
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
        return calls

    return install
