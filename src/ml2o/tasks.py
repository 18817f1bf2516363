"""Synthetic optimization tasks and the distributions they are drawn from.

Three task families are supported:

* ``lasso``:     0.5 * ||A x - b||^2 + lam * ||x||_1
* ``quadratic``: 0.5 * ||A x - b||^2
* ``rosenbrock``: (x - 1)^2 + 100 * (y - x^2)^2, always 2-dimensional

A task instance is a frozen snapshot of its coefficients, so runs can be
replayed exactly from the JSON serialization.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .numeric import RngStream, gauss_sample, uniform_mixture_sample

__all__ = [
    "LASSO",
    "QUADRATIC",
    "ROSENBROCK",
    "MIXTURE",
    "NORMAL",
    "ROSENBROCK_INIT",
    "TRAIN_MIXTURE_RANGES",
    "OptimizeeTask",
    "TaskStack",
    "TaskDistribution",
    "sample_task",
    "sample_theta0",
]

LASSO = "lasso"
QUADRATIC = "quadratic"
ROSENBROCK = "rosenbrock"
_FAMILIES = (LASSO, QUADRATIC, ROSENBROCK)

# Mixture the coefficient matrices are drawn from during training:
# each entry picks one of the three uniform ranges at random.
TRAIN_MIXTURE_RANGES = ((0.0, 0.1), (0.0, 0.5), (0.0, 1.0))


@dataclass(frozen=True)
class OptimizeeTask:
    """One concrete task instance; immutable after construction."""

    kind: str
    dim: int
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    lam: float = 0.0
    provenance: str = ""

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == ROSENBROCK:
            if self.dim != 2:
                raise ValueError("rosenbrock tasks are 2-dimensional")
        else:
            if self.a is None or self.b is None:
                raise ValueError(f"{self.kind} task needs coefficients a and b")
            a = np.ascontiguousarray(self.a, dtype=np.float64)
            b = np.ascontiguousarray(self.b, dtype=np.float64)
            if a.shape != (self.dim, self.dim):
                raise ValueError(f"a has shape {a.shape}, expected {(self.dim, self.dim)}")
            if b.shape != (self.dim,):
                raise ValueError(f"b has shape {b.shape}, expected {(self.dim,)}")
            a.setflags(write=False)
            b.setflags(write=False)
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    def check_theta(self, theta: np.ndarray) -> np.ndarray:
        """`theta` as a float64 array, refused unless it is one iterate of this task."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.dim,):
            raise ValueError(
                f"theta has shape {theta.shape}, expected {(self.dim,)} for this task"
            )
        return theta

    def loss_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Loss and (sub)gradient at theta; see `TaskStack.loss_grad`."""
        theta = self.check_theta(theta)
        loss, grad = TaskStack([self]).loss_grad(theta.reshape(1, -1, 1))
        return float(loss[0]), grad.reshape(-1)

    def loss(self, theta: np.ndarray) -> float:
        return self.loss_grad(theta)[0]

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.loss_grad(theta)[1]

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian-vector product; the l1 term contributes zero almost everywhere."""
        theta = self.check_theta(theta)
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim,):
            raise ValueError(f"v has shape {v.shape}, expected {(self.dim,)}")
        return TaskStack([self]).hvp(theta.reshape(1, -1, 1), v.reshape(1, -1, 1)).reshape(-1)

    def hessian(self, theta: np.ndarray) -> np.ndarray:
        """Dense Hessian; constant A^T A for lasso/quadratic."""
        theta = self.check_theta(theta)
        if self.kind == ROSENBROCK:
            return _rosenbrock_hessian(theta[None])[0]
        return self.a.T @ self.a

    def hessian_matmul(self, theta: np.ndarray, m: np.ndarray) -> np.ndarray:
        """Hessian times a (dim, k) matrix, column by column in one shot."""
        if self.kind == ROSENBROCK:
            return self.hessian(theta) @ m
        return self.a.T @ (self.a @ m)

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "dim": self.dim,
            "lam": self.lam,
            "a": None if self.a is None else self.a.ravel().tolist(),
            "b": None if self.b is None else self.b.tolist(),
            "provenance": self.provenance,
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "OptimizeeTask":
        doc = json.loads(text)
        dim = int(doc["dim"])
        a = None if doc["a"] is None else np.array(doc["a"], dtype=np.float64).reshape(dim, dim)
        b = None if doc["b"] is None else np.array(doc["b"], dtype=np.float64)
        return cls(
            kind=doc["kind"],
            dim=dim,
            a=a,
            b=b,
            lam=float(doc["lam"]),
            provenance=doc.get("provenance", ""),
        )

    def digest(self) -> str:
        """Stable content hash, used to assert paired draws across methods."""
        return hashlib.blake2b(self.to_json().encode(), digest_size=16).hexdigest()


def _rosenbrock_hessian(theta: np.ndarray) -> np.ndarray:
    """Banana-function Hessians (B, 2, 2) at the rows of theta (B, 2)."""
    x, y = theta[:, 0], theta[:, 1]
    off = -400.0 * x
    hess = np.empty((theta.shape[0], 2, 2))
    hess[:, 0, 0] = 2.0 - 400.0 * y + 1200.0 * x * x
    hess[:, 0, 1] = off
    hess[:, 1, 0] = off
    hess[:, 1, 1] = 200.0
    return hess


class TaskStack:
    """B tasks of one family and dimension, evaluated together.

    Iterates and gradients are columns (B, dim, 1), slice i belonging to
    task i.  Each slice is computed with exactly the floating-point
    operations a lone task would use (the matrix products run per slice), so
    stacking never changes a result.
    """

    def __init__(self, tasks):
        tasks = list(tasks)
        if not tasks:
            raise ValueError("a task stack needs at least one task")
        kinds = {(t.kind, t.dim) for t in tasks}
        if len(kinds) != 1:
            raise ValueError(f"stacked tasks must share kind and dim, got {sorted(kinds)}")
        self.tasks = tasks
        self.kind, self.dim = kinds.pop()
        if self.kind != ROSENBROCK:
            self.a = np.stack([t.a for t in tasks])
            self.a_t = self.a.swapaxes(1, 2)
            self.b = np.stack([t.b for t in tasks])[:, :, None]
            self.lam = np.array([t.lam for t in tasks], dtype=np.float64)

    @property
    def size(self) -> int:
        return len(self.tasks)

    def take(self, index) -> "TaskStack":
        return TaskStack([self.tasks[i] for i in np.arange(self.size)[index]])

    def loss_grad(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Losses (B,) and (sub)gradient columns; sign(0) = 0 for the l1 term."""
        n = theta.shape[0]
        if self.kind == ROSENBROCK:
            x, y = theta[:, 0, 0], theta[:, 1, 0]
            gap = y - x * x
            # float_power is libm pow, as `** 2` on a float64 scalar is; the
            # array `** 2` squares instead and can differ in the last bit
            loss = np.float_power(x - 1.0, 2) + 100.0 * gap * gap
            grad = np.empty((n, 2, 1))
            grad[:, 0, 0] = 2.0 * (x - 1.0) - 400.0 * x * gap
            grad[:, 1, 0] = 200.0 * gap
            return loss, grad
        r = self.a @ theta - self.b
        loss = 0.5 * (r.reshape(n, 1, self.dim) @ r).reshape(n)
        grad = self.a_t @ r
        if self.kind == LASSO:
            loss = loss + self.lam * np.abs(theta).sum(axis=(1, 2))
            grad = grad + self.lam[:, None, None] * np.sign(theta)
        return loss, grad

    def hvp(self, theta: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Hessian-vector products of columns; the l1 term contributes zero almost everywhere."""
        if self.kind == ROSENBROCK:
            return _rosenbrock_hessian(theta[:, :, 0]) @ v
        return self.a_t @ (self.a @ v)


MIXTURE = "mixture"
NORMAL = "normal"
ROSENBROCK_INIT = "rosenbrock"
_DIST_KINDS = (MIXTURE, NORMAL, ROSENBROCK_INIT)


@dataclass(frozen=True)
class TaskDistribution:
    """A family of tasks plus the law of their coefficients.

    ``mixture`` draws A entries from the fixed three-range uniform mixture,
    ``normal`` draws them from N(0, sigma^2), and ``rosenbrock`` yields the
    fixed banana task (randomness enters through the initial point only).
    b entries are always N(0, 1): only the coefficient matrix shifts between
    distributions.
    """

    kind: str
    family: str = LASSO
    dim: int = 10
    lam: float = 0.005
    sigma: float = 0.0

    def __post_init__(self):
        if self.kind not in _DIST_KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.kind == NORMAL and not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"normal distribution requires a finite sigma > 0, got {self.sigma}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.kind == ROSENBROCK_INIT:
            if self.family != ROSENBROCK:
                object.__setattr__(self, "family", ROSENBROCK)
            object.__setattr__(self, "dim", 2)
        else:
            if self.family not in (LASSO, QUADRATIC):
                raise ValueError(
                    f"{self.kind} distribution supports lasso/quadratic, got {self.family!r}"
                )
            if self.dim < 1:
                raise ValueError(f"dim must be positive, got {self.dim}")

    def label(self) -> str:
        if self.kind == NORMAL:
            return f"{self.family}-normal(sigma={self.sigma:g})"
        if self.kind == MIXTURE:
            return f"{self.family}-mixture"
        return "rosenbrock"


def sample_task(dist: TaskDistribution, rng: RngStream) -> OptimizeeTask:
    """Draw one task. Order of draws: all of A (row-major), then all of b."""
    if dist.kind == ROSENBROCK_INIT:
        return OptimizeeTask(kind=ROSENBROCK, dim=2, provenance="rosenbrock")
    d = dist.dim
    if dist.kind == MIXTURE:
        entries = uniform_mixture_sample(rng, d * d, TRAIN_MIXTURE_RANGES)
    else:
        entries = gauss_sample(rng, d * d, 0.0, dist.sigma)
    a = entries.reshape(d, d)
    b = gauss_sample(rng, d, 0.0, 1.0)
    lam = dist.lam if dist.family == LASSO else 0.0
    return OptimizeeTask(
        kind=dist.family, dim=d, a=a, b=b, lam=lam, provenance=dist.label()
    )


def sample_theta0(dist: TaskDistribution, rng: RngStream) -> np.ndarray:
    """Standard-normal initial iterate of the distribution's dimension."""
    return gauss_sample(rng, dist.dim, 0.0, 1.0)
