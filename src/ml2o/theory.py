"""Measured counterparts of the quantities the generalization analysis uses.

Task-pair gaps (max gradient / Hessian discrepancy over a probed ball) and
the growth of the unrolled-loss gradient gap with the unroll horizon.  These
are diagnostics: maxima are taken over finite probe sets with a stated
radius, and the growth reference curve is shape-only (its absolute
constants are not recoverable), so it is reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .cell import (
    FEATURE_DIM,
    ParamStack,
    cell_forward,
    predict_update,
    random_params,
)
from .numeric import RngStream
from .tasks import (
    NORMAL,
    QUADRATIC,
    OptimizeeTask,
    TaskDistribution,
    sample_task,
    sample_theta0,
)
from .unroll import meta_grad

__all__ = [
    "GapReport",
    "GrowthReport",
    "grad_lipschitz",
    "gradient_gap_at",
    "measure_gaps",
    "input_sensitivity",
    "default_growth_report",
]


@dataclass
class GapReport:
    """Max gradient / Hessian-action discrepancy between two tasks."""

    grad_gap: float
    hess_gap: float
    n_probes: int
    probe_radius: float


@dataclass
class GrowthReport:
    """Measured unrolled-gradient gap per horizon, with a shape reference."""

    horizons: list[int]
    mean_gaps: np.ndarray
    reference: np.ndarray  # scaled to match mean_gaps at the first horizon
    pair_gaps: np.ndarray  # (n_probes, len(horizons))
    nondecreasing_fraction: float
    amplification: float
    grad_gap: float
    hess_gap: float

    def to_json_dict(self) -> dict:
        """Every field but the per-pair gaps."""
        return {k: v for k, v in asdict(self).items() if k != "pair_gaps"}

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("horizon,mean_gap,reference\n")
            for t, g, r in zip(self.horizons, self.mean_gaps, self.reference):
                fh.write(f"{t},{g:.17g},{r:.17g}\n")


def grad_lipschitz(task: OptimizeeTask) -> float:
    """Largest eigenvalue of a quadratic/lasso task's A^T A."""
    return float(np.linalg.eigvalsh(task.a.T @ task.a)[-1])


def gradient_gap_at(task1: OptimizeeTask, task2: OptimizeeTask, theta: np.ndarray) -> float:
    """||grad_1(theta) - grad_2(theta)|| at one probe point."""
    return float(np.linalg.norm(task1.grad(theta) - task2.grad(theta)))


def _ball_probe(rng: RngStream, dim: int, radius: float) -> np.ndarray:
    x = rng.gen.normal(size=dim)
    x /= max(np.linalg.norm(x), 1e-300)
    r = radius * rng.gen.random() ** (1.0 / dim)
    return r * x


def measure_gaps(
    task1: OptimizeeTask,
    task2: OptimizeeTask,
    probe_radius: float,
    n_probes: int,
    rng: RngStream,
) -> GapReport:
    """Estimate the max gradient/Hessian discrepancy over a probed ball.

    The Hessian gap probes random unit directions, so it is a lower-bound
    surrogate for the spectral-norm gap.  Swapping the tasks leaves both
    numbers unchanged.
    """
    if task1.dim != task2.dim:
        raise ValueError(
            f"tasks must share a dimension, got {task1.dim} and {task2.dim}"
        )
    grad_gap = 0.0
    hess_gap = 0.0
    for _ in range(n_probes):
        theta = _ball_probe(rng, task1.dim, probe_radius)
        grad_gap = max(grad_gap, gradient_gap_at(task1, task2, theta))
        v = rng.gen.normal(size=task1.dim)
        v /= max(np.linalg.norm(v), 1e-300)
        hess_gap = max(
            hess_gap,
            float(np.linalg.norm(task1.hvp(theta, v) - task2.hvp(theta, v))),
        )
    return GapReport(
        grad_gap=grad_gap,
        hess_gap=hess_gap,
        n_probes=n_probes,
        probe_radius=probe_radius,
    )


def input_sensitivity(params: ParamStack) -> float:
    """Probed Lipschitz constant of the one-step update in its feature input.

    Probes a fresh-state single coordinate with 256 pairs of N(0, 3^2)
    feature draws from a fixed stream; no closed form exists for the
    recurrent cell, so this is an empirical lower bound.
    """
    params.check_single("input_sensitivity")
    rng = RngStream(0).child("input-sensitivity")
    h = np.zeros((1, 1, params.hidden))
    c = np.zeros((1, 1, params.hidden))

    def update_for(z):
        x = np.concatenate([z.reshape(1, 1, FEATURE_DIM), h], axis=2)
        h2, _, _ = cell_forward(params, x, c)
        return float(predict_update(params, h2)[0, 0, 0])

    best = 0.0
    for _ in range(256):
        z1 = rng.gen.normal(scale=3.0, size=FEATURE_DIM)
        z2 = rng.gen.normal(scale=3.0, size=FEATURE_DIM)
        dz = np.linalg.norm(z1 - z2)
        if dz < 1e-12:
            continue
        best = max(best, abs(update_for(z1) - update_for(z2)) / dz)
    return best


def default_growth_report(seed: int = 0) -> GrowthReport:
    """How the unrolled-loss gradient gap between two task sources grows with T.

    The sources are quadratic tasks of dimension 5 whose coefficients are
    N(0, 1) and N(0, 2^2), and the cell has 8 hidden units.  For each of 20
    probes a task pair and a shared starting iterate are drawn; the gap at
    horizon T is the norm of the difference of the weight gradients of the
    two unrolled losses.  The reference curve
    T*Q^(T-1)*hess_gap + Q^(2T-1)*grad_gap is built from measured constants
    and scaled to the first measured point; it conveys shape only.  Each
    pair's gaps take 64 probes of the ball of radius 2*sqrt(dim).
    """
    rng = RngStream(seed)
    params = random_params(8, rng.child("growth-params"))
    dist1 = TaskDistribution(kind=NORMAL, family=QUADRATIC, dim=5, sigma=1.0)
    dist2 = TaskDistribution(kind=NORMAL, family=QUADRATIC, dim=5, sigma=2.0)
    horizons = [1, 2, 3, 5, 8, 12]
    n_probes = 20
    rng = rng.child("growth-probes")

    m1 = input_sensitivity(params)
    pair_gaps = np.zeros((n_probes, len(horizons)))
    references = np.zeros((n_probes, len(horizons)))
    grad_gaps = np.zeros(n_probes)
    hess_gaps = np.zeros(n_probes)
    amplifications = np.zeros(n_probes)
    for p in range(n_probes):
        task1 = sample_task(dist1, rng)
        task2 = sample_task(dist2, rng)
        theta0 = sample_theta0(dist1, rng)
        for j, t in enumerate(horizons):
            g1 = meta_grad(params, task1, theta0, t)
            g2 = meta_grad(params, task2, theta0, t)
            pair_gaps[p, j] = np.linalg.norm(g1 - g2)
        gaps = measure_gaps(task1, task2, 2.0 * math.sqrt(dist1.dim), 64, rng.child(f"gaps/{p}"))
        grad_gaps[p] = gaps.grad_gap
        hess_gaps[p] = gaps.hess_gap
        lmax = max(grad_lipschitz(task1), grad_lipschitz(task2))
        q = 1.0 + m1 * lmax
        amplifications[p] = q
        for j, t in enumerate(horizons):
            references[p, j] = (
                t * q ** (t - 1) * gaps.hess_gap + q ** (2 * t - 1) * gaps.grad_gap
            )

    mean_gaps = pair_gaps.mean(axis=0)
    reference = references.mean(axis=0)
    if reference[0] > 0 and mean_gaps[0] > 0:
        reference = reference * (mean_gaps[0] / reference[0])

    tol = 1e-12 * max(1.0, float(pair_gaps.max()))
    nondec = np.all(np.diff(pair_gaps, axis=1) >= -tol, axis=1)
    return GrowthReport(
        horizons=horizons,
        mean_gaps=mean_gaps,
        reference=reference,
        pair_gaps=pair_gaps,
        nondecreasing_fraction=float(np.mean(nondec)),
        amplification=float(amplifications.mean()),
        grad_gap=float(grad_gaps.mean()),
        hess_gap=float(hess_gaps.mean()),
    )
