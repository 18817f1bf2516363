"""Measured counterparts of the quantities the generalization analysis uses.

Task-pair gaps (max gradient / Hessian discrepancy over a probed ball),
Lipschitz profiles of quadratic tasks, and the growth of the unrolled-loss
gradient gap with the unroll horizon.  These are diagnostics: maxima are
taken over finite probe sets with a stated radius, and the growth reference
curve is shape-only (its absolute constants are not recoverable), so it is
reported, never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cell import OptimizerParams, ParamStack, cell_forward, predict_update, random_params
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
    "LipschitzProfile",
    "GrowthReport",
    "power_iteration_norm",
    "gradient_gap_at",
    "measure_gaps",
    "input_sensitivity",
    "quadratic_lipschitz_profile",
    "gradient_gap_growth",
    "default_growth_report",
]


@dataclass
class GapReport:
    """Max gradient / Hessian-action discrepancy between two tasks."""

    grad_gap: float
    hess_gap: float
    n_probes: int
    probe_radius: float

    def to_json_dict(self) -> dict:
        return {
            "grad_gap": self.grad_gap,
            "hess_gap": self.hess_gap,
            "n_probes": self.n_probes,
            "probe_radius": self.probe_radius,
        }


@dataclass
class LipschitzProfile:
    """Curvature summary of one quadratic task plus the update rule's gain.

    `amplification` is 1 + input_sensitivity * grad_lipschitz: the per-step
    factor by which task differences can compound through an unroll.
    """

    grad_lipschitz: float  # largest eigenvalue of A^T A
    hess_lipschitz: float  # exactly 0 for quadratics
    loss_lipschitz: float  # bound on ||grad|| over the stated ball
    input_sensitivity: float  # probed Lipschitz constant of the update in its input
    amplification: float
    domain_radius: float

    def to_json_dict(self) -> dict:
        return {
            "grad_lipschitz": self.grad_lipschitz,
            "hess_lipschitz": self.hess_lipschitz,
            "loss_lipschitz": self.loss_lipschitz,
            "input_sensitivity": self.input_sensitivity,
            "amplification": self.amplification,
            "domain_radius": self.domain_radius,
        }


@dataclass
class GrowthReport:
    """Measured unrolled-gradient gap per horizon, with a shape reference."""

    horizons: list[int]
    mean_gaps: np.ndarray
    reference: np.ndarray  # scaled to match mean_gaps at the first horizon
    pair_gaps: np.ndarray  # (n_pairs, len(horizons))
    nondecreasing_fraction: float
    amplification: float
    grad_gap: float
    hess_gap: float

    def to_json_dict(self) -> dict:
        return {
            "horizons": list(self.horizons),
            "mean_gaps": self.mean_gaps.tolist(),
            "reference": self.reference.tolist(),
            "nondecreasing_fraction": self.nondecreasing_fraction,
            "amplification": self.amplification,
            "grad_gap": self.grad_gap,
            "hess_gap": self.hess_gap,
        }

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("horizon,mean_gap,reference\n")
            for t, g, r in zip(self.horizons, self.mean_gaps, self.reference):
                fh.write(f"{t},{g:.17g},{r:.17g}\n")


def power_iteration_norm(task_or_matvec, dim: int | None = None, iters: int = 5000, tol: float = 1e-14) -> float:
    """Largest eigenvalue of a symmetric PSD operator by power iteration.

    Accepts either a quadratic/lasso task (operator A^T A) or a callable
    v -> M v with an explicit `dim`.
    """
    if isinstance(task_or_matvec, OptimizeeTask):
        task = task_or_matvec
        op = lambda v: task.a.T @ (task.a @ v)
        dim = task.dim
    else:
        op = task_or_matvec
        if dim is None:
            raise ValueError("dim is required with a callable operator")
    v = RngStream(0).child("power-iteration").gen.normal(size=dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = op(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        new_lam = float(v @ w)
        v = w / norm
        if abs(new_lam - lam) <= tol * max(abs(new_lam), 1e-300):
            return new_lam
        lam = new_lam
    return lam


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


def input_sensitivity(
    params: OptimizerParams,
    n_pairs: int = 256,
    z_scale: float = 3.0,
    rng: RngStream | None = None,
) -> float:
    """Probed Lipschitz constant of the one-step update in its feature input.

    Probes a fresh-state single coordinate with Gaussian feature pairs; no
    closed form exists for the recurrent cell, so this is an empirical
    lower bound.
    """
    if rng is None:
        rng = RngStream(0).child("input-sensitivity")
    fdim = params.feature_dim
    stack = ParamStack.of([params])
    h = np.zeros((1, 1, params.hidden))
    c = np.zeros((1, 1, params.hidden))

    def update_for(z):
        h2, _, _ = cell_forward(stack, z.reshape(1, 1, fdim), h, c)
        return float(predict_update(stack, h2)[0, 0, 0])

    best = 0.0
    for _ in range(n_pairs):
        z1 = rng.gen.normal(scale=z_scale, size=fdim)
        z2 = rng.gen.normal(scale=z_scale, size=fdim)
        dz = np.linalg.norm(z1 - z2)
        if dz < 1e-12:
            continue
        best = max(best, abs(update_for(z1) - update_for(z2)) / dz)
    return best


def quadratic_lipschitz_profile(
    task: OptimizeeTask, domain_radius: float, params: OptimizerParams
) -> LipschitzProfile:
    """Curvature constants of a quadratic task over a ball of a given radius."""
    if task.kind != QUADRATIC:
        raise ValueError(f"lipschitz profile is defined for quadratic tasks, got {task.kind}")
    grad_l = power_iteration_norm(task)
    loss_l = grad_l * domain_radius + float(np.linalg.norm(task.a.T @ task.b))
    m1 = input_sensitivity(params)
    return LipschitzProfile(
        grad_lipschitz=grad_l,
        hess_lipschitz=0.0,
        loss_lipschitz=loss_l,
        input_sensitivity=m1,
        amplification=1.0 + m1 * grad_l,
        domain_radius=domain_radius,
    )


def gradient_gap_growth(
    params: OptimizerParams,
    dist_pair: tuple[TaskDistribution, TaskDistribution],
    horizons,
    n_probes: int,
    rng: RngStream,
    gap_probe_radius: float | None = None,
    gap_probes: int = 64,
) -> GrowthReport:
    """How the unrolled-loss gradient gap between two task sources grows with T.

    For each probe a task pair and a shared starting iterate are drawn; the
    gap is the norm of the difference of the weight gradients of the two
    unrolled losses.  The reference curve T*Q^(T-1)*hess_gap + Q^(2T-1)*grad_gap
    is built from measured constants and scaled to the first measured point;
    it conveys shape only.
    """
    horizons = list(horizons)
    if not horizons:
        raise ValueError("horizons must be nonempty")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError(f"horizons must be strictly ascending, got {horizons}")
    dist1, dist2 = dist_pair
    if dist1.dim != dist2.dim:
        raise ValueError("distributions must share a dimension")
    if gap_probe_radius is None:
        gap_probe_radius = 2.0 * math.sqrt(dist1.dim)

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
        gaps = measure_gaps(
            task1, task2, gap_probe_radius, gap_probes, rng.child(f"gaps/{p}")
        )
        grad_gaps[p] = gaps.grad_gap
        hess_gaps[p] = gaps.hess_gap
        lmax = max(power_iteration_norm(task1), power_iteration_norm(task2))
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


def default_growth_report(seed: int = 0) -> GrowthReport:
    """The stock growth diagnostic: quadratic pairs at two coefficient scales."""
    rng = RngStream(seed)
    params = random_params(8, 2, rng.child("growth-params"))
    dist1 = TaskDistribution(kind=NORMAL, family=QUADRATIC, dim=5, lam=0.0, sigma=1.0)
    dist2 = TaskDistribution(kind=NORMAL, family=QUADRATIC, dim=5, lam=0.0, sigma=2.0)
    return gradient_gap_growth(
        params,
        (dist1, dist2),
        horizons=(1, 2, 3, 5, 8, 12),
        n_probes=20,
        rng=rng.child("growth-probes"),
    )
