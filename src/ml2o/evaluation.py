"""Evaluation of frozen optimizers: the test draws, the loss curves and their records.

Each `EvalGroup` draws its test tasks once from its own stream and shares
them by all its variants, so every method of a seed sees bit-identical test
draws.  `evaluate_groups` unrolls the variants in lockstep, renders the text
of each curve file (`render_curve`) and builds one `RunRecord` per variant
and task; its metric is `min_log_loss`, the minimum over the horizon of the
log objective, with exact zeros clamped at `LOG_FLOOR`.

A curve is the same function of its inputs wherever it is computed, so a
cache may serve it: `evaluate_groups` asks its caller's cache for the curves
it holds and unrolls only the rest.  The cache keys a curve by the source of
this module and of the modules it runs through (`store.TrainingCache.curves_key`),
so this module holds the curve computation and nothing else.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cell import ParamStack
from .numeric import RngStream, array_digest
from .tasks import TaskDistribution, TaskStack, sample_task, sample_theta0
from .train import DivergenceError
from .unroll import STACK_ROWS, row_stacks, unroll_stack

__all__ = [
    "LOG_FLOOR",
    "RunRecord",
    "min_log_loss",
    "EvalGroup",
    "evaluate_groups",
    "render_curve",
]

# Log losses are clamped from below here so exact zeros stay well-defined.
LOG_FLOOR = -40.0
# the first line of every curve file, and the whole text of an empty curve
CURVE_HEADER = "step,loss\n"


def min_log_loss(losses: np.ndarray) -> float:
    """Minimum over the curve of ln(loss), floored at LOG_FLOOR."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        return math.inf
    return float(np.min(np.log(np.maximum(losses, math.exp(LOG_FLOOR)))))


@dataclass
class RunRecord:
    """One evaluation trajectory of one optimizer on one test task."""

    method: str
    key: str  # table column: sigma value or distribution label
    seed: int
    task_index: int
    losses: np.ndarray
    min_log_loss: float
    task_digest: str
    theta0_digest: str
    params_digest: str
    truncated_at: int | None = None
    diverged: bool = False
    reason: str = ""  # why the adaptation diverged; in no result file
    curve: str = CURVE_HEADER  # the text of its curve file, `render_curve(losses)`


@functools.cache
def _curve_template(n: int) -> str:
    """The `%` template of an n-step curve file; a run has at most horizon + 1 lengths."""
    return CURVE_HEADER + "".join(f"{t},%.17g\n" for t in range(n))


def render_curve(losses: np.ndarray) -> str:
    """The text of a curve file: a `step,loss` header, then one `t,loss` row per step,
    each loss in `.17g`, so that it reads back to the same float."""
    values = tuple(np.asarray(losses, dtype=np.float64).tolist())
    return _curve_template(len(values)) % values


def _column_key(value) -> str:
    if isinstance(value, str):
        return value
    return f"{value:g}"


class EvalGroup(NamedTuple):
    """Frozen optimizers to evaluate on `n_tasks` shared test draws from `rng`.

    `variants` is a sequence of (method, key, params), each params a stack of
    one, or the `DivergenceError` of that variant's adaptation.
    """

    variants: list[tuple[str, str, ParamStack | DivergenceError]]
    dist_test: TaskDistribution
    n_tasks: int
    rng: RngStream
    seed: int = 0


def evaluate_groups(groups: list[EvalGroup], horizon: int, cache) -> list[list[RunRecord]]:
    """Evaluate every group on its own test draws; returns each group's records.

    Each group takes its `n_tasks` draws from its `rng` once and shares them
    by all its variants.  The groups must share the test task family and
    dimension, and each needs an `rng` of its own.  The variant x task
    trajectories of all groups run in lockstep, in `row_stacks` of at most
    `STACK_ROWS` untaped rows (slices x dim).  A non-finite loss truncates
    that trajectory's curve at that step instead of aborting; the other
    trajectories are unaffected.  A diverged variant gets one marked record,
    filed as task 0 with an empty curve, a NaN metric and the reason; a group
    with no live variant draws nothing.  Each group's `rng` must be unread,
    since a curve is keyed by the stream's key (`TrainingCache.curves_key`):
    a live variant's curves, with the text of their files (`render_curve`),
    are served from `cache`, a `store.TrainingCache`, where held, only the
    misses are unrolled and rendered, and every record is the one computed
    without it.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    for g in groups:
        if g.n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {g.n_tasks}")
    if len({id(g.rng) for g in groups}) != len(groups):
        raise ValueError("evaluation groups share a random stream; each needs its own")
    if not all(g.rng.unread() for g in groups):
        raise ValueError("an evaluation group's random stream has been read; each needs a fresh one")
    # (group index, params) of every live variant, in group and variant order
    live = [
        (n, params)
        for n, g in enumerate(groups)
        for _, _, params in g.variants
        if not isinstance(params, DivergenceError)
    ]
    evaluated = {n for n, _ in live}
    group_draws = [
        [
            (sample_task(g.dist_test, g.rng), sample_theta0(g.dist_test, g.rng))
            for _ in range(g.n_tasks if n in evaluated else 0)
        ]
        for n, g in enumerate(groups)
    ]

    def unroll_curves(asked):  # (group index, params) pairs -> each one's curves
        slices = [(params, task, theta0) for n, params in asked for task, theta0 in group_draws[n]]
        trajectories = []
        if slices:
            for stack in row_stacks(slices, slices[0][1].dim, STACK_ROWS):
                result = unroll_stack(
                    ParamStack.of([params for params, _, _ in stack]),
                    TaskStack([task for _, task, _ in stack]),
                    np.stack([theta0 for _, _, theta0 in stack]),
                    horizon,
                )
                trajectories.extend(result.trajectory(i) for i in range(len(stack)))
        runs = iter(trajectories)
        return [
            [(res.losses, res.truncated_at, render_curve(res.losses))
             for res in (next(runs) for _ in group_draws[n])]
            for n, _ in asked
        ]

    curves = iter(cache.get_or_evaluate_all(live, groups, horizon, unroll_curves))

    out = []
    for g, draws in zip(groups, group_draws):
        task_digests = [task.digest() for task, _ in draws]
        theta0_digests = [array_digest(theta0) for _, theta0 in draws]
        records = []
        for method, key, params in g.variants:
            if isinstance(params, DivergenceError):
                reason = f"seed {g.seed}: adaptation step {params.epoch}: {params.cause}"
                records.append(RunRecord(method, _column_key(key), g.seed, 0, np.empty(0), math.nan,
                                         "", "", "", diverged=True, reason=reason))
                continue
            pdigest = params.digest()
            for j, (losses, truncated_at, curve) in enumerate(next(curves)):
                records.append(
                    RunRecord(
                        method=method,
                        key=_column_key(key),
                        seed=g.seed,
                        task_index=j,
                        losses=losses,
                        min_log_loss=min_log_loss(losses),
                        task_digest=task_digests[j],
                        theta0_digest=theta0_digests[j],
                        params_digest=pdigest,
                        truncated_at=truncated_at,
                        curve=curve,
                    )
                )
        out.append(records)
    return out
