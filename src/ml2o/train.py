"""Meta-training loops and test-time adaptation for the learned optimizer.

Two trainers share one loop skeleton.  The plain trainer updates the weights
with the gradient of the unrolled loss; the meta-adaptive trainer first takes
one virtual inner step on the same task and differentiates the loss at the
stepped weights, so training favors initializations that improve quickly
under adaptation.  With an inner step of zero the two are the same algorithm,
bit for bit, which the tests pin down.

Within a block of `S` epochs the optimizee iterate continues where the last
epoch's unroll ended; at block boundaries a fresh task and a fresh random
iterate are drawn.

Runs of both trainers and several seeds train in lockstep
(`train_lockstep`): each epoch stacks every run's unrolls into as few
computations as the trainers' passes allow, and each run's result is
bit-identical to training it alone.  Likewise `adapt_groups` adapts the
starting weights of several groups, each group on its own draws, in
row-bounded lockstep stacks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .cell import ParamStack, init_params
from .numeric import RngStream, array_digest
from .tasks import TaskDistribution, TaskStack, sample_task, sample_theta0
from .unroll import (
    FD_HVP_META,
    FULL_SECOND_ORDER,
    GRAD_MODES,
    STACK_ROWS,
    NonFiniteGradientError,
    UnrollDivergedError,
    inner_mode,
    maml_parts_stack,
    meta_grad_stack,
    meta_mode,
)

__all__ = [
    "MetaConfig",
    "TrainLog",
    "DivergenceError",
    "train_ml2o",
    "train_plain_l2o",
    "train_lockstep",
    "adapt",
    "AdaptGroup",
    "adapt_groups",
    "sgd_schedule_lr",
]

ADAM = "adam"
SGD_SCHEDULE = "sgd_schedule"
CURRICULUM_FIXED = "fixed"
CURRICULUM_DOUBLING = "doubling"


class DivergenceError(RuntimeError):
    """Training or adaptation produced a non-finite loss or gradient."""

    def __init__(self, epoch: int, last_params: ParamStack, cause: str):
        super().__init__(
            f"diverged at epoch {epoch}: {cause}; last finite weights attached"
        )
        self.epoch = epoch
        self.last_params = last_params
        self.cause = cause

    def __reduce__(self):
        # rebuilt from the constructor's arguments when it crosses from a
        # worker process, so `--jobs N` reports it like a serial run
        return (DivergenceError, (self.epoch, self.last_params, self.cause))


@dataclass
class MetaConfig:
    """Every knob of a training run; defaults follow the reference setup."""

    seed: int = 0
    hidden: int = 20
    unroll_len: int = 20  # steps per inner unroll
    epochs: int = 5000  # total meta-updates
    epochs_per_task: int = 20  # block length before a fresh task is drawn
    alpha: float = 1e-5  # inner/adaptation step size on the weights
    outer_rule: str = ADAM
    outer_lr: float = 1e-4
    sgd_beta: float = 0.1
    sgd_mu: float = 1.0
    adapt_steps: int = 5
    grad_mode: str = FD_HVP_META
    fd_epsilon: float | None = None
    tasks_per_update: int = 1
    curriculum: str = CURRICULUM_FIXED
    curriculum_threshold: float = 0.05

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        for name in ("outer_lr", "sgd_beta", "sgd_mu", "fd_epsilon"):
            value = getattr(self, name)  # fd_epsilon None: a step scaled to the weights
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
        if not math.isfinite(self.curriculum_threshold):
            raise ValueError(
                f"curriculum_threshold must be finite, got {self.curriculum_threshold}"
            )
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.epochs_per_task < 1:
            raise ValueError(
                f"epochs_per_task must be >= 1, got {self.epochs_per_task}"
            )
        if self.unroll_len < 1:
            raise ValueError(f"unroll_len must be >= 1, got {self.unroll_len}")
        if self.adapt_steps < 0:
            raise ValueError(f"adapt_steps must be >= 0, got {self.adapt_steps}")
        if self.tasks_per_update < 1:
            raise ValueError(
                f"tasks_per_update must be >= 1, got {self.tasks_per_update}"
            )
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(
                f"grad_mode must be one of {GRAD_MODES}, got {self.grad_mode!r}"
            )
        if self.outer_rule not in (ADAM, SGD_SCHEDULE):
            raise ValueError(f"unknown outer rule {self.outer_rule!r}")
        if self.curriculum not in (CURRICULUM_FIXED, CURRICULUM_DOUBLING):
            raise ValueError(f"unknown curriculum {self.curriculum!r}")


@dataclass
class TrainLog:
    """One row per epoch plus block bookkeeping."""

    meta_losses: list[float] = field(default_factory=list)
    task_ids: list[int] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    task_switch_epochs: list[int] = field(default_factory=list)
    theta0_digests: list[str] = field(default_factory=list)
    theta_final_digests: list[str] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("epoch,meta_loss,task_id,wall_ms\n")
            for k, (loss, tid, ms) in enumerate(
                zip(self.meta_losses, self.task_ids, self.wall_ms)
            ):
                fh.write(f"{k},{loss:.17g},{tid},{ms:.3f}\n")


def sgd_schedule_lr(k: int, beta: float, mu: float) -> float:
    """Decaying outer step size: min(beta, 8 / (mu * (k + 1)))."""
    return min(beta, 8.0 / (mu * (k + 1)))


class _AdamOuter:
    """Adam on a block of weight vectors; each row keeps its own moments."""

    def __init__(self, shape, lr: float):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def update(self, flat: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        m_hat = self.m / (1.0 - 0.9**self.t)
        v_hat = self.v / (1.0 - 0.999**self.t)
        return flat - self.lr * m_hat / (np.sqrt(v_hat) + 1e-8)


class _SgdScheduleOuter:
    def __init__(self, beta: float, mu: float):
        self.beta = beta
        self.mu = mu
        self.k = 0

    def update(self, flat: np.ndarray, grad: np.ndarray) -> np.ndarray:
        lr = sgd_schedule_lr(self.k, self.beta, self.mu)
        self.k += 1
        return flat - lr * grad


def _make_outer(cfg: MetaConfig, shape):
    if cfg.outer_rule == ADAM:
        return _AdamOuter(shape, cfg.outer_lr)
    return _SgdScheduleOuter(cfg.sgd_beta, cfg.sgd_mu)


class _Run:
    """One run's draws and block bookkeeping inside a lockstep training run."""

    def __init__(self, cfg: MetaConfig, dist: TaskDistribution):
        rng = RngStream(cfg.seed)
        self.cfg = cfg
        self.dist = dist
        self.params = init_params(cfg.hidden, rng.child("optimizer-init"))
        self.task_rng = rng.child("train-tasks")
        self.theta_rng = rng.child("train-theta0")
        self.log = TrainLog()
        self.block_len = cfg.epochs_per_task
        self.epochs_in_block = self.block_len  # force a draw at epoch 0
        self.block_id = -1
        self.block_first_loss = None
        self.last_loss = None
        self.tasks = []
        self.theta0s = []

    def begin_epoch(self, k: int) -> None:
        """Draw a fresh block of tasks when the current one is used up."""
        cfg = self.cfg
        if self.epochs_in_block >= self.block_len:
            if (
                cfg.curriculum == CURRICULUM_DOUBLING
                and self.block_first_loss is not None
                and self.last_loss is not None
            ):
                gain = (self.block_first_loss - self.last_loss) / max(
                    abs(self.block_first_loss), 1e-12
                )
                if gain < cfg.curriculum_threshold:
                    self.block_len *= 2
            n = cfg.tasks_per_update
            self.tasks = [sample_task(self.dist, self.task_rng) for _ in range(n)]
            self.theta0s = [sample_theta0(self.dist, self.theta_rng) for _ in range(n)]
            self.epochs_in_block = 0
            self.block_id += 1
            self.block_first_loss = None
            self.log.task_switch_epochs.append(k)
        self.log.theta0_digests.append(array_digest(*self.theta0s))

    def end_epoch(self, loss: float, theta_finals: list[np.ndarray]) -> None:
        """Continue the block from where this epoch's unrolls ended."""
        self.theta0s = theta_finals
        self.epochs_in_block += 1
        if self.block_first_loss is None:
            self.block_first_loss = loss
        self.last_loss = loss
        self.log.meta_losses.append(loss)
        self.log.task_ids.append(self.block_id)
        self.log.theta_final_digests.append(array_digest(*theta_finals))


def train_lockstep(
    runs: list[tuple[MetaConfig, bool]], dist: TaskDistribution
) -> list[tuple[ParamStack, TrainLog]]:
    """Train one optimizer per (config, meta_adaptive) run in lockstep.

    Returns (weights, log) per run, the weights a stack of one.  The configs
    may differ only in their seed; the flag picks the meta-adaptive or the
    plain trainer.  Every epoch runs all runs' `tasks_per_update` unrolls as
    one stack.  When the plain trainer's gradient mode is
    ``full_second_order`` (the first pass of the meta-adaptive trainer
    always is), the plain slices and the first pass of the meta-adaptive
    slices are that one stack; only the meta-adaptive slices go on to the
    pass at the stepped weights and the finite-difference pair.  Each run keeps its own random streams, blocks,
    curriculum and outer-rule row, so its result is bit-identical to
    training it alone.  Raises `DivergenceError`, naming the trainer and the
    seed, for the first run that diverges.
    """
    if not runs:
        return []
    cfg = runs[0][0]
    if any(replace(c, seed=cfg.seed) != cfg for c, _ in runs):
        raise ValueError("lockstep training needs configs that differ only in seed")
    states = [_Run(c, dist) for c, _ in runs]
    n_tasks = cfg.tasks_per_update
    layout = states[0].params.layout
    flats = np.concatenate([r.params.to_flat() for r in states])  # one row per run
    outer = _make_outer(cfg, flats.shape)
    # slice r * n_tasks + j is run r on its task j
    adaptive = np.repeat([meta for _, meta in runs], n_tasks)
    all_rows = np.arange(adaptive.size)
    meta_rows = np.flatnonzero(adaptive)
    plain_rows = np.flatnonzero(~adaptive)
    plain_mode = inner_mode(cfg.grad_mode)
    fused = plain_mode == FULL_SECOND_ORDER

    def weights(r: int) -> ParamStack:
        return ParamStack.from_flat(flats[r : r + 1], layout)

    def diverged(k: int, r: int, cause: str) -> DivergenceError:
        c, meta = runs[r]
        trainer = "ml2o" if meta else "plain"
        return DivergenceError(k, weights(r), f"{trainer} seed {c.seed}: {cause}")

    for k in range(cfg.epochs):
        t_start = time.perf_counter()
        for run in states:
            run.begin_epoch(k)
        params = ParamStack.from_flat(np.repeat(flats, n_tasks, axis=0), layout)
        tasks = TaskStack([t for run in states for t in run.tasks])
        theta0 = np.stack([th for run in states for th in run.theta0s])
        g = np.empty((all_rows.size, layout.size))
        values = np.empty(all_rows.size)
        theta_final = np.empty(theta0.shape)
        rows = all_rows if fused else plain_rows  # the slices of the call in flight
        try:
            if rows.size:
                _, res0 = meta_grad_stack(
                    params.take(rows), tasks.take(rows), theta0[rows], cfg.unroll_len, plain_mode
                )
                if (failure := res0.failure()) is not None:
                    raise failure
            if plain_rows.size:
                res_p = res0.take(plain_rows) if fused else res0
                g[plain_rows] = res_p.grads
                values[plain_rows] = res_p.final_losses
                theta_final[plain_rows] = res_p.theta_final
            if meta_rows.size:
                rows = meta_rows
                g[rows], res_m, values[rows] = maml_parts_stack(
                    params.take(rows),
                    tasks.take(rows),
                    theta0[rows],
                    cfg.unroll_len,
                    cfg.alpha,
                    meta_mode(cfg.grad_mode),
                    cfg.fd_epsilon,
                    first_pass=res0.take(meta_rows) if fused else None,
                )
                theta_final[rows] = res_m.theta_final
        except (UnrollDivergedError, NonFiniteGradientError) as exc:
            raise diverged(k, int(rows[exc.index]) // n_tasks, str(exc)) from exc

        # sum each run's tasks in task order, as a loop over them would
        grads = np.zeros_like(flats)
        loss_sum = np.zeros(len(runs))
        for j in range(n_tasks):
            grads += g[j::n_tasks]
            loss_sum += values[j::n_tasks]
        grads /= n_tasks
        losses = loss_sum / n_tasks
        for r, loss in enumerate(losses):
            if not np.isfinite(loss):
                raise diverged(k, r, f"meta-loss {float(loss)!r}")
        with np.errstate(all="ignore"):  # a non-finite row is reported below
            new_flats = outer.update(flats, grads)
        for r, row in enumerate(new_flats):
            if not np.all(np.isfinite(row)):
                raise diverged(
                    k, r, "non-finite optimizer weights after the outer update"
                )
        flats = new_flats

        wall_ms = (time.perf_counter() - t_start) * 1e3
        for r, run in enumerate(states):
            finals = list(theta_final[r * n_tasks : (r + 1) * n_tasks])
            run.end_epoch(float(losses[r]), finals)
            run.log.wall_ms.append(wall_ms)

    return [(weights(r), run.log) for r, run in enumerate(states)]


def train_ml2o(cfg: MetaConfig, dist: TaskDistribution):
    """Meta-adaptive training; returns the learned weights and the log."""
    return train_lockstep([(cfg, True)], dist)[0]


def train_plain_l2o(cfg: MetaConfig, dist: TaskDistribution):
    """Plain learned-optimizer training on the unrolled loss."""
    return train_lockstep([(cfg, False)], dist)[0]


class AdaptGroup(NamedTuple):
    """Starting weights, each a stack of one, to adapt on shared draws from `rng`."""

    starts: list[ParamStack]
    dist_adapt: TaskDistribution
    rng: RngStream


def adapt_groups(
    groups: list[AdaptGroup],
    steps: int,
    alpha: float,
    unroll_len: int,
    grad_mode: str = FULL_SECOND_ORDER,
    fresh_task_per_step: bool = True,
) -> list[list[ParamStack | DivergenceError]]:
    """Adapt every group's starts on the group's own draws; returns each group's results.

    Each start takes the plain gradient steps of `adapt`.  Every step, each
    group with a live start draws its adaptation task and then its starting
    iterate from its `rng`, shared by its starts.  The groups must share the
    task family and dimension, and each needs an `rng` of its own.  The live
    starts of all groups run in lockstep, in stacks of at most STACK_ROWS
    rows (slices x dim, at least one slice).  Returns, per start, its adapted
    weights or the `DivergenceError` that `adapt` would raise for it alone.
    A start that diverges is marked and drops out of later steps; no slice
    reads another, so every result is bit-identical to adapting that start
    alone.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if len({id(g.rng) for g in groups}) != len(groups):
        raise ValueError("adaptation groups share a random stream; each needs its own")
    shapes = {(g.dist_adapt.family, g.dist_adapt.dim) for g in groups}
    if len(shapes) > 1:
        names = sorted({f"{g.dist_adapt.label()} (dim {g.dist_adapt.dim})" for g in groups})
        raise ValueError(
            f"adaptation groups must share task family and dim, got {', '.join(names)}"
        )
    mode = inner_mode(grad_mode)
    out: list[list[ParamStack | DivergenceError]] = [list(g.starts) for g in groups]
    live = [(k, i) for k, g in enumerate(groups) for i in range(len(g.starts))]
    tasks = [None] * len(groups)
    for s in range(steps):
        if not live:
            break
        draws = {}
        for k in sorted({k for k, _ in live}):
            g = groups[k]
            if fresh_task_per_step or tasks[k] is None:
                tasks[k] = sample_task(g.dist_adapt, g.rng)
            draws[k] = (tasks[k], sample_theta0(g.dist_adapt, g.rng))
        size = max(1, STACK_ROWS // groups[live[0][0]].dist_adapt.dim)
        for lo in range(0, len(live), size):
            stack = live[lo : lo + size]
            params = ParamStack.of([out[k][i] for k, i in stack])
            grads, result = meta_grad_stack(
                params,
                TaskStack([draws[k][0] for k, _ in stack]),
                np.stack([draws[k][1] for k, _ in stack]),
                unroll_len,
                mode,
            )
            with np.errstate(all="ignore"):  # a non-finite row is reported below
                new_flats = params.to_flat() - alpha * grads
            for j, ((k, i), flat) in enumerate(zip(stack, new_flats)):
                failure = result.failure(j)
                if failure is None and np.all(np.isfinite(flat)):
                    out[k][i] = out[k][i].with_flat(flat[None])
                    continue
                cause = str(failure or "non-finite optimizer weights after an adaptation step")
                out[k][i] = DivergenceError(s, out[k][i], cause)
                out[k][i].__cause__ = failure
        live = [(k, i) for k, i in live if not isinstance(out[k][i], DivergenceError)]
    return out


def adapt(
    params: ParamStack,
    dist_adapt: TaskDistribution,
    steps: int,
    alpha: float,
    unroll_len: int,
    rng: RngStream,
    grad_mode: str = FULL_SECOND_ORDER,
    fresh_task_per_step: bool = True,
) -> ParamStack:
    """A few plain gradient steps on the unrolled loss over adaptation tasks.

    By default every step draws a fresh task (and a fresh starting iterate)
    from the adaptation distribution; with `fresh_task_per_step=False` a
    single task is drawn once and reused.  Raises `DivergenceError` with the
    last finite weights.
    """
    ((result,),) = adapt_groups(
        [AdaptGroup([params], dist_adapt, rng)],
        steps, alpha, unroll_len, grad_mode, fresh_task_per_step,
    )
    if isinstance(result, DivergenceError):
        raise result
    return result
