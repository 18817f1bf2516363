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
bit-identical to training it alone.  Likewise `adapt_stack` adapts several
starting weights on shared draws as one stack.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .cell import OptimizerParams, ParamStack, init_params
from .numeric import RngStream
from .tasks import TaskDistribution, TaskStack, sample_task, sample_theta0
from .unroll import (
    FD_HVP_META,
    FULL_SECOND_ORDER,
    GRAD_MODES,
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
    "train_seeds",
    "train_lockstep",
    "adapt",
    "adapt_stack",
    "sgd_schedule_lr",
]

ADAM = "adam"
SGD_SCHEDULE = "sgd_schedule"
CURRICULUM_FIXED = "fixed"
CURRICULUM_DOUBLING = "doubling"


class DivergenceError(RuntimeError):
    """Training or adaptation produced a non-finite loss or gradient."""

    def __init__(self, epoch: int, last_params: OptimizerParams, cause: str):
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
    feature_dim: int = 2
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
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
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


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass
class TrainLog:
    """One row per epoch plus block bookkeeping."""

    meta_losses: list[float] = field(default_factory=list)
    task_ids: list[int] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
    task_switch_epochs: list[int] = field(default_factory=list)
    theta0_digests: list[str] = field(default_factory=list)
    theta_final_digests: list[str] = field(default_factory=list)
    checkpoints: list[str] = field(default_factory=list)

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
        self.params = init_params(cfg.hidden, cfg.feature_dim, rng.child("optimizer-init"))
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
        self.log.theta0_digests.append(_digest(self.theta0s))

    def end_epoch(self, loss: float, theta_finals: list[np.ndarray]) -> None:
        """Continue the block from where this epoch's unrolls ended."""
        self.theta0s = theta_finals
        self.epochs_in_block += 1
        if self.block_first_loss is None:
            self.block_first_loss = loss
        self.last_loss = loss
        self.log.meta_losses.append(loss)
        self.log.task_ids.append(self.block_id)
        self.log.theta_final_digests.append(_digest(theta_finals))


def train_lockstep(
    runs: list[tuple[MetaConfig, bool]], dist: TaskDistribution
) -> list[tuple[OptimizerParams, TrainLog]]:
    """Train one optimizer per (config, meta_adaptive) run in lockstep.

    Returns (weights, log) per run.  The configs may differ only in their
    seed; the flag picks the meta-adaptive or the plain trainer.  Every
    epoch runs all runs' `tasks_per_update` unrolls as one stack.  When the
    plain trainer's gradient mode is ``full_second_order`` (the first pass
    of the meta-adaptive trainer always is), the plain slices and the first
    pass of the meta-adaptive slices are that one stack; only the
    meta-adaptive slices go on to the pass at the stepped weights and the
    finite-difference pair.  Each run keeps its own random streams, blocks,
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
    scale = states[0].params.output_scale
    flats = np.stack([r.params.to_flat() for r in states])  # one row per run
    outer = _make_outer(cfg, flats.shape)
    # slice r * n_tasks + j is run r on its task j
    adaptive = np.repeat([meta for _, meta in runs], n_tasks)
    all_rows = np.arange(adaptive.size)
    meta_rows = np.flatnonzero(adaptive)
    plain_rows = np.flatnonzero(~adaptive)
    plain_mode = inner_mode(cfg.grad_mode)
    fused = plain_mode == FULL_SECOND_ORDER

    def diverged(k: int, r: int, cause: str) -> DivergenceError:
        c, meta = runs[r]
        params = OptimizerParams.from_flat(flats[r], layout.hidden, layout.feature_dim, scale)
        trainer = "ml2o" if meta else "plain"
        return DivergenceError(k, params, f"{trainer} seed {c.seed}: {cause}")

    for k in range(cfg.epochs):
        t_start = time.perf_counter()
        for run in states:
            run.begin_epoch(k)
        params = ParamStack.from_flat(np.repeat(flats, n_tasks, axis=0), layout, scale)
        tasks = TaskStack([t for run in states for t in run.tasks])
        theta0 = np.stack([th for run in states for th in run.theta0s])
        g = np.empty((all_rows.size, layout.size))
        values = np.empty(all_rows.size)
        theta_final = np.empty(theta0.shape)
        rows = all_rows  # the slices of the call in flight
        try:
            first_pass = None
            if fused:
                g0, res0 = meta_grad_stack(params, tasks, theta0, cfg.unroll_len, FULL_SECOND_ORDER)
                first_pass = (g0[meta_rows], res0.take(meta_rows))
                g0, res0 = g0[plain_rows], res0.take(plain_rows)
            elif plain_rows.size:
                rows = plain_rows
                g0, res0 = meta_grad_stack(
                    params.take(rows), tasks.take(rows), theta0[rows], cfg.unroll_len, plain_mode
                )
            if plain_rows.size:
                g[plain_rows] = g0
                values[plain_rows] = res0.final_losses
                theta_final[plain_rows] = res0.theta_final
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
                    first_pass=first_pass,
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

    return [
        (OptimizerParams.from_flat(flat, layout.hidden, layout.feature_dim, scale), run.log)
        for flat, run in zip(flats, states)
    ]


def train_seeds(
    cfgs: list[MetaConfig], dist: TaskDistribution, meta_adaptive: bool
) -> list[tuple[OptimizerParams, TrainLog]]:
    """Train one optimizer per config with one trainer, in lockstep (`train_lockstep`)."""
    return train_lockstep([(c, meta_adaptive) for c in cfgs], dist)


def train_ml2o(cfg: MetaConfig, dist: TaskDistribution):
    """Meta-adaptive training; returns the learned weights and the log."""
    return train_seeds([cfg], dist, meta_adaptive=True)[0]


def train_plain_l2o(cfg: MetaConfig, dist: TaskDistribution):
    """Plain learned-optimizer training on the unrolled loss."""
    return train_seeds([cfg], dist, meta_adaptive=False)[0]


def adapt_stack(
    starts: list[OptimizerParams],
    dist_adapt: TaskDistribution,
    steps: int,
    alpha: float,
    unroll_len: int,
    rng: RngStream,
    grad_mode: str = FULL_SECOND_ORDER,
    fresh_task_per_step: bool = True,
) -> list[OptimizerParams | DivergenceError]:
    """Adapt several starting weights on shared draws, as one stack.

    Each start takes the plain gradient steps of `adapt`; the adaptation
    tasks and starting iterates are drawn from `rng` once per step and
    shared by every start.  Returns, per start, its adapted weights or the
    `DivergenceError` that `adapt` would raise for it alone.  A start that
    diverges leaves the stack, and the others redo that step without it, so
    every result is bit-identical to adapting that start alone.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    mode = inner_mode(grad_mode)
    out: list[OptimizerParams | DivergenceError] = list(starts)
    live = list(range(len(out)))
    task = None
    for s in range(steps):
        if not live:
            break
        if fresh_task_per_step or task is None:
            task = sample_task(dist_adapt, rng)
        theta0 = sample_theta0(dist_adapt, rng)
        while live:
            n = len(live)
            params = ParamStack.of([out[i] for i in live])
            try:
                g, _ = meta_grad_stack(
                    params, TaskStack([task] * n), np.stack([theta0] * n), unroll_len, mode
                )
            except (UnrollDivergedError, NonFiniteGradientError) as exc:
                i = live.pop(exc.index)
                out[i] = DivergenceError(s, out[i], str(exc))
                out[i].__cause__ = exc
                continue
            new_flats = params.to_flat() - alpha * g
            for i, flat in zip(list(live), new_flats):
                if np.all(np.isfinite(flat)):
                    out[i] = out[i].with_flat(flat)
                else:
                    live.remove(i)
                    out[i] = DivergenceError(
                        s, out[i], "non-finite optimizer weights after an adaptation step"
                    )
            break
    return out


def adapt(
    params: OptimizerParams,
    dist_adapt: TaskDistribution,
    steps: int,
    alpha: float,
    unroll_len: int,
    rng: RngStream,
    grad_mode: str = FULL_SECOND_ORDER,
    fresh_task_per_step: bool = True,
) -> OptimizerParams:
    """A few plain gradient steps on the unrolled loss over adaptation tasks.

    By default every step draws a fresh task (and a fresh starting iterate)
    from the adaptation distribution; with `fresh_task_per_step=False` a
    single task is drawn once and reused.  Raises `DivergenceError` with the
    last finite weights.
    """
    (result,) = adapt_stack(
        [params], dist_adapt, steps, alpha, unroll_len, rng, grad_mode, fresh_task_per_step
    )
    if isinstance(result, DivergenceError):
        raise result
    return result
