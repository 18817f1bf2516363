"""Meta-training loops and test-time adaptation for the learned optimizer.

There is one trainer.  The meta-adaptive trainer takes one virtual inner
step of size alpha on the optimizer weights, on the same task, and updates
the weights with the gradient of the unrolled loss at the stepped weights,
so training favors initializations that improve quickly under adaptation.
The plain trainer, which follows the gradient of the unrolled loss itself,
is that trainer at alpha 0, bit for bit in every gradient mode; the tests
pin this down.

Each epoch unrolls one task per run, the protocol of Andrychowicz et al.
2016.  Epoch k begins a block when k is a multiple of `epochs_per_task`:
every run draws a fresh task and a fresh random iterate.  Within a block the
optimizee iterate continues where the last epoch's unroll ended.

Runs of both trainers and several seeds train in lockstep
(`train_lockstep`): each epoch is one `maml_parts_stack` call over every
run's unroll, and each run's result is bit-identical to training it alone.
Likewise `adapt_groups` adapts the starting weights of several groups, each
group on its own draws, in row-bounded lockstep stacks.
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
    DETACHED_INPUT,
    FD_HVP_META,
    FULL_SECOND_ORDER,
    GRAD_MODES,
    TAPE_ROW_STEPS,
    NonFiniteGradientError,
    UnrollDivergedError,
    inner_mode,
    maml_parts_stack,
    meta_grad_stack,
    meta_mode,
    row_stacks,
)

__all__ = [
    "ML2O",
    "PLAIN",
    "MetaConfig",
    "TrainLog",
    "DivergenceError",
    "train_ml2o",
    "train_plain_l2o",
    "train_lockstep",
    "training_fields",
    "adapt",
    "Adaptation",
    "AdaptGroup",
    "adapt_groups",
    "sgd_schedule_lr",
]

ADAM = "adam"
SGD_SCHEDULE = "sgd_schedule"
# the meta-adaptive trainer: the name of its cached weights and of its method
ML2O = "ml2o"
# the plain trainer: the name of its cached weights
PLAIN = "plain"


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

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        for name in ("outer_lr", "sgd_beta", "sgd_mu", "fd_epsilon"):
            value = getattr(self, name)  # fd_epsilon None: a step scaled to the weights
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
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
        if self.grad_mode not in GRAD_MODES:
            raise ValueError(
                f"grad_mode must be one of {GRAD_MODES}, got {self.grad_mode!r}"
            )
        if self.outer_rule not in (ADAM, SGD_SCHEDULE):
            raise ValueError(f"unknown outer rule {self.outer_rule!r}")


@dataclass
class TrainLog:
    """One row per epoch; epoch k is on the run's task k // epochs_per_task."""

    meta_losses: list[float] = field(default_factory=list)
    task_ids: list[int] = field(default_factory=list)
    wall_ms: list[float] = field(default_factory=list)
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
    """Adam on a block of weight vectors; each row keeps its own moments.

    The moments are updated in place and the step is formed in two reused
    buffers, with the operations of
    m = 0.9 m + 0.1 g, v = 0.999 v + (0.001 g) g and
    flat - lr m_hat / (sqrt(v_hat) + 1e-8), in that order.
    """

    def __init__(self, shape, lr: float):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self._num = np.empty(shape)
        self._den = np.empty(shape)
        self.t = 0

    def update(self, flat: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        num, den = self._num, self._den
        self.m *= 0.9
        self.m += np.multiply(grad, 0.1, out=num)
        self.v *= 0.999
        np.multiply(grad, 0.001, out=num)
        num *= grad
        self.v += num
        np.divide(self.m, 1.0 - 0.9**self.t, out=num)  # m_hat
        num *= self.lr
        np.divide(self.v, 1.0 - 0.999**self.t, out=den)  # v_hat
        np.sqrt(den, out=den)
        den += 1e-8
        num /= den
        return flat - num


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
    """One run's random streams and log inside a lockstep training run.

    Its current task and iterate are its rows of the stacks that
    `train_lockstep` builds.
    """

    def __init__(self, cfg: MetaConfig):
        rng = RngStream(cfg.seed)
        self.params = init_params(cfg.hidden, rng.child("optimizer-init"))
        self.task_rng = rng.child("train-tasks")
        self.theta_rng = rng.child("train-theta0")
        self.log = TrainLog()


def train_lockstep(
    runs: list[tuple[MetaConfig, bool]], dist: TaskDistribution
) -> list[tuple[ParamStack, TrainLog]]:
    """Train one optimizer per (config, meta_adaptive) run in lockstep.

    Returns (weights, log) per run, the weights a stack of one.  The configs
    may differ only in their seed; the flag picks the meta-adaptive or the
    plain trainer.  Every epoch is one `maml_parts_stack` call whose slice r
    is run r's unroll, with the inner step `alpha` on the meta-adaptive
    slices and 0 on the plain ones: the plain trainer is the meta-adaptive
    one at alpha 0.  Every run begins a block on the same epochs but keeps
    its own random streams and outer-rule row, so its result is
    bit-identical to training it alone.  Raises `DivergenceError`, naming
    the trainer and the seed, for the first run that diverges.
    """
    if not runs:
        return []
    cfg = runs[0][0]
    if any(replace(c, seed=cfg.seed) != cfg for c, _ in runs):
        raise ValueError("lockstep training needs configs that differ only in seed")
    states = [_Run(c) for c, _ in runs]
    flats = np.concatenate([run.params.flat for run in states])  # one row per run
    outer = _make_outer(cfg, flats.shape)
    alpha = np.array([cfg.alpha if meta else 0.0 for _, meta in runs])

    def weights(r: int) -> ParamStack:
        return ParamStack(flats[r : r + 1], cfg.hidden)

    def diverged(k: int, r: int, cause: str) -> DivergenceError:
        c, meta = runs[r]
        trainer = ML2O if meta else PLAIN
        return DivergenceError(k, weights(r), f"{trainer} seed {c.seed}: {cause}")

    for k in range(cfg.epochs):
        t_start = time.perf_counter()
        if k % cfg.epochs_per_task == 0:  # a block begins: fresh tasks and iterates
            tasks = TaskStack([sample_task(dist, run.task_rng) for run in states])
            theta0 = np.stack([sample_theta0(dist, run.theta_rng) for run in states])
        try:
            grads, res0, losses = maml_parts_stack(
                ParamStack(flats, cfg.hidden), tasks, theta0, cfg.unroll_len, alpha,
                meta_mode(cfg.grad_mode), cfg.fd_epsilon, inner_mode(cfg.grad_mode),
            )
        except (UnrollDivergedError, NonFiniteGradientError) as exc:
            raise diverged(k, exc.index, str(exc)) from exc
        with np.errstate(all="ignore"):  # a non-finite row is reported below
            new_flats = outer.update(flats, grads)
        if (bad := np.flatnonzero(~np.isfinite(new_flats).all(axis=1))).size:
            raise diverged(
                k, int(bad[0]), "non-finite optimizer weights after the outer update"
            )
        flats = new_flats

        wall_ms = (time.perf_counter() - t_start) * 1e3
        for r, run in enumerate(states):
            run.log.meta_losses.append(float(losses[r]))
            run.log.task_ids.append(k // cfg.epochs_per_task)
            run.log.wall_ms.append(wall_ms)
            run.log.theta0_digests.append(array_digest(theta0[r]))
            run.log.theta_final_digests.append(array_digest(res0.theta_final[r]))
        theta0 = res0.theta_final  # the block continues where these unrolls ended

    return [(weights(r), run.log) for r, run in enumerate(states)]


# fields that left MetaConfig, at the one value each could have had
_FORMER_FIELDS = dict(
    feature_dim=2, tasks_per_update=1, curriculum="fixed", curriculum_threshold=0.05
)


def training_fields(cfg: MetaConfig, meta_adaptive: bool) -> dict:
    """The fields of `cfg` that decide what `train_lockstep` learns, to key a cache by.

    `grad_mode` becomes the one mode that names what the trainer reads: the
    trajectory mode unless it is the default, else the meta mode (plain reads
    none).  Plain drops `alpha`; `fd_epsilon` stays only where the
    finite-difference pair runs.  `adapt_steps` stays although no trainer
    reads it, since dropping it moves every key.  The former fields
    `feature_dim`, `tasks_per_update`, `curriculum` and
    `curriculum_threshold` are hashed at the one value each had, so that
    existing keys stay valid.
    """
    fields = dict(vars(cfg), **_FORMER_FIELDS)
    inner = inner_mode(cfg.grad_mode)
    meta = meta_mode(cfg.grad_mode) if meta_adaptive else FD_HVP_META
    fields["grad_mode"] = inner if inner != FULL_SECOND_ORDER else meta
    if not meta_adaptive:
        del fields["alpha"]
    if not (meta_adaptive and meta == FD_HVP_META):
        del fields["fd_epsilon"]
    if meta_adaptive and inner == DETACHED_INPUT:
        # ml2o's stepped pass and finite-difference pair were once second
        # order under this mode, so checkpoints cached then hold other
        # weights; this field keeps them from being served
        fields["detached_all_passes"] = True
    return fields


def train_ml2o(cfg: MetaConfig, dist: TaskDistribution):
    """Meta-adaptive training; returns the learned weights and the log."""
    return train_lockstep([(cfg, True)], dist)[0]


def train_plain_l2o(cfg: MetaConfig, dist: TaskDistribution):
    """Plain learned-optimizer training on the unrolled loss."""
    return train_lockstep([(cfg, False)], dist)[0]


@dataclass(frozen=True)
class Adaptation:
    """How a start adapts: `steps` plain gradient steps of size `alpha` on the
    unrolled loss over `unroll_len` steps, each on a fresh task unless
    `fresh_task_per_step` is false.

    `grad_mode` is kept as its trajectory mode, the one that adaptation reads.
    """

    steps: int
    alpha: float
    unroll_len: int
    grad_mode: str = FULL_SECOND_ORDER
    fresh_task_per_step: bool = True

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"the adaptation step must be finite and >= 0, got {self.alpha}")
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "grad_mode", inner_mode(self.grad_mode))


class AdaptGroup(NamedTuple):
    """Starting weights, each a stack of one, to adapt on shared draws from `rng`."""

    starts: list[ParamStack]
    dist_adapt: TaskDistribution
    rng: RngStream


def adapt_groups(
    groups: list[AdaptGroup], how: Adaptation
) -> list[list[ParamStack | DivergenceError]]:
    """Adapt every group's starts on the group's own draws, as `how` says; returns each
    group's results.

    Each start takes the plain gradient steps of `adapt`.  Every step, each
    group with a live start draws its adaptation task and then its starting
    iterate from its `rng`, shared by its starts.  The groups must share the
    task family and dimension, and each needs an `rng` of its own.  The live
    starts of all groups run in lockstep, in `row_stacks` of at most
    `TAPE_ROW_STEPS` taped row-steps (slices x dim x `how.unroll_len`).
    Returns, per start, its adapted weights or the `DivergenceError` that
    `adapt` would raise for it alone.  A start that diverges is marked and
    drops out of later steps; no slice reads another, so every result is
    bit-identical to adapting that start alone.
    """
    if len({id(g.rng) for g in groups}) != len(groups):
        raise ValueError("adaptation groups share a random stream; each needs its own")
    shapes = {(g.dist_adapt.family, g.dist_adapt.dim) for g in groups}
    if len(shapes) > 1:
        names = sorted({f"{g.dist_adapt.label()} (dim {g.dist_adapt.dim})" for g in groups})
        raise ValueError(
            f"adaptation groups must share task family and dim, got {', '.join(names)}"
        )
    out: list[list[ParamStack | DivergenceError]] = [list(g.starts) for g in groups]
    live = [(k, i) for k, g in enumerate(groups) for i in range(len(g.starts))]
    tasks = [None] * len(groups)
    for s in range(how.steps):
        if not live:
            break
        draws = {}
        for k in sorted({k for k, _ in live}):
            g = groups[k]
            if how.fresh_task_per_step or tasks[k] is None:
                tasks[k] = sample_task(g.dist_adapt, g.rng)
            draws[k] = (tasks[k], sample_theta0(g.dist_adapt, g.rng))
        size = groups[live[0][0]].dist_adapt.dim * how.unroll_len
        for stack in row_stacks(live, size, TAPE_ROW_STEPS):
            params = ParamStack.of([out[k][i] for k, i in stack])
            result = meta_grad_stack(
                params,
                TaskStack([draws[k][0] for k, _ in stack]),
                np.stack([draws[k][1] for k, _ in stack]),
                how.unroll_len,
                how.grad_mode,
            )
            with np.errstate(all="ignore"):  # a non-finite row is reported below
                new_flats = params.flat - how.alpha * result.grads
            for j, (k, i) in enumerate(stack):
                failure = result.failure(j)
                if failure is None and np.all(np.isfinite(new_flats[j])):
                    out[k][i] = ParamStack(new_flats[j : j + 1], params.hidden)
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
    how = Adaptation(steps, alpha, unroll_len, grad_mode, fresh_task_per_step)
    ((result,),) = adapt_groups([AdaptGroup([params], dist_adapt, rng)], how)
    if isinstance(result, DivergenceError):
        raise result
    return result
