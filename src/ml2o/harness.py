"""Paired evaluation of trained optimizers against the transfer baselines.

For each evaluation seed the four methods are built from the same draws:

* ``vanilla``: fresh random weights, adapted a few steps on adaptation tasks
* ``tl``:      trained on the training distribution, then adapted
* ``dt``:      trained on the training distribution, no adaptation
* ``ml2o``:    meta-adaptively trained, then adapted

All four see bit-identical adaptation draws and bit-identical test draws for
that seed, so differences come from the weights alone.  The headline metric
is the minimum over the evaluation horizon of the log objective, with exact
zeros clamped at a floor of -40.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.special import stdtrit

from .cell import ParamStack, init_params, load_checkpoint, save_checkpoint
from .numeric import RngStream, array_digest, numeric_environment
from .tasks import NORMAL, TaskDistribution, TaskStack, sample_task, sample_theta0
from .train import AdaptGroup, DivergenceError, MetaConfig, adapt_groups, train_lockstep
from .unroll import STACK_ROWS, unroll_stack

__all__ = [
    "VANILLA",
    "ML2O",
    "DT",
    "TL",
    "METHOD_ORDER",
    "LOG_FLOOR",
    "RunRecord",
    "ComparisonCell",
    "ComparisonTable",
    "TrainingCache",
    "min_log_loss",
    "confidence_interval",
    "EvalGroup",
    "evaluate",
    "evaluate_groups",
    "compare_methods",
    "adapt_sweep",
    "interpolate_eval",
    "seed_config",
    "read_comparison_json",
    "write_curve",
    "write_json",
]

VANILLA = "vanilla"
ML2O = "ml2o"
DT = "dt"
TL = "tl"
METHOD_ORDER = (VANILLA, ML2O, DT, TL)

# Log losses are clamped from below here so exact zeros stay well-defined.
LOG_FLOOR = -40.0


def min_log_loss(losses: np.ndarray) -> float:
    """Minimum over the curve of ln(loss), floored at LOG_FLOOR."""
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size == 0:
        return math.inf
    return float(np.min(np.log(np.maximum(losses, math.exp(LOG_FLOOR)))))


def confidence_interval(samples) -> tuple[float, float]:
    """Student-t mean estimate: (mean, 95% half-width)."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    if n < 2:
        raise ValueError(f"confidence interval needs at least 2 samples, got {n}")
    mean = float(samples.mean())
    s = float(samples.std(ddof=1))
    half = float(stdtrit(n - 1, 0.975) * s / math.sqrt(n))
    return mean, half


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


@dataclass
class ComparisonCell:
    method: str
    key: str
    mean: float
    half_width: float
    n: int
    n_diverged: int = 0


@dataclass
class ComparisonTable:
    cells: list[ComparisonCell]
    records: list[RunRecord] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: list[RunRecord]) -> "ComparisonTable":
        """One cell per (method, key): mean and 95% half-width over `seed_values`.

        A cell with one counted seed has a NaN half-width, one with none a
        NaN mean; `n_diverged` counts the records that `seed_values` skips.
        """
        table = cls(
            cells=[],
            records=sorted(records, key=lambda r: (r.method, r.key, r.seed, r.task_index)),
        )
        n_diverged: dict[tuple[str, str], int] = {}  # in (method, key) order
        for r in table.records:
            n_diverged[r.method, r.key] = n_diverged.get((r.method, r.key), 0) + (not _counted(r))
        for (method, key), n_bad in n_diverged.items():
            values = list(table.seed_values(method, key).values())
            if len(values) >= 2:
                mean, half = confidence_interval(values)
            elif len(values) == 1:
                mean, half = values[0], math.nan
            else:
                mean, half = math.nan, math.nan
            table.cells.append(ComparisonCell(method, key, mean, half, len(values), n_bad))
        return table

    def cell(self, method: str, key) -> ComparisonCell:
        key = _column_key(key)
        for c in self.cells:
            if c.method == method and c.key == key:
                return c
        raise KeyError(f"no cell for method={method!r}, key={key!r}")

    def seed_values(self, method: str, key) -> dict[int, float]:
        """Per-seed metric (averaged over that seed's test tasks)."""
        key = _column_key(key)
        per_seed: dict[int, list[float]] = {}
        for r in self.records:
            if r.method == method and r.key == key and _counted(r):
                per_seed.setdefault(r.seed, []).append(r.min_log_loss)
        return {s: float(np.mean(v)) for s, v in sorted(per_seed.items())}

    def to_json_dict(self) -> dict:
        return {
            "methods": sorted({c.method for c in self.cells}),
            "columns": sorted({c.key for c in self.cells}),
            "cells": [
                {
                    "method": c.method,
                    "key": c.key,
                    "mean": c.mean,
                    "half_width": c.half_width,
                    "n": c.n,
                    "n_diverged": c.n_diverged,
                }
                for c in self.cells
            ],
        }

    def write_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    def write_records_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("method,key,seed,task,min_log_loss,truncated_at,diverged\n")
            for r in self.records:
                trunc = "" if r.truncated_at is None else str(r.truncated_at)
                fh.write(
                    f"{r.method},{r.key},{r.seed},{r.task_index},"
                    f"{r.min_log_loss:.17g},{trunc},{int(r.diverged)}\n"
                )

    def write_curves(self, directory) -> None:
        os.makedirs(directory, exist_ok=True)
        for r in self.records:
            name = f"curve_{r.method}_key{r.key}_seed{r.seed}_task{r.task_index}.csv"
            write_curve(os.path.join(directory, name), r.losses)


def write_curve(path, losses) -> None:
    """Write one loss curve as a `step,loss` CSV file, in one write."""
    rows = [f"{t},{loss:.17g}\n" for t, loss in enumerate(np.asarray(losses).tolist())]
    with open(path, "w") as fh:
        fh.write("step,loss\n" + "".join(rows))


def _nulls(value):
    """`value` with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _nulls(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nulls(v) for v in value]
    return value


def write_json(path, doc) -> None:
    """Write `doc` as strict JSON, keys sorted, with NaN and infinities as null."""
    with open(path, "w") as fh:
        json.dump(_nulls(doc), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _float_or_nan(value) -> float:
    return math.nan if value is None else value


def read_comparison_json(path) -> ComparisonTable:
    """Read a table written by `ComparisonTable.write_json`; null reads as NaN."""
    with open(path) as fh:
        doc = json.load(fh)
    cells = [
        ComparisonCell(
            method=c["method"],
            key=c["key"],
            mean=_float_or_nan(c["mean"]),
            half_width=_float_or_nan(c["half_width"]),
            n=c["n"],
            n_diverged=c["n_diverged"],
        )
        for c in doc["cells"]
    ]
    return ComparisonTable(cells=cells)


def _column_key(value) -> str:
    if isinstance(value, str):
        return value
    return f"{value:g}"


def _check_column_keys(keys: list[str]) -> None:
    """Refuse two columns with one key: their records would merge into one column."""
    for n, key in enumerate(keys):
        if key in keys[:n]:
            raise ValueError(f"two columns share the key {key!r}; values must differ in 6 digits")


def _counted(r: RunRecord) -> bool:
    """Whether a record enters the statistics: not diverged, with a finite metric."""
    return not r.diverged and math.isfinite(r.min_log_loss)


class EvalGroup(NamedTuple):
    """Frozen optimizers to evaluate on `n_tasks` shared test draws from `rng`.

    `variants` is a sequence of (method, key, params), each params a stack of one.
    """

    variants: list[tuple[str, str, ParamStack]]
    dist_test: TaskDistribution
    n_tasks: int
    rng: RngStream
    seed: int = 0


def evaluate_groups(groups: list[EvalGroup], horizon: int) -> list[list[RunRecord]]:
    """Evaluate every group on its own test draws; returns each group's records.

    Each group takes its `n_tasks` draws from its `rng` once and shares them
    by all its variants.  The groups must share the test task family and
    dimension.  The variant x task trajectories of all groups run in
    lockstep, in stacks of at most STACK_ROWS rows (slices x dim, at least
    one slice).  A non-finite loss truncates that trajectory's curve at
    that step instead of aborting; the other trajectories are unaffected.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    for g in groups:
        if g.n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {g.n_tasks}")
    group_draws = [
        [
            (sample_task(g.dist_test, g.rng), sample_theta0(g.dist_test, g.rng))
            for _ in range(g.n_tasks if g.variants else 0)
        ]
        for g in groups
    ]
    # (params, task, theta0) in group, variant, task order
    slices = [
        (params, task, theta0)
        for g, draws in zip(groups, group_draws)
        for _, _, params in g.variants
        for task, theta0 in draws
    ]
    trajectories = []
    if slices:
        size = max(1, STACK_ROWS // slices[0][1].dim)
        for lo in range(0, len(slices), size):
            stack = slices[lo : lo + size]
            result = unroll_stack(
                ParamStack.of([params for params, _, _ in stack]),
                TaskStack([task for _, task, _ in stack]),
                np.stack([theta0 for _, _, theta0 in stack]),
                horizon,
            )
            trajectories.extend(result.trajectory(i) for i in range(len(stack)))

    out = []
    results = iter(trajectories)
    for g, draws in zip(groups, group_draws):
        task_digests = [task.digest() for task, _ in draws]
        theta0_digests = [array_digest(theta0) for _, theta0 in draws]
        records = []
        for method, key, params in g.variants:
            pdigest = params.digest()
            for j in range(g.n_tasks):
                res = next(results)
                records.append(
                    RunRecord(
                        method=method,
                        key=_column_key(key),
                        seed=g.seed,
                        task_index=j,
                        losses=res.losses,
                        min_log_loss=min_log_loss(res.losses),
                        task_digest=task_digests[j],
                        theta0_digest=theta0_digests[j],
                        params_digest=pdigest,
                        truncated_at=res.truncated_at,
                    )
                )
        out.append(records)
    return out


def evaluate(
    params: ParamStack,
    dist_test: TaskDistribution,
    horizon: int,
    n_tasks: int,
    rng: RngStream,
    method: str = "",
    key: str = "",
    seed: int = 0,
) -> list[RunRecord]:
    """Unroll frozen weights on fresh test tasks and record the loss curves.

    A non-finite loss truncates the curve at that step instead of aborting.
    """
    group = EvalGroup([(method, key, params)], dist_test, n_tasks, rng, seed)
    return evaluate_groups([group], horizon)[0]


class TrainingCache:
    """Deterministic memo for trained weights, optionally backed by a directory.

    Training is a pure function of (trainer, config, distribution); caching
    never changes results, it only avoids repeating identical runs.
    """

    def __init__(self, directory: str | None = None):
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._memo: dict[str, ParamStack] = {}

    @staticmethod
    def _key(trainer: str, cfg: MetaConfig, dist: TaskDistribution) -> str:
        fields = {k: getattr(cfg, k) for k in sorted(vars(cfg))}
        # a former config field, hashed still so that existing keys stay valid
        fields["feature_dim"] = 2
        if trainer != ML2O:
            # the plain trainer never reads the inner-step knobs
            fields.pop("alpha", None)
            fields.pop("fd_epsilon", None)
        doc = {
            "trainer": trainer,
            "cfg": fields,
            "dist": {k: getattr(dist, k) for k in sorted(vars(dist))},
        }
        blob = json.dumps(doc, sort_keys=True, default=str)
        return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()

    def _path(self, trainer: str, key: str) -> str | None:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{trainer}-{key}.ckpt")

    def _cached(self, trainer: str, key: str) -> bool:
        if key not in self._memo:
            path = self._path(trainer, key)
            if path is None or not os.path.exists(path):
                return False
            self._memo[key] = load_checkpoint(path)
        return True

    def get_or_train(
        self, trainer: str, cfg: MetaConfig, dist: TaskDistribution
    ) -> ParamStack:
        return self.get_or_train_all([(trainer, cfg)], dist)[0]

    def get_or_train_all(
        self, requests: list[tuple[str, MetaConfig]], dist: TaskDistribution
    ) -> list[ParamStack]:
        """Weights for each (trainer, config); the misses of both trainers are
        trained together in lockstep, and none is stored if any diverges.

        Each checkpoint is written to a temporary file of its own writer, then
        renamed into place, so commands sharing a directory never collide.
        """
        keys = [(trainer, self._key(trainer, cfg, dist)) for trainer, cfg in requests]
        missing = {}
        for (trainer, key), (_, cfg) in zip(keys, requests):
            if key not in missing and not self._cached(trainer, key):
                missing[key] = (trainer, cfg)
        trained = train_lockstep(
            [(cfg, trainer == ML2O) for trainer, cfg in missing.values()], dist
        )
        for (key, (trainer, _)), (params, _) in zip(missing.items(), trained):
            self._memo[key] = params
            path = self._path(trainer, key)
            if path is not None:
                tmp = f"{path}.{os.getpid()}-{os.urandom(6).hex()}.tmp"
                save_checkpoint(
                    params, tmp, metadata=f"trainer={trainer} key={key} {numeric_environment()}"
                )
                os.replace(tmp, path)
        return [self._memo[key] for _, key in keys]


def seed_config(cfg: MetaConfig, seed_index: int) -> MetaConfig:
    """Per-repeat config: same knobs, seed derived from the root seed."""
    return replace(cfg, seed=RngStream(cfg.seed).derive_seed(f"seed/{seed_index}"))


@dataclass(frozen=True)
class _Column:
    """One table column: its key and the adaptation and test distributions."""

    key: str
    dist_adapt: TaskDistribution
    dist_test: TaskDistribution


@dataclass(frozen=True)
class _Protocol:
    """Everything a chunk of seeds needs to produce its records."""

    meta: MetaConfig
    dist_train: TaskDistribution
    columns: tuple[_Column, ...]
    methods: tuple[str, ...]
    horizon: int
    n_tasks: int
    adapt_alpha: float
    fresh_per_step: bool


def _chunk_records(
    protocol: _Protocol, cache: TrainingCache, seed_indices: list[int]
) -> list[RunRecord]:
    """Train the chunk's cache misses in lockstep, then adapt and evaluate.

    Adaptation runs every (seed, column) group of the chunk together
    (`adapt_groups`), and so does evaluation (`evaluate_groups`).
    """
    p = protocol
    cfgs = [seed_config(p.meta, k) for k in seed_indices]
    trainers = [t for t, uses in (("plain", {DT, TL}), (ML2O, {ML2O})) if uses & set(p.methods)]
    weights = cache.get_or_train_all([(t, cfg) for t in trainers for cfg in cfgs], p.dist_train)
    trained = {t: weights[i * len(cfgs) : (i + 1) * len(cfgs)] for i, t in enumerate(trainers)}
    adapted_methods = [m for m in p.methods if m != DT]  # direct transfer: no adaptation

    starts, adapt_work = [], []  # per seed; per (seed, column)
    for n, cfg in enumerate(cfgs):
        start = {}
        if TL in p.methods or DT in p.methods:
            start[TL] = start[DT] = trained["plain"][n]
        if ML2O in p.methods:
            start[ML2O] = trained[ML2O][n]
        if VANILLA in p.methods:
            start[VANILLA] = init_params(cfg.hidden, RngStream(cfg.seed).child("vanilla-init"))
        starts.append(start)
        adapt_work += [
            AdaptGroup(
                [start[m] for m in adapted_methods],
                col.dist_adapt,
                RngStream(cfg.seed).child("adapt"),
            )
            for col in p.columns
        ]
    adapted = iter(
        adapt_groups(
            adapt_work,
            p.meta.adapt_steps,
            p.adapt_alpha,
            p.meta.unroll_len,
            grad_mode=p.meta.grad_mode,
            fresh_task_per_step=p.fresh_per_step,
        )
    )

    diverged, groups = [], []  # per (seed, column)
    for seed_index, cfg, start in zip(seed_indices, cfgs, starts):
        for col in p.columns:
            final = {**start, **dict(zip(adapted_methods, next(adapted)))}
            variants, marked = [], []
            for method in p.methods:
                params = final[method]
                if not isinstance(params, DivergenceError):
                    variants.append((method, col.key, params))
                    continue
                marked.append(
                    RunRecord(
                        method=method,
                        key=col.key,
                        seed=seed_index,
                        task_index=0,
                        losses=np.empty(0),
                        min_log_loss=math.nan,
                        task_digest="",
                        theta0_digest="",
                        params_digest="",
                        diverged=True,
                        reason=(
                            f"seed {seed_index}: adaptation step {params.epoch}: {params.cause}"
                        ),
                    )
                )
            diverged.append(marked)
            test_rng = RngStream(cfg.seed).child("test")
            groups.append(EvalGroup(variants, col.dist_test, p.n_tasks, test_rng, seed_index))
    evaluated = evaluate_groups(groups, p.horizon)
    return [r for marked, records in zip(diverged, evaluated) for r in marked + records]


def _worker_records(protocol: _Protocol, cache_dir: str | None, seed_indices: list[int]):
    return _chunk_records(protocol, TrainingCache(cache_dir), seed_indices)


def _compare(
    meta, dist_train, columns, methods, n_seeds, horizon, n_tasks,
    adapt_alpha, fresh_per_step, cache, jobs,
) -> ComparisonTable:
    """The `methods` x `columns` table over `n_seeds` paired seeds; see `compare_methods`.

    The seeds are split into `jobs` contiguous chunks (0: one per core), one
    worker process each; a single chunk runs in this process, with the
    caller's cache.
    Each chunk trains in lockstep, and every seed's records are the same
    whatever chunk it lands in, so `jobs` never changes a result.
    """
    if n_seeds < 2:
        raise ValueError(f"n_seeds must be >= 2, got {n_seeds}")
    if not columns:
        raise ValueError("the sigma list is empty: no column to evaluate")
    _check_column_keys([col.key for col in columns])
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0: all cores), got {jobs}")
    alpha = meta.alpha if adapt_alpha is None else adapt_alpha
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"the adaptation step must be finite and >= 0, got {alpha}")
    protocol = _Protocol(
        meta, dist_train, columns, methods, horizon, n_tasks, alpha, fresh_per_step
    )
    cache = cache or TrainingCache()
    chunks = [
        [int(k) for k in chunk]
        for chunk in np.array_split(np.arange(n_seeds), jobs or os.cpu_count() or 1)
        if chunk.size
    ]
    if len(chunks) == 1:
        return ComparisonTable.from_records(_chunk_records(protocol, cache, chunks[0]))
    from concurrent.futures import ProcessPoolExecutor

    work = functools.partial(_worker_records, protocol, cache.directory)
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return ComparisonTable.from_records([r for part in pool.map(work, chunks) for r in part])


def compare_methods(
    meta: MetaConfig,
    dist_train: TaskDistribution,
    dist_adapt: TaskDistribution,
    dist_test: TaskDistribution,
    sigma_list=None,
    n_seeds: int = 10,
    horizon: int = 200,
    n_tasks: int = 1,
    adapt_alpha: float | None = None,
    fresh_per_step: bool = True,
    cache: TrainingCache | None = None,
    jobs: int = 1,
) -> ComparisonTable:
    """Four-method comparison, optionally sweeping the test/adapt sigma.

    When `sigma_list` is given, both the adaptation and test distributions
    are evaluated at each sigma (they must be normal-coefficient families);
    otherwise the configured distributions are used as-is, in one column.
    Seeds are independent, so `jobs > 1` splits them into that many chunks,
    one process each, without changing any result; `jobs=0` uses one chunk
    per core.
    """
    if sigma_list is None:
        columns = (_Column(dist_test.label(), dist_adapt, dist_test),)
    else:
        if dist_adapt.kind != NORMAL or dist_test.kind != NORMAL:
            raise ValueError("sigma sweeps need normal adapt/test distributions")
        columns = tuple(
            _Column(
                _column_key(float(sigma)),
                replace(dist_adapt, sigma=float(sigma)),
                replace(dist_test, sigma=float(sigma)),
            )
            for sigma in sigma_list
        )
    return _compare(
        meta, dist_train, columns, METHOD_ORDER, n_seeds, horizon, n_tasks,
        adapt_alpha, fresh_per_step, cache, jobs,
    )


def adapt_sweep(
    meta: MetaConfig,
    dist_train: TaskDistribution,
    dist_adapt: TaskDistribution,
    dist_test: TaskDistribution,
    adapt_sigmas,
    test_sigma: float,
    n_seeds: int = 10,
    horizon: int = 200,
    n_tasks: int = 1,
    adapt_alpha: float | None = None,
    fresh_per_step: bool = True,
    cache: TrainingCache | None = None,
    jobs: int = 1,
) -> ComparisonTable:
    """Vary the adaptation distribution's sigma at a fixed test sigma.

    Only the two adapted transfer methods are reported; columns are keyed by
    the adaptation sigma.  With adapt sigma equal to the test sigma this
    reproduces the corresponding `compare_methods` numbers exactly.
    """
    if dist_adapt.kind != NORMAL or dist_test.kind != NORMAL:
        raise ValueError("the adaptation sweep needs normal adapt/test distributions")
    dist_test_fixed = replace(dist_test, sigma=float(test_sigma))
    columns = tuple(
        _Column(_column_key(float(sig)), replace(dist_adapt, sigma=float(sig)), dist_test_fixed)
        for sig in adapt_sigmas
    )
    return _compare(
        meta, dist_train, columns, (TL, ML2O), n_seeds, horizon, n_tasks,
        adapt_alpha, fresh_per_step, cache, jobs,
    )


def blend_params(w1: ParamStack, w2: ParamStack, alpha: float) -> ParamStack:
    """alpha*w1 + (1-alpha)*w2 elementwise; endpoints return the exact input."""
    if w1.hidden != w2.hidden:
        raise ValueError(f"shape mismatch: hidden={w1.hidden} vs hidden={w2.hidden}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"interpolation weight must be in [0, 1], got {alpha}")
    if alpha == 1.0:
        return w1
    if alpha == 0.0:
        return w2
    return w1.with_flat(alpha * w1.to_flat() + (1.0 - alpha) * w2.to_flat())


def interpolate_eval(
    w1: ParamStack,
    w2: ParamStack,
    alpha_grid,
    dist_test: TaskDistribution,
    horizon: int,
    n_seeds: int,
    root_seed: int = 0,
    n_tasks: int = 1,
) -> dict[str, list[RunRecord]]:
    """Evaluate linear blends of two weight vectors on shared test draws.

    Every blend sees exactly the same test tasks and starting iterates, so
    the curves are comparable point by point across the grid.
    """
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    root = RngStream(root_seed)
    _check_column_keys([_column_key(float(a)) for a in alpha_grid])
    blends = {_column_key(float(a)): blend_params(w1, w2, float(a)) for a in alpha_grid}
    if not blends:
        raise ValueError("the list of interpolation weights is empty")
    out: dict[str, list[RunRecord]] = {key: [] for key in blends}
    groups = [
        EvalGroup(
            [("blend", key, params) for key, params in blends.items()],
            dist_test,
            n_tasks,
            RngStream(root.derive_seed(f"seed/{seed_index}")).child("test"),
            seed_index,
        )
        for seed_index in range(n_seeds)
    ]
    for records in evaluate_groups(groups, horizon):
        for r in records:
            out[r.key].append(r)
    return out
