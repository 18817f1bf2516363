"""Paired evaluation of trained optimizers against the transfer baselines.

For each evaluation seed the four methods are built from the same draws:

* ``vanilla``: fresh random weights, adapted a few steps on adaptation tasks
* ``tl``:      trained on the training distribution, then adapted
* ``dt``:      trained on the training distribution, no adaptation
* ``ml2o``:    meta-adaptively trained, then adapted

All four see bit-identical adaptation draws and bit-identical test draws for
that seed, so differences come from the weights alone.  The headline metric
is the minimum over the evaluation horizon of the log objective, with exact
zeros clamped at a floor of -40 (`evaluation.min_log_loss`).

This module holds the comparison protocol, the per-seed statistics and the
tables.  The curves are computed by `evaluation` and cached, with the
trained and adapted weights, by `store`.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cell import ParamStack, init_params
from .config import ExperimentConfig
from .evaluation import EvalGroup, RunRecord, _column_key, evaluate_groups
from .numeric import RngStream
from .store import TrainingCache
from .tasks import NORMAL, TaskDistribution
from .train import ML2O, PLAIN, AdaptGroup, MetaConfig

__all__ = [
    "VANILLA",
    "DT",
    "TL",
    "METHOD_ORDER",
    "ComparisonCell",
    "ComparisonTable",
    "confidence_interval",
    "evaluate",
    "compare_methods",
    "adapt_sweep",
    "interpolate_eval",
    "seed_config",
    "read_comparison_json",
    "write_json",
]

VANILLA = "vanilla"
DT = "dt"
TL = "tl"
METHOD_ORDER = (VANILLA, ML2O, DT, TL)


# scipy.special.stdtrit(df, 0.975) for df = 1..100, the exact float64 values
# (repr round-trips), so that no command imports scipy for its intervals.
T975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
)


def confidence_interval(samples) -> tuple[float, float]:
    """Student-t mean estimate: (mean, 95% half-width)."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    if n < 2:
        raise ValueError(f"confidence interval needs at least 2 samples, got {n}")
    mean = float(samples.mean())
    s = float(samples.std(ddof=1))
    if n - 1 <= len(T975):
        t = T975[n - 2]
    else:
        from scipy.special import stdtrit

        t = float(stdtrit(n - 1, 0.975))
    return mean, t * s / math.sqrt(n)


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
            "cells": [asdict(c) for c in self.cells],
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

    def write_curves(
        self,
        directory,
        name=lambda r: f"curve_{r.method}_key{r.key}_seed{r.seed}_task{r.task_index}.csv",
    ) -> None:
        """Write each record's curve text to `directory`, in the file `name(record)`."""
        os.makedirs(directory, exist_ok=True)
        for r in self.records:
            with open(os.path.join(directory, name(r)), "w") as fh:
                fh.write(r.curve)


def _nulls(value):
    """`value` with arrays as lists and non-finite floats as None, which JSON writes as null."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
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


def read_comparison_json(path) -> ComparisonTable:
    """Read a table written by `ComparisonTable.write_json`; null reads as NaN."""
    with open(path) as fh:
        doc = json.load(fh)
    cells = [
        ComparisonCell(**{k: math.nan if v is None else v for k, v in c.items()})
        for c in doc["cells"]
    ]
    return ComparisonTable(cells=cells)


def _check_column_keys(keys: list[str]) -> None:
    """Refuse two columns with one key: their records would merge into one column."""
    for n, key in enumerate(keys):
        if key in keys[:n]:
            raise ValueError(f"two columns share the key {key!r}; values must differ in 6 digits")


def _counted(r: RunRecord) -> bool:
    """Whether a record enters the statistics: not diverged, with a finite metric."""
    return not r.diverged and math.isfinite(r.min_log_loss)


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
    return evaluate_groups([group], horizon, TrainingCache())[0]


def seed_config(cfg: MetaConfig, seed_index: int) -> MetaConfig:
    """Per-repeat config: same knobs, seed derived from the root seed."""
    return replace(cfg, seed=RngStream(cfg.seed).derive_seed(f"seed/{seed_index}"))


@dataclass(frozen=True)
class _Column:
    """One table column: its key and the adaptation and test distributions."""

    key: str
    dist_adapt: TaskDistribution
    dist_test: TaskDistribution


def _chunk_records(
    cfg: ExperimentConfig, columns, methods, cache: TrainingCache, seed_indices: list[int]
) -> list[RunRecord]:
    """Train the chunk's cache misses in lockstep, then adapt and evaluate the misses.

    Adaptation runs the uncached starts of every (seed, column) group of the
    chunk together (`TrainingCache.get_or_adapt_all`).  Evaluation draws every
    group's test tasks and builds every record (`evaluate_groups`), but
    unrolls, and renders the curve text of, only the variants whose curves
    `cache` does not hold.
    """
    metas = [seed_config(cfg.meta, k) for k in seed_indices]
    trainers = [t for t, uses in ((PLAIN, {DT, TL}), (ML2O, {ML2O})) if uses & set(methods)]
    requests = [(t, meta) for t in trainers for meta in metas]
    weights = cache.get_or_train_all(requests, cfg.dist_train)
    trained = {t: weights[i * len(metas) : (i + 1) * len(metas)] for i, t in enumerate(trainers)}
    adapted_methods = [m for m in methods if m != DT]  # direct transfer: no adaptation

    starts, adapt_work = [], []  # per seed; per (seed, column)
    for n, meta in enumerate(metas):
        start = {}
        if TL in methods or DT in methods:
            start[TL] = start[DT] = trained[PLAIN][n]
        if ML2O in methods:
            start[ML2O] = trained[ML2O][n]
        if VANILLA in methods:
            start[VANILLA] = init_params(meta.hidden, RngStream(meta.seed).child("vanilla-init"))
        starts.append(start)
        adapt_work += [
            AdaptGroup(
                [start[m] for m in adapted_methods],
                col.dist_adapt,
                RngStream(meta.seed).child("adapt"),
            )
            for col in columns
        ]
    adapted = iter(cache.get_or_adapt_all(
        adapt_work, cfg.meta.adapt_steps, cfg.adapt_alpha, cfg.meta.unroll_len,
        cfg.meta.grad_mode, cfg.adapt_fresh_per_step,
    ))

    groups = []  # per (seed, column)
    for seed_index, meta, start in zip(seed_indices, metas, starts):
        for col in columns:
            final = {**start, **dict(zip(adapted_methods, next(adapted)))}
            groups.append(EvalGroup(
                [(method, col.key, final[method]) for method in methods],
                col.dist_test, cfg.n_tasks, RngStream(meta.seed).child("test"), seed_index,
            ))
    return [r for records in evaluate_groups(groups, cfg.horizon, cache) for r in records]


def _worker_records(cfg, columns, methods, cache_dir, seed_indices):
    return _chunk_records(cfg, columns, methods, TrainingCache(cache_dir), seed_indices)


def _usable_cores() -> int:
    """How many cores this process may run on (its affinity set, where the platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _compare(cfg: ExperimentConfig, columns, methods, cache) -> ComparisonTable:
    """The `methods` x `columns` table over `cfg.n_seeds` paired seeds; see `compare_methods`.

    The seeds are split into `cfg.jobs` contiguous chunks (0: one per core
    this process may run on), one worker process each; a single chunk runs
    in this process, with the caller's cache.
    Each chunk trains in lockstep, and every seed's records are the same
    whatever chunk it lands in, so `jobs` never changes a result.
    """
    if cfg.n_seeds < 2:
        raise ValueError(f"n_seeds must be >= 2, got {cfg.n_seeds}")
    if not columns:
        raise ValueError("the sigma list is empty: no column to evaluate")
    _check_column_keys([col.key for col in columns])
    if cfg.jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0: all cores), got {cfg.jobs}")
    alpha = cfg.meta.alpha if cfg.adapt_alpha is None else cfg.adapt_alpha
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"the adaptation step must be finite and >= 0, got {alpha}")
    cfg = replace(cfg, adapt_alpha=alpha)
    cache = cache or TrainingCache()
    chunks = [
        [int(k) for k in chunk]
        for chunk in np.array_split(np.arange(cfg.n_seeds), cfg.jobs or _usable_cores())
        if chunk.size
    ]
    if len(chunks) == 1:
        return ComparisonTable.from_records(_chunk_records(cfg, columns, methods, cache, chunks[0]))
    from concurrent.futures import ProcessPoolExecutor

    work = functools.partial(_worker_records, cfg, columns, methods, cache.directory)
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return ComparisonTable.from_records([r for part in pool.map(work, chunks) for r in part])


def compare_methods(cfg: ExperimentConfig, cache: TrainingCache | None = None) -> ComparisonTable:
    """The four-method comparison that `cfg` describes.

    A normal test distribution gives one column per `cfg.sigmas`, with the
    test distribution at that sigma, and the adaptation distribution too when
    it is normal (one without a sigma stays as configured); any other test
    distribution gives one column, keyed by its label, with the configured
    distributions.
    `cfg.jobs` splits the seeds into chunks, one process each (0: one per
    core this process may use), without changing any result.
    """
    adapt, test = cfg.dist_adapt, cfg.dist_test
    if test.kind != NORMAL:
        columns = (_Column(test.label(), adapt, test),)
    else:
        columns = tuple(
            _Column(
                _column_key(sigma),
                replace(adapt, sigma=sigma) if adapt.kind == NORMAL else adapt,
                replace(test, sigma=sigma),
            )
            for sigma in map(float, cfg.sigmas)
        )
    return _compare(cfg, columns, METHOD_ORDER, cache)


def adapt_sweep(cfg: ExperimentConfig, cache: TrainingCache | None = None) -> ComparisonTable:
    """Vary the adaptation distribution's sigma over `cfg.adapt_sigmas` at `cfg.test_sigma`.

    Only the two adapted transfer methods are reported; columns are keyed by
    the adaptation sigma.  With adapt sigma equal to the test sigma this
    reproduces the corresponding `compare_methods` numbers exactly.
    """
    if cfg.dist_adapt.kind != NORMAL or cfg.dist_test.kind != NORMAL:
        raise ValueError("the adaptation sweep needs normal adapt/test distributions")
    test = replace(cfg.dist_test, sigma=float(cfg.test_sigma))
    columns = tuple(
        _Column(_column_key(sigma), replace(cfg.dist_adapt, sigma=sigma), test)
        for sigma in map(float, cfg.adapt_sigmas)
    )
    return _compare(cfg, columns, (TL, ML2O), cache)


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
    return ParamStack(alpha * w1.flat + (1.0 - alpha) * w2.flat, w1.hidden)


def interpolate_eval(cfg: ExperimentConfig, w1: ParamStack, w2: ParamStack) -> ComparisonTable:
    """Evaluate the blends of `blend_params` at `cfg.interp_alphas`, one column each.

    Every blend sees the same test draws, so the curves are comparable point
    by point across the grid; seed k's draws are those of seed k of
    `compare_methods` at the same test distribution.
    """
    if cfg.n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {cfg.n_seeds}")
    keys = [_column_key(float(a)) for a in cfg.interp_alphas]
    _check_column_keys(keys)
    variants = [
        ("blend", key, blend_params(w1, w2, float(a))) for key, a in zip(keys, cfg.interp_alphas)
    ]
    if not variants:
        raise ValueError("the list of interpolation weights is empty")
    metas = [seed_config(cfg.meta, k) for k in range(cfg.n_seeds)]
    groups = [
        EvalGroup(variants, cfg.dist_test, cfg.n_tasks, RngStream(meta.seed).child("test"), k)
        for k, meta in enumerate(metas)
    ]
    evaluated = evaluate_groups(groups, cfg.horizon, TrainingCache())
    return ComparisonTable.from_records([r for records in evaluated for r in records])
