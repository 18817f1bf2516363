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

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import struct
import sys
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .cell import (
    CheckpointError,
    ParamStack,
    init_params,
    load_checkpoint,
    load_checkpoint_metadata,
    save_checkpoint,
)
from .config import ExperimentConfig
from .numeric import RngStream, array_digest, numeric_environment
from .tasks import NORMAL, TaskDistribution, TaskStack, sample_task, sample_theta0
from .train import (
    AdaptGroup,
    DivergenceError,
    MetaConfig,
    adapt_groups,
    train_lockstep,
    training_fields,
)
from .unroll import STACK_ROWS, inner_mode, row_stacks, unroll_stack

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
    "save_curves",
    "load_curves",
    "render_curve",
    "write_json",
]

VANILLA = "vanilla"
ML2O = "ml2o"
DT = "dt"
TL = "tl"
METHOD_ORDER = (VANILLA, ML2O, DT, TL)

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


@functools.cache
def _curve_template(n: int) -> str:
    """The `%` template of an n-step curve file; a run has at most horizon + 1 lengths."""
    return CURVE_HEADER + "".join(f"{t},%.17g\n" for t in range(n))


def render_curve(losses: np.ndarray) -> str:
    """The text of a curve file: a `step,loss` header, then one `t,loss` row per step,
    each loss in `.17g`, so that it reads back to the same float."""
    values = tuple(np.asarray(losses, dtype=np.float64).tolist())
    return _curve_template(len(values)) % values


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

    `variants` is a sequence of (method, key, params), each params a stack of
    one, or the `DivergenceError` of that variant's adaptation.
    """

    variants: list[tuple[str, str, ParamStack | DivergenceError]]
    dist_test: TaskDistribution
    n_tasks: int
    rng: RngStream
    seed: int = 0


def evaluate_groups(
    groups: list[EvalGroup], horizon: int, cache: TrainingCache | None = None
) -> list[list[RunRecord]]:
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
    are served from `cache` where held, only the misses are unrolled and
    rendered, and every record is the one computed without it.
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

    cache = cache or TrainingCache()
    curves = iter(cache._serve(
        [(CURVES, cache.curves_key(p, groups[n], horizon), None, (n, p)) for n, p in live],
        unroll_curves,
    ))

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


# the file-name prefixes of adapted weights and of evaluated curves; trained
# weights are named by trainer
ADAPTED = "adapted"
CURVES = "curves"
CURVES_MAGIC = b"ML2OCRV2"
# the modules whose code an evaluated curve runs through: the draws, the
# record loop and the curve text (harness), the task law and losses, the
# cell, and the unroll
_EVALUATION_SOURCES = ("cell.py", "harness.py", "numeric.py", "tasks.py", "unroll.py")


def _hash_key(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def _dist_fields(dist: TaskDistribution) -> dict:
    return {k: getattr(dist, k) for k in sorted(vars(dist))}


@functools.cache
def _evaluation_identity() -> str:
    """blake2b of the source bytes of `_EVALUATION_SOURCES`, numpy's version and this
    process's numeric environment: what, besides its inputs, fixes a curve's bits."""
    h = hashlib.blake2b(digest_size=16)
    for name in _EVALUATION_SOURCES:
        with open(os.path.join(os.path.dirname(__file__), name), "rb") as fh:
            h.update(fh.read())
    h.update(f"numpy={np.__version__} {numeric_environment()}".encode())
    return h.hexdigest()


def save_curves(curves: list[tuple[np.ndarray, int | None, str]], path) -> None:
    """Write one variant's (losses, truncated_at, curve text) per test task, little-endian.

    Layout: magic "ML2OCRV2", i64 task count n, n i64 cuts (-1: not cut),
    n i64 curve lengths, n i64 text byte lengths, every curve's f64 losses in
    task order, every curve's ASCII text in task order, then a u32 CRC-32 of
    all the bytes before it.
    """
    cuts = [-1 if cut is None else cut for _, cut, _ in curves]
    texts = [text.encode("ascii") for _, _, text in curves]
    head = np.array(
        [len(curves), *cuts, *(len(losses) for losses, _, _ in curves), *map(len, texts)],
        dtype="<i8",
    )
    body = b"".join([
        CURVES_MAGIC,
        head.tobytes(),
        np.concatenate([losses for losses, _, _ in curves]).astype("<f8").tobytes(),
        *texts,
    ])
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body)))


def load_curves(path) -> list[tuple[np.ndarray, int | None, str]]:
    """Read curves written by `save_curves`; a truncated or corrupt file is a
    `CheckpointError` that names it."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot open: {exc.strerror}") from exc
    body = memoryview(blob)[:-4]
    start = len(CURVES_MAGIC) + 8
    if len(blob) < start + 4 or not blob.startswith(CURVES_MAGIC):
        raise CheckpointError(f"{path}: corrupt cached curves: bad magic or truncated")
    if struct.unpack("<I", blob[-4:])[0] != zlib.crc32(body):
        raise CheckpointError(f"{path}: corrupt cached curves: checksum mismatch")
    (n,) = struct.unpack_from("<q", body, len(CURVES_MAGIC))
    if not 0 < n <= (len(body) - start) // 24:
        raise CheckpointError(f"{path}: corrupt cached curves: {n} tasks")
    # Python ints, so that no sum of lengths wraps
    head = struct.unpack_from(f"<{3 * n}q", body, start)
    cuts, lengths, text_lengths = head[:n], head[n : 2 * n], head[2 * n :]
    if min(head[n:]) < 0:
        raise CheckpointError(f"{path}: corrupt cached curves: a negative length")
    if any(cut not in (-1, length) for cut, length in zip(cuts, lengths)):
        raise CheckpointError(f"{path}: corrupt cached curves: a cut that is not its curve's end")
    losses_at = start + 24 * n
    texts_at = losses_at + 8 * sum(lengths)
    if texts_at + sum(text_lengths) != len(body):
        raise CheckpointError(f"{path}: corrupt cached curves: lengths do not match the size")
    ends = list(itertools.accumulate(text_lengths, initial=texts_at))
    try:
        texts = [str(body[begin:end], "ascii") for begin, end in zip(ends, ends[1:])]
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: corrupt cached curves: curve text is not ASCII") from exc
    if any(
        not text.startswith(CURVE_HEADER) or text.count("\n") != length + 1
        for text, length in zip(texts, lengths)
    ):
        raise CheckpointError(f"{path}: corrupt cached curves: a text is not one row per loss")
    losses = np.frombuffer(body, "<f8", sum(lengths), losses_at).astype(np.float64)
    curves = np.split(losses, list(itertools.accumulate(lengths))[:-1])
    return [
        (curve, None if cut == -1 else cut, text)
        for curve, cut, text in zip(curves, cuts, texts)
    ]


class _WeightEntries:
    """Trained (named by trainer) and adapted weights: checkpoints whose metadata
    records the numeric environment, served from another one with a warning."""

    ext, what = "ckpt", "weights"

    @staticmethod
    def save(params: ParamStack, path, name: str, key: str) -> None:
        label = ADAPTED if name == ADAPTED else f"trainer={name}"
        save_checkpoint(params, path, metadata=f"{label} key={key} {numeric_environment()}")

    @staticmethod
    def load(path, name: str, hidden: int) -> ParamStack:
        params = load_checkpoint(path)
        if params.hidden != hidden:
            raise CheckpointError(
                f"{path}: cached weights have hidden={params.hidden}, "
                f"this run needs hidden={hidden}"
            )
        # other SIMD paths or BLAS cores change the last bits: serve, but say so
        here = str(numeric_environment())
        metadata = load_checkpoint_metadata(path).split()
        recorded = " ".join(t for t in metadata if t.startswith(("simd=", "blas=")))
        if recorded != here:  # one write, so that workers' lines never interleave
            made = "adapted" if name == ADAPTED else "trained"
            sys.stderr.write(
                f"warning: cached {path} was {made} under "
                f"{recorded or 'an unrecorded numeric environment'}, this process runs {here}\n"
            )
        return params


class _CurveEntries:
    """Evaluated curves and their files' text (`save_curves`); their key holds the code and
    the environment."""

    ext, what = "crv", "curves"

    @staticmethod
    def save(curves, path, name: str, key: str) -> None:
        save_curves(curves, path)

    @staticmethod
    def load(path, name: str, hidden: None):
        return load_curves(path)


def _entries(name: str):
    """The kind of cache entry stored under `name`: curves, or else weights."""
    return _CurveEntries if name == CURVES else _WeightEntries


class TrainingCache:
    """Deterministic memo for trained and adapted weights and evaluated curves,
    optionally backed by a directory.

    Training is a pure function of (trainer, config, distribution), and
    adaptation one of (start weights, adaptation draws, settings), in one
    numeric environment, so caching never changes a result there; a file made
    in another environment, or an unrecorded one, is served with a stderr
    warning.  A file whose `hidden` is not the one asked for is refused.
    An evaluated curve is keyed by its inputs and by the code and numeric
    environment that computed it (`curves_key`), so it is never served
    across either.
    """

    def __init__(self, directory: str | None = None):
        self.directory = directory
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
        self._memo: dict[str, object] = {}

    @staticmethod
    def _key(trainer: str, cfg: MetaConfig, dist: TaskDistribution) -> str:
        return _hash_key({
            "trainer": trainer,
            "cfg": training_fields(cfg, trainer == ML2O),
            "dist": _dist_fields(dist),
        })

    @staticmethod
    def _adapted_key(
        start: ParamStack,
        dist_adapt: TaskDistribution,
        rng: RngStream,
        steps: int,
        alpha: float,
        unroll_len: int,
        grad_mode: str,
        fresh_task_per_step: bool,
    ) -> str:
        """Key of `start` adapted on unread `rng`'s draws from `dist_adapt`, as `adapt_groups` does.

        The trajectory mode stands for `grad_mode`, since adaptation reads no other.
        """
        return _hash_key({
            "start": start.digest(),
            "dist": _dist_fields(dist_adapt),
            "rng": rng.key.hex(),
            "steps": steps,
            "alpha": float(alpha),
            "unroll_len": unroll_len,
            "grad_mode": inner_mode(grad_mode),
            "fresh_task_per_step": fresh_task_per_step,
        })

    @staticmethod
    def curves_key(params: ParamStack, group: EvalGroup, horizon: int) -> str:
        """Key of `params`' curves on `group`'s test draws, from its unread `rng`, as
        `evaluate_groups` computes them in this code and numeric environment."""
        return _hash_key({
            "params": params.digest(),
            "dist": _dist_fields(group.dist_test),
            "rng": group.rng.key.hex(),
            "n_tasks": group.n_tasks,
            "horizon": horizon,
            "code": _evaluation_identity(),
        })

    def _path(self, name: str, key: str) -> str | None:
        if self.directory is None:
            return None
        return os.path.join(self.directory, f"{name}-{key}.{_entries(name).ext}")

    def _cached(self, name: str, key: str, hidden: int | None) -> bool:
        if key not in self._memo:
            path = self._path(name, key)
            if path is None or not os.path.exists(path):
                return False
            self._memo[key] = _entries(name).load(path, name, hidden)
        return True

    def _store(self, name: str, key: str, result) -> None:
        """Memoize `result`; write it to a temporary file of its own writer, then rename it
        into place, so commands sharing a directory never collide.  A failed write leaves
        no temporary file behind."""
        self._memo[key] = result
        path = self._path(name, key)
        if path is not None:
            tmp = f"{path}.{os.getpid()}-{os.urandom(6).hex()}.tmp"
            try:
                _entries(name).save(result, tmp, name, key)
                os.replace(tmp, path)
            except BaseException as exc:
                with contextlib.suppress(OSError):
                    os.remove(tmp)
                if not isinstance(exc, OSError):
                    raise
                raise CheckpointError(
                    f"{path}: cannot write cached {_entries(name).what}: {exc}"
                ) from exc

    def _serve(self, entries: list[tuple[str, str, int | None, object]], make) -> list:
        """Each (name, key, hidden, item) entry's result: from the memo, the directory or `make`.

        `make` takes the misses' items, one per key in the order first asked,
        and returns a result for each.  Every result but a `DivergenceError`
        is stored under its entry's name.
        """
        missing = {}  # key -> (name, item)
        for name, key, hidden, item in entries:
            if key not in missing and not self._cached(name, key, hidden):
                missing[key] = (name, item)
        results = dict(zip(missing, make([item for _, item in missing.values()])))
        for key, result in results.items():
            if not isinstance(result, DivergenceError):
                self._store(missing[key][0], key, result)
        return [results[key] if key in results else self._memo[key] for _, key, _, _ in entries]

    def get_or_train(
        self, trainer: str, cfg: MetaConfig, dist: TaskDistribution
    ) -> ParamStack:
        return self.get_or_train_all([(trainer, cfg)], dist)[0]

    def get_or_train_all(
        self, requests: list[tuple[str, MetaConfig]], dist: TaskDistribution
    ) -> list[ParamStack]:
        """Weights for each (trainer, config); the misses of both trainers are
        trained together in lockstep, and none is stored if any diverges."""
        return self._serve(
            [(t, self._key(t, cfg, dist), cfg.hidden, (cfg, t == ML2O)) for t, cfg in requests],
            lambda runs: [params for params, _ in train_lockstep(runs, dist)],
        )

    def get_or_adapt_all(
        self,
        groups: list[AdaptGroup],
        steps: int,
        alpha: float,
        unroll_len: int,
        grad_mode: str,
        fresh_task_per_step: bool,
    ) -> list[list[ParamStack | DivergenceError]]:
        """`adapt_groups` of `groups`, each start served from the cache where it is held.

        Each group's `rng` must be unread.  Only the starts that miss are
        adapted, each group on its own stream, so a group whose starts all hit
        draws nothing, and every result is the one `adapt_groups` gives.  The
        weights of a miss are stored; a `DivergenceError` never is, so that
        start is adapted again next time and reports the same reason.
        """
        settings = (steps, alpha, unroll_len, grad_mode, fresh_task_per_step)

        def adapt_misses(items):  # (group index, start) pairs, in group order
            asking = [groups[n]._replace(starts=[s for m, s in items if m == n])
                      for n in sorted({n for n, _ in items})]
            return [result for group in adapt_groups(asking, *settings) for result in group]

        served = iter(self._serve(
            [(ADAPTED, self._adapted_key(s, g.dist_adapt, g.rng, *settings), s.hidden, (n, s))
             for n, g in enumerate(groups) for s in g.starts],
            adapt_misses,
        ))
        return [[next(served) for _ in g.starts] for g in groups]


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
    trainers = [t for t, uses in (("plain", {DT, TL}), (ML2O, {ML2O})) if uses & set(methods)]
    requests = [(t, meta) for t in trainers for meta in metas]
    weights = cache.get_or_train_all(requests, cfg.dist_train)
    trained = {t: weights[i * len(metas) : (i + 1) * len(metas)] for i, t in enumerate(trainers)}
    adapted_methods = [m for m in methods if m != DT]  # direct transfer: no adaptation

    starts, adapt_work = [], []  # per seed; per (seed, column)
    for n, meta in enumerate(metas):
        start = {}
        if TL in methods or DT in methods:
            start[TL] = start[DT] = trained["plain"][n]
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
    evaluated = evaluate_groups(groups, cfg.horizon)
    return ComparisonTable.from_records([r for records in evaluated for r in records])
