"""The cache store: trained and adapted weights and evaluated curves, in memory and on disk.

`TrainingCache` serves each result from its memo, from its directory, or
else by making it, through one hit/miss/store loop for the three kinds of
entry.  Each kind has its key, its file-name prefix and its file format
here: weights are checkpoints (`cell.save_checkpoint`), curves are
`save_curves` files.  A curve's key holds the source of the modules that
compute it (`_EVALUATION_SOURCES`), which leave this module out, so an edit
to the store keeps every cached curve.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import os
import struct
import sys
import zlib

import numpy as np

from .cell import (
    CheckpointError,
    ParamStack,
    load_checkpoint,
    load_checkpoint_metadata,
    save_checkpoint,
)
from .evaluation import CURVE_HEADER, EvalGroup
from .numeric import RngStream, numeric_environment
from .tasks import TaskDistribution
from .train import (
    ML2O,
    AdaptGroup,
    DivergenceError,
    MetaConfig,
    adapt_groups,
    train_lockstep,
    training_fields,
)
from .unroll import inner_mode

__all__ = [
    "TrainingCache",
    "save_curves",
    "load_curves",
]

# the file-name prefixes of adapted weights and of evaluated curves; trained
# weights are named by trainer
ADAPTED = "adapted"
CURVES = "curves"
CURVES_MAGIC = b"ML2OCRV2"
# the modules whose code an evaluated curve runs through: the cell, the draws,
# the record loop and the curve text (evaluation), the streams, the task law
# and losses, and the unroll
_EVALUATION_SOURCES = ("cell.py", "evaluation.py", "numeric.py", "tasks.py", "unroll.py")


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

        Each group's `rng` must be unread, since an adapted start is keyed by
        its stream's key (`_adapted_key`); a read one is refused before
        anything is served or drawn.  Only the starts that miss are adapted,
        each group on its own stream, so a group whose starts all hit draws
        nothing, and every result is the one `adapt_groups` gives.  The
        weights of a miss are stored; a `DivergenceError` never is, so that
        start is adapted again next time and reports the same reason.
        """
        if not all(g.rng.unread() for g in groups):
            raise ValueError(
                "an adaptation group's random stream has been read; each needs a fresh one"
            )
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

    def get_or_evaluate_all(
        self, live: list[tuple[int, ParamStack]], groups: list[EvalGroup], horizon: int, unroll
    ) -> list:
        """The curves of each (group index, params) pair in `live` on that group's test draws
        over `horizon`, as `evaluate_groups` computes them, each served from the cache where
        it is held.

        `unroll` takes the pairs that miss, one per key in the order first
        asked, and returns each one's curves, which are stored.
        """
        return self._serve(
            [(CURVES, self.curves_key(p, groups[n], horizon), None, (n, p)) for n, p in live],
            unroll,
        )
