"""Run one `ml2o` command with a span recorded around every call into each layer.

Usage: python3 perfbench/trace_cli.py SPANS.npz ml2o-arguments...

The program is not changed: this script imports the `ml2o` modules, replaces
selected functions and methods of `ml2o.cell`, `ml2o.tasks`, `ml2o.unroll`,
`ml2o.train`, `ml2o.harness` and `ml2o.config` with timing wrappers, then runs
`ml2o.cli.main` with the remaining arguments.  A function imported by name
into another module (``from .cell import cell_forward``) is re-bound there as
well, so every call site goes through the wrapper.  Spans stay in memory and
are written to SPANS.npz once, after the command returns.

Each span holds a name, start, end, the index of the span that was open when
it began (its parent, -1 for none) and one work figure (rows for
`cell_forward`, cell steps for the unroll forward, epochs for a trainer).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array

import ml2o  # noqa: F401  (loads every submodule the wrappers target)
import ml2o.cli
import ml2o.config
import numpy as np

clock = time.perf_counter


class Recorder:
    """Span store: parallel typed arrays, appended in call order."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.stack = [-1]
        # figures that come from return values rather than from spans
        self.epoch_ms: list[float] = []
        self.written: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, work=None):
        """Timing wrapper around `fn`.

        `name` is the span name, or `name(args, kwargs)` picks it per call;
        `work(args, kwargs, result)` gives the span's work figure.
        """
        fixed = None if callable(name) else self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(fixed if fixed is not None else self.name_id(name(args, kwargs)))
            self.parent.append(self.stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.work.append(0.0)
            self.stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self.stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if work is not None:
                self.work[idx] = work(args, kwargs, result)
            return result

        return wrapper

    def save(self, path: str, main_s: float) -> None:
        files, nbytes = 0, 0
        for p in self.written:
            if os.path.isdir(p):
                for entry in os.scandir(p):
                    files += 1
                    nbytes += entry.stat().st_size
            elif os.path.exists(p):
                files += 1
                nbytes += os.path.getsize(p)
        meta = {
            "names": self.names,
            "main_s": main_s,
            "write_files": files,
            "write_bytes": nbytes,
        }
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.float64),
            epoch_ms=np.asarray(self.epoch_ms, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


def _rebind(original, wrapper) -> None:
    """Replace `original` by `wrapper` wherever an ml2o module binds it."""
    for modname, mod in list(sys.modules.items()):
        if modname != "ml2o" and not modname.startswith("ml2o."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(rec: Recorder) -> None:
    # Submodules come from sys.modules: the package re-exports a function
    # named `unroll`, which shadows the `ml2o.unroll` submodule attribute.
    cell = sys.modules["ml2o.cell"]
    tasks = sys.modules["ml2o.tasks"]
    unroll = sys.modules["ml2o.unroll"]
    train = sys.modules["ml2o.train"]
    harness = sys.modules["ml2o.harness"]
    config = sys.modules["ml2o.config"]

    def trainer_work(args, kwargs, result):
        wall_ms = result[1].wall_ms
        rec.epoch_ms.extend(wall_ms)
        return len(wall_ms)

    def forward_steps(args, kwargs, result):
        res = result[0]
        return len(res.losses) - (res.truncated_at is None)

    def forward_name(args, kwargs):
        return "unroll.forward_taped" if kwargs["keep_tape"] else "unroll.forward"

    def written(args, kwargs, result):
        rec.written.append(os.fspath(args[1]))  # (table, path)
        return 0.0

    def diverged(args, kwargs, result):
        return sum(c.n_diverged for c in result.cells)

    functions = [
        (cell, "cell_forward", "cell.cell_forward", lambda a, k, r: len(a[1])),
        (cell, "moment_update", "cell.moment_update", None),
        (cell, "predict_update", "cell.predict_update", None),
        (cell, "save_checkpoint", "cell.save_checkpoint", None),
        (cell, "load_checkpoint", "cell.load_checkpoint", None),
        (tasks, "sample_task", "tasks.sample_task", None),
        (unroll, "unroll", "unroll.unroll", None),
        (unroll, "meta_grad_with_result", "unroll.reverse", None),
        (unroll, "_maml_parts", "unroll.maml_parts", None),
        (train, "train_ml2o", "train.train_ml2o", trainer_work),
        (train, "train_plain_l2o", "train.train_plain_l2o", trainer_work),
        (train, "adapt", "train.adapt", None),
        (harness, "evaluate", "harness.evaluate", None),
        (harness, "compare_methods", "harness.compare_methods", diverged),
        (config, "load_config", "config.load_config", None),
    ]
    for mod, attr, name, work in functions:
        original = getattr(mod, attr)
        _rebind(original, rec.wrap(original, name, work))
    original = unroll._forward
    _rebind(original, rec.wrap(original, forward_name, forward_steps))

    methods = [
        (tasks.OptimizeeTask, "loss_grad", "tasks.loss_grad", None),
        (tasks.OptimizeeTask, "hvp", "tasks.hvp", None),
        (train._AdamOuter, "update", "train.outer_update", None),
        (train._SgdScheduleOuter, "update", "train.outer_update", None),
        (harness.TrainingCache, "get_or_train", "harness.cache", None),
        (harness.ComparisonTable, "write_records_csv", "harness.write", written),
        (harness.ComparisonTable, "write_json", "harness.write", written),
        (harness.ComparisonTable, "write_curves", "harness.write", written),
    ]
    for cls, attr, name, work in methods:
        setattr(cls, attr, rec.wrap(getattr(cls, attr), name, work))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    t0 = clock()
    code = ml2o.cli.main(cli_args)
    main_s = clock() - t0
    rec.save(spans_path, main_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
