"""Per-layer metrics from the spans that trace_cli.py writes.

A span's self time is its duration minus the durations of its direct
children; the program is single-threaded under ``--jobs 1``, so children
never overlap.  A layer a workload never enters reads 0.
"""

from __future__ import annotations

import json

import numpy as np


def _percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(spans_path: str, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Every per-layer metric named in BENCHMARK.json, by name."""
    with np.load(spans_path) as z:
        name, parent = z["name"], z["parent"]
        dur = z["end"] - z["start"]
        work = z["work"]
        epoch_ms = z["epoch_ms"]
        meta = json.loads(str(z["meta"]))
    ids = {n: i for i, n in enumerate(meta["names"])}
    has_parent = parent >= 0
    child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_s = dur - child_s

    def mask(span):
        return name == ids.get(span, -1)

    def calls(span):
        return int(mask(span).sum())

    def total(values, span):
        return float(values[mask(span)].sum())

    def parent_is(span):
        """Spans whose parent is a `span` span."""
        return has_parent & (name[np.where(has_parent, parent, 0)] == ids.get(span, -1))

    m = {}
    for span in ("cell.cell_forward", "cell.save_checkpoint", "cell.load_checkpoint",
                 "tasks.loss_grad", "tasks.hvp", "unroll.reverse", "unroll.maml_parts"):
        m[f"{span}.calls"] = calls(span)
    for span in ("cell.cell_forward", "cell.moment_update", "cell.predict_update",
                 "cell.save_checkpoint", "cell.load_checkpoint", "tasks.loss_grad",
                 "tasks.hvp", "tasks.sample_task", "unroll.forward", "unroll.forward_taped",
                 "unroll.reverse", "unroll.maml_parts", "train.outer_update",
                 "harness.write", "config.load_config"):
        m[f"{span}.self_s"] = total(self_s, span)
    m["cell.cell_forward.rows_per_call"] = (
        total(work, "cell.cell_forward") / max(calls("cell.cell_forward"), 1)
    )
    m["unroll.forward.steps"] = int(total(work, "unroll.forward"))
    m["unroll.forward_taped.steps"] = int(total(work, "unroll.forward_taped"))
    maml_calls = calls("unroll.maml_parts")
    reverse_in_maml = int((mask("unroll.reverse") & parent_is("unroll.maml_parts")).sum())
    m["unroll.maml_parts.reverse_per_call"] = reverse_in_maml / max(maml_calls, 1)

    m["train.train_ml2o.s"] = total(dur, "train.train_ml2o")
    m["train.train_plain_l2o.s"] = total(dur, "train.train_plain_l2o")
    m["train.epochs"] = int(total(work, "train.train_ml2o") + total(work, "train.train_plain_l2o"))
    m["train.epoch_ms_p50"] = _percentile(epoch_ms, 50)
    m["train.epoch_ms_p99"] = _percentile(epoch_ms, 99)
    m["train.adapt.calls"] = calls("train.adapt")
    m["train.adapt.s"] = total(dur, "train.adapt")

    m["harness.evaluate.calls"] = calls("harness.evaluate")
    m["harness.evaluate.s"] = total(dur, "harness.evaluate")
    trajectory_ms = dur[mask("unroll.unroll") & parent_is("harness.evaluate")] * 1e3
    m["harness.trajectory_ms_p50"] = _percentile(trajectory_ms, 50)
    m["harness.trajectory_ms_p98"] = _percentile(trajectory_ms, 98)
    # a cache lookup that had to call a trainer is a miss
    trained = parent[mask("train.train_ml2o") | mask("train.train_plain_l2o")]
    lookups = np.flatnonzero(mask("harness.cache"))
    misses = int(np.isin(lookups, trained).sum())
    m["harness.cache.hits"] = len(lookups) - misses
    m["harness.cache.misses"] = misses
    m["harness.cache.hit_ratio"] = (len(lookups) - misses) / max(len(lookups), 1)
    m["harness.write.files"] = meta["write_files"]
    m["harness.write.bytes"] = meta["write_bytes"]
    m["harness.diverged"] = int(total(work, "harness.compare_methods"))

    m["cli.untraced_s"] = meta["main_s"] - float(dur[~has_parent].sum())
    m["trace.overhead_s"] = traced_wall_s - untraced_wall_s
    return m
