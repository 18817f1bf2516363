"""The benchmark's tracer must keep running against the package.

`perfbench/trace_cli.py` re-binds functions and methods of `ml2o` by name; a
name it binds that the package drops breaks `perfbench/run.py --trace 1`,
and a call site it does not re-bind escapes its spans.
"""

import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ml2o.cli import EXIT_OK, main
from test_cli import TINY, out_files

ROOT = Path(__file__).resolve().parents[1]


def trace(tmp_path, name, args) -> collections.Counter:
    """Run `ml2o ARGS --out tmp_path/name` under the tracer; returns its spans per name."""
    spans = tmp_path / f"{name}.npz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(spans),
         *args, "--out", str(tmp_path / name)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert traced.returncode == EXIT_OK, traced.stderr
    with np.load(spans) as z:
        names = json.loads(str(z["meta"]))["names"]
        return collections.Counter(names[i] for i in z["name"])


def tiny_compare(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(TINY)
    return ["compare", "--config", str(config), "--n-seeds", "2", "--jobs", "1"]


def test_traced_compare_matches_untraced(tmp_path):
    args = tiny_compare(tmp_path)
    assert sum(trace(tmp_path, "traced", args).values()) > 0
    assert main([*args, "--out", str(tmp_path / "plain")]) == EXIT_OK
    # every output file, the curves that the wrapped `write_curves` writes included
    assert out_files(tmp_path / "traced") == out_files(tmp_path / "plain")
    assert len([name for name in out_files(tmp_path / "plain") if name.startswith("curves")]) == 8


def test_traced_compare_spans_every_checkpoint_read_and_write(tmp_path):
    # the per-layer checkpoint figures: one save span per checkpoint a cold run
    # caches, one load span per checkpoint a warm run serves
    cache = tmp_path / "cache"
    args = [*tiny_compare(tmp_path), "--cache-dir", str(cache)]
    cold = trace(tmp_path, "cold", args)
    written = len(list(cache.glob("*.ckpt")))
    warm = trace(tmp_path, "warm", args)
    assert written == 10  # per seed: plain, ml2o and three adapted
    assert (cold["cell.save_checkpoint"], cold["cell.load_checkpoint"]) == (written, 0)
    assert (warm["cell.save_checkpoint"], warm["cell.load_checkpoint"]) == (0, written)
    assert len(list(cache.glob("*.ckpt"))) == written


def test_traced_compare_spans_every_step_of_the_kernel(tmp_path):
    # the per-layer cell figures: each forward step of every unroll, taped or
    # not, goes through the wrapped `cell` functions once, inside its span
    trace(tmp_path, "cold", tiny_compare(tmp_path))
    with np.load(tmp_path / "cold.npz") as z:
        names = json.loads(str(z["meta"]))["names"]
        name, parent, work = z["name"], z["parent"], z["work"]
    forward = [i for i, k in enumerate(name) if names[k].startswith("unroll.forward")]
    assert {names[name[i]] for i in forward} == {"unroll.forward", "unroll.forward_taped"}
    for layer in ("cell.cell_forward", "cell.moment_update", "cell.predict_update"):
        spans = name == names.index(layer)
        for i in forward:
            assert np.count_nonzero(spans & (parent == i)) == work[i]
        assert np.count_nonzero(spans) == sum(work[i] for i in forward)
