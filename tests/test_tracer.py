"""The benchmark's tracer must keep running against the package.

`perfbench/trace_cli.py` re-binds functions and methods of `ml2o` by name; a
name it binds that the package drops breaks `perfbench/run.py --trace 1`.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ml2o.cli import EXIT_OK, main
from test_cli import TINY, out_files

ROOT = Path(__file__).resolve().parents[1]


def test_traced_compare_matches_untraced(tmp_path):
    config = tmp_path / "exp.ini"
    config.write_text(TINY)
    args = ["compare", "--config", str(config), "--n-seeds", "2", "--jobs", "1"]
    spans = tmp_path / "spans.npz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(spans),
         *args, "--out", str(tmp_path / "traced")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert traced.returncode == EXIT_OK, traced.stderr
    with np.load(spans) as z:
        assert z["name"].size > 0
    assert main([*args, "--out", str(tmp_path / "plain")]) == EXIT_OK
    # every output file, the curves that the wrapped `write_curves` writes included
    assert out_files(tmp_path / "traced") == out_files(tmp_path / "plain")
    assert len([name for name in out_files(tmp_path / "plain") if name.startswith("curves")]) == 8
