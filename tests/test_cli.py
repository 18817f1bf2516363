import json
import os
import struct

import numpy as np
import pytest

from conftest import write_checkpoint
from ml2o.cell import CheckpointError, ParamLayout, load_checkpoint, random_params, save_checkpoint
from ml2o import cli
from ml2o.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_VERIFY, main
from ml2o.config import ConfigError, load_config
from ml2o.numeric import RngStream

TINY = """
[meta]
seed = 9
hidden = 4
unroll_len = 5
epochs = 6
epochs_per_task = 3
alpha = 1e-4
outer_lr = 1e-3

[train]
family = lasso
dist = mixture
dim = 4

[adapt]
family = lasso
dist = normal
sigma = 10
dim = 4
steps = 2
alpha = 1e-6

[test]
family = lasso
dist = normal
sigma = 10
dim = 4
horizon = 12

[eval]
n_seeds = 2
n_tasks = 1
sigmas = 10
jobs = 1
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(TINY)
    return str(path)


def read_no_wall(path):
    rows = []
    for line in open(path).read().strip().splitlines():
        cols = line.split(",")
        rows.append(",".join(cols[:3]))  # epoch, meta_loss, task_id
    return rows


def test_config_defaults_follow_reference_setup(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("[meta]\nseed = 4\n")
    cfg = load_config(str(path))
    assert cfg.meta.epochs == 5000
    assert cfg.meta.unroll_len == 20
    assert cfg.meta.hidden == 20
    assert cfg.meta.outer_lr == 1e-4
    assert cfg.meta.adapt_steps == 5
    assert cfg.dist_train.lam == 0.005
    assert cfg.n_seeds == 10
    assert cfg.sigmas == (10.0, 25.0, 50.0, 100.0, 200.0)
    assert cfg.horizon == 200


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[meta]\nseeed = 4\n")
    with pytest.raises(ConfigError, match="seeed"):
        load_config(str(path))
    path.write_text("[metaa]\nseed = 4\n")
    with pytest.raises(ConfigError, match="metaa"):
        load_config(str(path))


def test_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[meta]\nepochs = soon\n")
    with pytest.raises(ConfigError, match="epochs"):
        load_config(str(path))


def test_missing_config_names_path(tmp_path, capsys):
    rc = main(["meta-train", "--config", str(tmp_path / "nope.ini"),
               "--method", "plain", "--out", str(tmp_path / "out")])
    assert rc == EXIT_CONFIG
    assert "nope.ini" in capsys.readouterr().err


def test_meta_train_writes_artifacts_and_echo(tiny_config, tmp_path):
    out = tmp_path / "run"
    rc = main(["meta-train", "--config", tiny_config, "--method", "plain",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "checkpoint_plain.ckpt").exists()
    assert (out / "trainlog.csv").exists()
    echoed = (out / "config.resolved.ini").read_text()
    assert "[meta]" in echoed and "epochs = 6" in echoed
    params = load_checkpoint(out / "checkpoint_plain.ckpt")
    assert params.hidden == 4


def test_meta_train_warns_alpha_ignored_for_plain(tiny_config, tmp_path, capsys):
    rc = main(["meta-train", "--config", tiny_config, "--method", "plain",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    assert "alpha" in capsys.readouterr().err


def test_meta_train_rerun_is_byte_identical(tiny_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["meta-train", "--config", tiny_config, "--method", "ml2o",
                     "--out", str(out)]) == EXIT_OK
    ck1 = (out1 / "checkpoint_ml2o.ckpt").read_bytes()
    ck2 = (out2 / "checkpoint_ml2o.ckpt").read_bytes()
    assert ck1 == ck2
    assert read_no_wall(out1 / "trainlog.csv") == read_no_wall(out2 / "trainlog.csv")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_meta_train_divergence_exit_code(tmp_path, capsys):
    path = tmp_path / "explode.ini"
    path.write_text(
        TINY.replace("outer_lr = 1e-3", "outer = sgd_schedule\nsgd_beta = 1e150\nsgd_mu = 1e-300")
    )
    rc = main(["meta-train", "--config", str(path), "--method", "plain",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_DIVERGED
    last = load_checkpoint(tmp_path / "o" / "checkpoint_last_good.ckpt")
    assert np.all(np.isfinite(last.to_flat()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compare_divergence_exit_code_with_and_without_workers(tmp_path, capsys):
    path = tmp_path / "explode.ini"
    path.write_text(
        TINY.replace("outer_lr = 1e-3", "outer = sgd_schedule\nsgd_beta = 1e150\nsgd_mu = 1e-300")
    )
    for jobs in ("1", "2"):
        rc = main(["compare", "--config", str(path), "--jobs", jobs,
                   "--out", str(tmp_path / f"o{jobs}")])
        assert rc == EXIT_DIVERGED
        assert "diverged at epoch" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compare_reports_first_adaptation_divergence_reason(tmp_path, capsys):
    path = tmp_path / "explode.ini"
    path.write_text(TINY.replace("alpha = 1e-6", "alpha = 1e150"))
    rc = main(["compare", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    warning = [line for line in capsys.readouterr().err.splitlines() if "method=vanilla" in line]
    assert len(warning) == 1
    assert "2 diverged run(s); first: seed 0: adaptation step " in warning[0]
    header = (tmp_path / "o" / "comparison.csv").read_text().splitlines()[0]
    assert header == "method,key,seed,task,min_log_loss,truncated_at,diverged"


def test_fd_minus_half_divergence_exit_code(tiny_config, tmp_path, poison_fd_minus_half):
    poison_fd_minus_half([0])
    rc = main(["meta-train", "--config", tiny_config, "--method", "ml2o",
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_DIVERGED
    assert (tmp_path / "o" / "checkpoint_last_good.ckpt").exists()
    rc = main(["compare", "--config", tiny_config, "--jobs", "1",
               "--out", str(tmp_path / "c")])
    assert rc == EXIT_DIVERGED


def test_compare_smoke_emits_all_outputs(tiny_config, tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", tiny_config, "--out", str(out),
               "--sigmas", "10", "--cache-dir", str(tmp_path / "cache")])
    assert rc == EXIT_OK
    assert (out / "comparison.csv").exists()
    assert (out / "comparison.json").exists()
    curves = list((out / "curves").glob("curve_*.csv"))
    assert len(curves) == 8  # 4 methods x 2 seeds x 1 task
    doc = json.loads((out / "comparison.json").read_text())
    assert sorted(doc["methods"]) == ["dt", "ml2o", "tl", "vanilla"]


def test_compare_rerun_byte_identical(tiny_config, tmp_path):
    outs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        rc = main(["compare", "--config", tiny_config, "--out", str(out),
                   "--sigmas", "10"])
        assert rc == EXIT_OK
        outs.append(out)
    assert (outs[0] / "comparison.csv").read_bytes() == (outs[1] / "comparison.csv").read_bytes()
    assert (outs[0] / "comparison.json").read_bytes() == (outs[1] / "comparison.json").read_bytes()


def test_sweep_smoke(tiny_config, tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", tiny_config, "--out", str(out),
               "--adapt-sigmas", "5,10", "--test-sigma", "10",
               "--cache-dir", str(tmp_path / "cache")])
    assert rc == EXIT_OK
    doc = json.loads((out / "sweep.json").read_text())
    assert sorted(doc["columns"]) == ["10", "5"]
    assert sorted(doc["methods"]) == ["ml2o", "tl"]


def test_verify_grad_and_jacobian_pass(tiny_config, tmp_path, capsys):
    for suite in ("grad", "jacobian"):
        rc = main(["verify", "--config", tiny_config, "--suite", suite,
                   "--out", str(tmp_path / suite)])
        assert rc == EXIT_OK
        assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("suite, derivative", [("grad", "meta_grad"), ("jacobian", "jacobian_recursive")])
def test_verify_failure_exits_4_and_dumps_worst_case(tiny_config, tmp_path, capsys, monkeypatch, suite, derivative):
    # a derivative that is off by a factor of two must fail its suite
    real = getattr(cli, derivative)
    monkeypatch.setattr(cli, derivative, lambda *args: 2.0 * real(*args))
    out = tmp_path / suite
    rc = main(["verify", "--config", tiny_config, "--suite", suite, "--out", str(out)])
    assert rc == EXIT_VERIFY
    assert f"FAIL {suite}: max rel error" in capsys.readouterr().out
    doc = json.loads((out / "worst_case.json").read_text())
    assert set(doc) == {
        "suite", "rel_error", "task", "theta0", "params_flat", "hidden", "feature_dim", "horizon"
    }
    assert doc["suite"] == suite
    assert doc["rel_error"] > 0.5
    assert doc["feature_dim"] == 2
    assert len(doc["params_flat"]) == ParamLayout(doc["hidden"], 2).size
    assert len(doc["theta0"]) == doc["task"]["dim"]


def test_verify_gaps_identical_distributions_zero(tiny_config, tmp_path):
    # the tiny config's adaptation and test sources coincide, so the probed
    # tasks are the identical draw and both gaps vanish exactly
    out = tmp_path / "gaps"
    rc = main(["verify", "--config", tiny_config, "--suite", "gaps", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads((out / "gaps.json").read_text())
    assert doc["grad_gap"] == 0.0 and doc["hess_gap"] == 0.0


def test_verify_growth_writes_report(tiny_config, tmp_path):
    out = tmp_path / "growth"
    rc = main(["verify", "--config", tiny_config, "--suite", "growth", "--out", str(out)])
    assert rc == EXIT_OK
    assert (out / "growth.csv").exists()
    doc = json.loads((out / "growth.json").read_text())
    assert doc["nondecreasing_fraction"] >= 0.9


def test_interpolate_identical_checkpoints_flat(tiny_config, tmp_path):
    w = random_params(4, 2, RngStream(3).child("w"))
    p1 = tmp_path / "w1.ckpt"
    p2 = tmp_path / "w2.ckpt"
    save_checkpoint(w, p1)
    save_checkpoint(w, p2)
    out = tmp_path / "interp"
    rc = main(["interpolate", "--config", tiny_config, "--w1", str(p1),
               "--w2", str(p2), "--alphas", "0,0.5,1", "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads((out / "interpolation.json").read_text())
    means = {row["alpha"]: row["mean_min_log_loss"] for row in doc}
    assert means[0.0] == means[0.5] == means[1.0]


def test_interpolate_shape_mismatch_is_config_error(tiny_config, tmp_path, capsys):
    p1 = tmp_path / "w1.ckpt"
    p2 = tmp_path / "w2.ckpt"
    save_checkpoint(random_params(4, 2, RngStream(1)), p1)
    save_checkpoint(random_params(5, 2, RngStream(1)), p2)
    rc = main(["interpolate", "--config", tiny_config, "--w1", str(p1),
               "--w2", str(p2), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "hidden=4" in capsys.readouterr().err


def test_absurd_checkpoint_header_is_config_error(tiny_config, tmp_path, capsys):
    # 36 bytes whose header claims 2**30 hidden units and a payload count to
    # match: the lengths must be refused against the file size, not read
    hidden = 2**30
    count = ParamLayout(hidden, 2).size
    header = b"ML2O" + struct.pack("<IIId", 1, hidden, 2, 0.01)
    huge_payload = tmp_path / "payload.ckpt"
    huge_payload.write_bytes(header + struct.pack("<I", 0) + struct.pack("<Q", count))
    assert huge_payload.stat().st_size == 36
    huge_meta = tmp_path / "meta.ckpt"
    huge_meta.write_bytes(header + struct.pack("<I", 2**32 - 1) + b"x" * 8)
    good = tmp_path / "good.ckpt"
    save_checkpoint(random_params(4, 2, RngStream(1)), good)
    for bad in (huge_payload, huge_meta):
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(bad)
        rc = main(["interpolate", "--config", tiny_config, "--w1", str(bad),
                   "--w2", str(good), "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "checkpoint error" in capsys.readouterr().err


def test_zero_size_checkpoint_is_config_error(tiny_config, tmp_path, capsys):
    # no hidden units: the cell would run and emit a constant update
    bad = write_checkpoint(tmp_path / "zero.ckpt", 0, 2)
    rc = main(["interpolate", "--config", tiny_config, "--w1", str(bad),
               "--w2", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "checkpoint error" in capsys.readouterr().err


def test_commands_write_only_inside_out_dir(tiny_config, tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only-here"
    rc = main(["meta-train", "--config", tiny_config, "--method", "plain",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert os.listdir(workdir) == []
