import gc
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from conftest import child_env, write_checkpoint
from ml2o.cell import (
    CheckpointError,
    ParamLayout,
    load_checkpoint,
    load_checkpoint_metadata,
    random_params,
    save_checkpoint,
)
from ml2o import cli, harness
from ml2o.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_VERIFY, main
from ml2o.config import ConfigError, load_config
from ml2o.harness import TrainingCache
from ml2o.numeric import RngStream, numeric_environment

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


def run_module(*args):
    """`python -m ml2o.cli ARGS` in a fresh interpreter, which exits through `entry`."""
    return subprocess.run(
        [sys.executable, "-m", "ml2o.cli", *args],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )


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
    assert cfg.adapt_alpha is None  # the comparison adapts with [meta] alpha


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[meta]\nseeed = 4\n")
    with pytest.raises(ConfigError, match="seeed"):
        load_config(str(path))
    path.write_text("[metaa]\nseed = 4\n")
    with pytest.raises(ConfigError, match="metaa"):
        load_config(str(path))
    # [DEFAULT] would otherwise hand its keys to every section, or to none
    for text in ("[DEFAULT]\nseed = 5\nbogus = 1\n", "[DEFAULT]\n[meta]\nseed = 5\n"):
        path.write_text(text)
        with pytest.raises(ConfigError, match=r"unknown config section \[DEFAULT\]"):
            load_config(str(path))


def test_config_rejects_bad_value(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[meta]\nepochs = soon\n")
    with pytest.raises(ConfigError, match="epochs"):
        load_config(str(path))


def test_config_rejects_other_feature_dim(tmp_path, capsys):
    path = tmp_path / "f3.ini"
    path.write_text(TINY.replace("hidden = 4", "hidden = 4\nfeature_dim = 3"))
    with pytest.raises(ConfigError, match="unknown key 'feature_dim' in section \\[meta\\]"):
        load_config(str(path))
    out = tmp_path / "o"
    rc = main(["compare", "--config", str(path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_cache_keys_are_pinned(tiny_config):
    # `feature_dim` left the config but stays in the key, so existing cache
    # directories keep serving the same files
    cfg = load_config(tiny_config)
    keys = {t: TrainingCache._key(t, cfg.meta, cfg.dist_train) for t in ("plain", "ml2o")}
    assert keys == {
        "plain": "6f48a3eca64c2117f288cb4c64540ee1",
        "ml2o": "76a21f1c57c1e3dac7a944f69e409fd0",
    }


def test_config_rejects_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes("[meta]\n# caf\u00e9\nseed = 4\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot parse config"):
        load_config(str(path))
    rc = main(["meta-train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


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
    assert load_checkpoint_metadata(out / "checkpoint_plain.ckpt") == (
        f"method=plain seed=9 epochs=6 {numeric_environment()}"
    )


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
    metadata = load_checkpoint_metadata(tmp_path / "o" / "checkpoint_last_good.ckpt")
    assert metadata.startswith("diverged-at-epoch=")
    assert metadata.endswith(f" {numeric_environment()}")


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
    assert len(doc["params_flat"]) == ParamLayout(doc["hidden"]).size
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
    w = random_params(4, RngStream(3).child("w"))
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


def test_interpolate_summary_is_per_seed(tmp_path):
    # the statistic of `compare`: each seed's tasks are averaged first, so
    # n counts seeds, and one seed leaves the half-width undefined
    config = tmp_path / "exp.ini"
    config.write_text(TINY.replace("n_tasks = 1", "n_tasks = 2"))
    w = tmp_path / "w.ckpt"
    save_checkpoint(random_params(4, RngStream(3).child("w")), w)
    for n_seeds in (3, 1):
        out = tmp_path / f"interp{n_seeds}"
        rc = main(["interpolate", "--config", str(config), "--w1", str(w), "--w2", str(w),
                   "--alphas", "0,1", "--n-seeds", str(n_seeds), "--out", str(out)])
        assert rc == EXIT_OK
        doc = json.loads((out / "interpolation.json").read_text())
        assert [row["n"] for row in doc] == [n_seeds, n_seeds]
        assert all((row["half_width"] is None) == (n_seeds == 1) for row in doc)


@pytest.mark.parametrize("n_seeds", ["0", "-1"])
def test_nonpositive_seed_count_is_refused(tiny_config, tmp_path, capsys, n_seeds):
    w = tmp_path / "w.ckpt"
    save_checkpoint(random_params(4, RngStream(3).child("w")), w)
    for cmd in (["compare"], ["interpolate", "--w1", str(w), "--w2", str(w)]):
        out = tmp_path / f"{cmd[0]}{n_seeds}"
        rc = main([*cmd, "--config", tiny_config, "--n-seeds", n_seeds, "--out", str(out)])
        assert rc == EXIT_CONFIG, cmd
        assert "n_seeds must be >= " in capsys.readouterr().err
        assert os.listdir(out) == ["config.resolved.ini"]


@pytest.fixture
def no_training(monkeypatch):
    """Make every comparison fail the moment it would start training."""

    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(harness, "train_lockstep", refuse)


def test_empty_float_lists_are_refused_before_training(tmp_path, capsys, no_training):
    w = tmp_path / "w.ckpt"
    save_checkpoint(random_params(4, RngStream(3).child("w")), w)
    interpolate = ["interpolate", "--w1", str(w), "--w2", str(w)]
    cases = [
        (TINY, ["compare", "--sigmas", ","]),
        (TINY.replace("sigmas = 10", "sigmas ="), ["compare"]),
        (TINY, ["sweep", "--adapt-sigmas", ","]),
        (TINY + "adapt_sigmas =\n", ["sweep"]),
        (TINY, [*interpolate, "--alphas", ","]),
        (TINY + "interp_alphas =\n", interpolate),
    ]
    for k, (text, cmd) in enumerate(cases):
        config = tmp_path / f"exp{k}.ini"
        config.write_text(text)
        out = tmp_path / f"o{k}"
        rc = main([*cmd, "--config", str(config), "--out", str(out)])
        assert rc == EXIT_CONFIG, k
        assert "is empty" in capsys.readouterr().err
        assert os.listdir(out) == ["config.resolved.ini"]


def test_worker_count_from_flag_or_config(tmp_path, capsys, monkeypatch, no_training):
    cases = [
        (TINY, ["compare", "--jobs", "-1"]),
        (TINY, ["sweep", "--jobs", "-3"]),
        (TINY.replace("jobs = 1", "jobs = -1"), ["compare"]),
        (TINY.replace("jobs = 1", "jobs = -2"), ["sweep"]),
    ]
    for k, (text, cmd) in enumerate(cases):
        config = tmp_path / f"exp{k}.ini"
        config.write_text(text)
        out = tmp_path / f"o{k}"
        rc = main([*cmd, "--config", str(config), "--out", str(out)])
        assert rc == EXIT_CONFIG, k
        assert "jobs must be >= 0" in capsys.readouterr().err
        assert os.listdir(out) == ["config.resolved.ini"]
    # 0 means one chunk per core from the flag too: it does not fall back to
    # the config's 1 (one core here, so the chunk runs in this process)
    cores = []
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cores.append(1) or 1)
    config = tmp_path / "exp.ini"
    for text, cmd in ((TINY, ["compare", "--jobs", "0"]),
                      (TINY.replace("jobs = 1", "jobs = 0"), ["compare"])):
        config.write_text(text)
        with pytest.raises(AssertionError, match="training started"):
            main([*cmd, "--config", str(config), "--out", str(tmp_path / "o")])
    assert len(cores) == 2


@pytest.mark.parametrize(
    "old, new, message",
    [
        pytest.param("[meta]\n", "[meta]\nsgd_mu = 0\n", "sgd_mu must be finite and > 0",
                     id="sgd_mu=0"),
        pytest.param("[meta]\n", "[meta]\nsgd_mu = -1\n", "sgd_mu must be finite and > 0",
                     id="sgd_mu=-1"),
        pytest.param("[meta]\n", "[meta]\nsgd_beta = 0\n", "sgd_beta must be finite and > 0",
                     id="sgd_beta=0"),
        pytest.param("outer_lr = 1e-3", "outer_lr = -1e-3", "outer_lr must be finite and > 0",
                     id="outer_lr=-1e-3"),
        pytest.param("outer_lr = 1e-3", "outer_lr = nan", "outer_lr must be finite and > 0",
                     id="outer_lr=nan"),
        pytest.param("[meta]\n", "[meta]\nfd_epsilon = 0\n", "fd_epsilon must be finite and > 0",
                     id="fd_epsilon=0"),
        pytest.param("alpha = 1e-4", "alpha = nan", "alpha must be finite and >= 0",
                     id="meta-alpha=nan"),
        pytest.param("[meta]\n", "[meta]\ncurriculum_threshold = nan\n",
                     "curriculum_threshold must be finite", id="curriculum_threshold=nan"),
        pytest.param("alpha = 1e-6", "alpha = -1", "adaptation step must be finite and >= 0",
                     id="adapt-alpha=-1"),
        pytest.param("alpha = 1e-6", "alpha = nan", "adaptation step must be finite and >= 0",
                     id="adapt-alpha=nan"),
        pytest.param("sigma = 10\ndim = 4\nsteps", "sigma = inf\ndim = 4\nsteps",
                     "finite sigma > 0", id="adapt-sigma=inf"),
        pytest.param("dist = mixture\ndim = 4", "dist = mixture\ndim = 4\nlam = -1",
                     "[train] lam must be finite and >= 0", id="train-lam=-1"),
        pytest.param("dim = 4\nsteps", "dim = 4\nlam = nan\nsteps",
                     "[adapt] lam must be finite and >= 0", id="adapt-lam=nan"),
        pytest.param("dim = 4\nhorizon", "dim = 4\nlam = inf\nhorizon",
                     "[test] lam must be finite and >= 0", id="test-lam=inf"),
    ],
)
def test_unusable_values_are_refused_before_training(tmp_path, capsys, no_training, old, new, message):
    assert TINY.count(old) == 1
    config = tmp_path / "exp.ini"
    config.write_text(TINY.replace(old, new))
    out = tmp_path / "o"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert (os.listdir(out) if out.exists() else []) in ([], ["config.resolved.ini"])


def test_repeated_column_keys_are_refused_before_training(tmp_path, capsys, no_training):
    # values equal in 6 significant digits would merge into one column
    w = tmp_path / "w.ckpt"
    save_checkpoint(random_params(4, RngStream(3).child("w")), w)
    cases = [
        (["compare", "--sigmas", "10,10.0000001"], "'10'"),
        (["sweep", "--adapt-sigmas", "5,5.0000001"], "'5'"),
        (["interpolate", "--w1", str(w), "--w2", str(w), "--alphas", "0.1,0.1000001"], "'0.1'"),
    ]
    config = tmp_path / "exp.ini"
    config.write_text(TINY)
    for k, (cmd, key) in enumerate(cases):
        out = tmp_path / f"o{k}"
        assert main([*cmd, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG, cmd
        assert f"two columns share the key {key}" in capsys.readouterr().err
        assert os.listdir(out) == ["config.resolved.ini"]


def test_unusable_out_or_cache_dir_is_config_error(tiny_config, tmp_path, capsys, no_training):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for args in (
        ["--out", str(blocker)],
        ["--out", str(blocker / "x")],
        ["--out", str(tmp_path / "o"), "--cache-dir", str(blocker)],
    ):
        assert main(["compare", "--config", tiny_config, *args]) == EXIT_CONFIG, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(blocker) in err, args
    assert blocker.read_text() == ""


def test_interpolate_shape_mismatch_is_config_error(tiny_config, tmp_path, capsys):
    p1 = tmp_path / "w1.ckpt"
    p2 = tmp_path / "w2.ckpt"
    save_checkpoint(random_params(4, RngStream(1)), p1)
    save_checkpoint(random_params(5, RngStream(1)), p2)
    rc = main(["interpolate", "--config", tiny_config, "--w1", str(p1),
               "--w2", str(p2), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "hidden=4" in capsys.readouterr().err


def test_absurd_checkpoint_header_is_config_error(tiny_config, tmp_path, capsys):
    # 36 bytes whose header claims 2**30 hidden units and a payload count to
    # match: the lengths must be refused against the file size, not read
    hidden = 2**30
    count = ParamLayout(hidden).size
    header = b"ML2O" + struct.pack("<IIId", 1, hidden, 2, 0.01)
    huge_payload = tmp_path / "payload.ckpt"
    huge_payload.write_bytes(header + struct.pack("<I", 0) + struct.pack("<Q", count))
    assert huge_payload.stat().st_size == 36
    huge_meta = tmp_path / "meta.ckpt"
    huge_meta.write_bytes(header + struct.pack("<I", 2**32 - 1) + b"x" * 8)
    good = tmp_path / "good.ckpt"
    save_checkpoint(random_params(4, RngStream(1)), good)
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


def test_entry_freezes_the_collector_after_main_returns(monkeypatch):
    # every stand-in is patched, so the test process itself is never frozen
    events = []
    frozen_before = gc.get_freeze_count()
    monkeypatch.setattr(cli, "main", lambda: events.append("main") or EXIT_DIVERGED)
    monkeypatch.setattr(cli.gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli.sys, "exit", lambda rc: events.append(("exit", rc)))
    cli.entry()
    assert events == ["main", "freeze", ("exit", EXIT_DIVERGED)]
    assert gc.get_freeze_count() == frozen_before


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_module_run_writes_what_main_writes(tiny_config, tmp_path, jobs):
    args = ["compare", "--config", tiny_config, "--jobs", jobs]
    child = run_module(*args, "--out", str(tmp_path / "child"))
    assert child.returncode == EXIT_OK, child.stderr
    assert main([*args, "--out", str(tmp_path / "here")]) == EXIT_OK
    for name in ("comparison.json", "comparison.csv"):
        assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_module_run_missing_config_exits_2(tmp_path):
    child = run_module("compare", "--config", str(tmp_path / "nope.ini"),
                       "--out", str(tmp_path / "o"))
    assert child.returncode == EXIT_CONFIG
    assert child.stderr.startswith("config error: ")
    assert "nope.ini" in child.stderr
