import argparse
import errno
import gc
import json
import math
import os
import re
import struct
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pins
from conftest import child_env, write_checkpoint
from ml2o.cell import (
    CheckpointError,
    ParamLayout,
    load_checkpoint,
    load_checkpoint_metadata,
    random_params,
    save_checkpoint,
)
from ml2o import cli, evaluation, harness, store
from ml2o.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_VERIFY, main
from ml2o.config import _SCHEMA, ConfigError, load_config
from ml2o.numeric import NumericEnvironment, RngStream, numeric_environment
from ml2o.store import TrainingCache
from ml2o.tasks import (
    NORMAL, QUADRATIC, ROSENBROCK_INIT, TaskDistribution, sample_task, sample_theta0,
)
from ml2o.train import train_lockstep
from ml2o.unroll import DETACHED_INPUT, FD_HVP_META, FIRST_ORDER_META, FULL_SECOND_ORDER, GRAD_MODES

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
# the distribution keys of TINY's adaptation and test sections
TINY_ADAPT = "[adapt]\nfamily = lasso\ndist = normal\nsigma = 10\ndim = 4\n"
TINY_TEST = "[test]\nfamily = lasso\ndist = normal\nsigma = 10\ndim = 4\n"


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


@pytest.mark.parametrize(
    "line",
    # former [meta] keys, each refused even at the one value it could take
    ["feature_dim = 3", "tasks_per_update = 1", "curriculum = fixed", "curriculum_threshold = 0.05"],
    ids=lambda line: line.split()[0],
)
def test_config_rejects_former_meta_keys(tmp_path, capsys, line):
    path = tmp_path / "former.ini"
    path.write_text(TINY.replace("hidden = 4", f"hidden = 4\n{line}"))
    message = f"unknown key '{line.split()[0]}' in section [meta]"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path))
    out = tmp_path / "o"
    rc = main(["compare", "--config", str(path), "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not out.exists()


def test_readme_lists_every_config_key():
    # the README's configuration table names exactly the schema's keys, section by section
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = {}
    for section, cell in re.findall(r"^\| `\[(\w+)\]` ?\|(.*)\|\s*$", readme, re.M):
        cell = re.sub(r"\([^)]*\)", "", cell)  # defaults and choices
        keys = set(re.findall(r"`(\w+)`", cell))
        if "same distribution keys" in cell:
            keys |= listed["train"]
        listed[section] = keys
    assert listed == {section: set(keys) for section, keys in _SCHEMA.items()}


@pytest.mark.pinned
def test_cache_keys_are_pinned(tiny_config):
    # `feature_dim` left the config but stays in the key, so existing cache
    # directories keep serving the same files
    cfg = load_config(tiny_config)
    keys = {t: TrainingCache._key(t, cfg.meta, cfg.dist_train) for t in ("plain", "ml2o")}
    assert keys == pins.CACHE_KEYS


@pytest.mark.pinned
def test_weights_entry_names_are_pinned(tiny_config, tmp_path):
    # every trained and adapted key of a run, so that a cache directory keeps
    # serving its weights across a change to the code that stores them
    cache = tmp_path / "cache"
    assert main(["compare", "--config", tiny_config, "--n-seeds", "2", "--jobs", "1",
                 "--out", str(tmp_path / "o"), "--cache-dir", str(cache)]) == EXIT_OK
    assert tuple(sorted(p.name for p in cache.glob("*.ckpt"))) == pins.WEIGHTS_ENTRY_NAMES


@pytest.mark.pinned
def test_cache_key_of_detached_ml2o_is_new(tiny_config):
    # ml2o trains other weights under detached_input than it once did, so its
    # key moves; plain's, and every other mode's, stay where they were
    cfg = load_config(tiny_config)
    detached = replace(cfg.meta, grad_mode="detached_input")
    keys = {t: TrainingCache._key(t, detached, cfg.dist_train) for t in ("plain", "ml2o")}
    assert keys == pins.DETACHED_CACHE_KEYS


@pytest.mark.pinned
def test_cache_keys_of_equivalent_modes_are_shared(tiny_config):
    # plain reads only the trajectory mode, and ml2o runs full_second_order as
    # fd_hvp_meta: modes that train the same weights share the default's key
    cfg = load_config(tiny_config)
    trained = {}
    for mode in GRAD_MODES:
        meta = replace(cfg.meta, grad_mode=mode)
        for trainer in ("plain", "ml2o"):
            key = TrainingCache._key(trainer, meta, cfg.dist_train)
            (params, _), = train_lockstep([(meta, trainer == "ml2o")], cfg.dist_train)
            trained.setdefault(key, set()).add((trainer, mode, params.digest()))
    shared = {key: {(t, m) for t, m, _ in runs} for key, runs in trained.items()}
    assert shared == {
        pins.CACHE_KEYS["plain"]: {
            ("plain", FULL_SECOND_ORDER), ("plain", FD_HVP_META), ("plain", FIRST_ORDER_META),
        },
        pins.CACHE_KEYS["ml2o"]: {("ml2o", FULL_SECOND_ORDER), ("ml2o", FD_HVP_META)},
        TrainingCache._key(
            "ml2o", replace(cfg.meta, grad_mode=FIRST_ORDER_META), cfg.dist_train
        ): {("ml2o", FIRST_ORDER_META)},
        pins.DETACHED_CACHE_KEYS["plain"]: {("plain", DETACHED_INPUT)},
        pins.DETACHED_CACHE_KEYS["ml2o"]: {("ml2o", DETACHED_INPUT)},
    }
    # and each key's runs trained the same weights
    assert all(len({d for _, _, d in runs}) == 1 for runs in trained.values())


@pytest.mark.pinned
def test_cache_key_grid_is_pinned(tiny_config):
    # 4 modes x 2 trainers x fd_epsilon x alpha x outer rule x 3 distributions:
    # 192 keys (72 distinct), hashed together, so that no refactor of the key
    # moves one of them unseen
    cfg = load_config(tiny_config)
    dists = (
        cfg.dist_train,
        TaskDistribution(NORMAL, QUADRATIC, dim=4, sigma=10.0),
        TaskDistribution(ROSENBROCK_INIT),
    )
    keys = [
        TrainingCache._key(
            trainer, replace(cfg.meta, grad_mode=mode, fd_epsilon=eps, alpha=alpha, outer_rule=rule),
            dist,
        )
        for mode in GRAD_MODES
        for trainer in ("plain", "ml2o")
        for eps in (None, 1e-3)
        for alpha in (1e-4, 1e-2)
        for rule in ("adam", "sgd_schedule")
        for dist in dists
    ]
    assert (len(keys), len(set(keys))) == (192, 72)
    assert pins.digest("\n".join(keys).encode()) == pins.CACHE_KEY_GRID_DIGEST


def test_cache_key_of_first_order_ml2o_ignores_fd_epsilon(tiny_config):
    # the first-order meta-gradient takes no finite difference, so the step
    # size cannot change the weights and must not split the cache
    cfg = load_config(tiny_config)
    trained = set()
    for eps in (None, 1e-3):
        meta = replace(cfg.meta, grad_mode=FIRST_ORDER_META, fd_epsilon=eps)
        (params, _), = train_lockstep([(meta, True)], cfg.dist_train)
        trained.add((TrainingCache._key("ml2o", meta, cfg.dist_train), params.digest()))
    assert len(trained) == 1


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


@pytest.mark.parametrize(
    "method, mode, warning",
    [
        ("plain", FD_HVP_META, "[meta] fd_epsilon is ignored by plain training"),
        ("ml2o", FIRST_ORDER_META,
         "[meta] fd_epsilon is ignored by ml2o training under grad_mode = first_order_meta"),
        ("ml2o", FD_HVP_META, None),  # the finite-difference pair reads it
    ],
)
def test_meta_train_warns_fd_epsilon_ignored(tmp_path, capsys, method, mode, warning):
    config = tmp_path / "exp.ini"
    config.write_text(TINY.replace("[meta]\n", f"[meta]\nfd_epsilon = 1e-3\ngrad_mode = {mode}\n"))
    rc = main(["meta-train", "--config", str(config), "--method", method,
               "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    err = capsys.readouterr().err
    if warning is None:
        assert "warning" not in err
    else:
        assert f"warning: {warning}\n" in err


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
    assert np.all(np.isfinite(last.flat))
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


def test_library_call_is_the_command(tiny_config, tmp_path):
    # a flag overrides the config field of its name, and the command is then
    # the library call on the overridden config
    out = tmp_path / "o"
    rc = main(["compare", "--config", tiny_config, "--sigmas", "10", "--n-seeds", "2",
               "--jobs", "1", "--out", str(out)])
    assert rc == EXIT_OK
    cfg = replace(load_config(tiny_config), sigmas=(10.0,), n_seeds=2, jobs=1)
    table = harness.compare_methods(cfg)
    written = harness.read_comparison_json(out / "comparison.json")
    assert written.to_json_dict() == table.to_json_dict()
    table.write_records_csv(tmp_path / "library.csv")
    assert (tmp_path / "library.csv").read_bytes() == (out / "comparison.csv").read_bytes()


def compare_on_cache(tiny_config, out, cache, jobs="1"):
    return main(["compare", "--config", tiny_config, "--jobs", jobs, "--out", str(out),
                 "--cache-dir", str(cache)])


def test_cache_hit_from_this_environment_is_silent(tiny_config, tmp_path, capfd):
    assert compare_on_cache(tiny_config, tmp_path / "cold", tmp_path / "cache") == EXIT_OK
    capfd.readouterr()
    assert compare_on_cache(tiny_config, tmp_path / "warm", tmp_path / "cache") == EXIT_OK
    assert capfd.readouterr().err == ""
    for name in ("comparison.json", "comparison.csv"):
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_cache_hit_from_another_environment_warns_and_serves(tiny_config, tmp_path, capfd, jobs):
    home = tmp_path / "home"
    assert compare_on_cache(tiny_config, tmp_path / "here", home) == EXIT_OK
    names = sorted(p.name for p in home.glob("*.ckpt"))
    # 2 seeds x 2 trainers, and 2 seeds x 3 adapted methods
    assert [name.split("-")[0] for name in names] == ["adapted"] * 6 + ["ml2o"] * 2 + ["plain"] * 2
    assert all(p.name.startswith("curves-") for p in home.iterdir() if p.suffix != ".ckpt")
    for env, said in (("simd=none blas=Haswell", "simd=none blas=Haswell"),
                      ("", "an unrecorded numeric environment")):
        # the same weights under the same keys, recorded as made elsewhere
        cache = tmp_path / f"cache-{said}"
        cache.mkdir()
        for name in names:
            kind, key = name.removesuffix(".ckpt").split("-")
            label = "adapted" if kind == "adapted" else f"trainer={kind}"
            save_checkpoint(load_checkpoint(home / name), cache / name,
                            metadata=f"{label} key={key} {env}".strip())
        capfd.readouterr()
        out = tmp_path / f"out-{said}"
        assert compare_on_cache(tiny_config, out, cache, jobs) == EXIT_OK
        warnings = sorted(capfd.readouterr().err.splitlines())  # workers print in any order
        assert warnings == [
            f"warning: cached {cache / name} was "
            f"{'adapted' if name.startswith('adapted-') else 'trained'} under {said}, "
            f"this process runs {numeric_environment()}"
            for name in names
        ]
        for name in ("comparison.json", "comparison.csv"):
            assert (out / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_cache_warning_is_one_write(tmp_path, monkeypatch):
    # workers share stderr: a line written in two pieces can interleave with another's
    path = tmp_path / "plain-k.ckpt"
    save_checkpoint(random_params(4, RngStream(3).child("w")), path, metadata="trainer=plain")

    class Writes(list):
        def write(self, text):
            self.append(text)

    writes = Writes()
    monkeypatch.setattr(sys, "stderr", writes)
    assert TrainingCache(str(tmp_path))._cached("plain", "k", 4)
    assert writes == [
        f"warning: cached {path} was trained under an unrecorded numeric environment, "
        f"this process runs {numeric_environment()}\n"
    ]


def test_cached_weights_of_another_hidden_are_refused(tiny_config, tmp_path, capfd):
    # valid weights of hidden 5 under TINY's (hidden 4) keys: the refusal names
    # the file, and comes before the chunk trains or adapts anything
    cfg = load_config(tiny_config)
    cache = tmp_path / "cache"
    cache.mkdir()
    key = TrainingCache._key("plain", harness.seed_config(cfg.meta, 0), cfg.dist_train)
    planted = cache / f"plain-{key}.ckpt"
    save_checkpoint(random_params(5, RngStream(3)), planted, metadata=f"trainer=plain key={key}")
    capfd.readouterr()
    assert compare_on_cache(tiny_config, tmp_path / "o", cache) == EXIT_CONFIG
    assert capfd.readouterr().err == (
        f"checkpoint error: {planted}: cached weights have hidden=5, this run needs hidden=4\n"
    )
    assert os.listdir(cache) == [planted.name]
    # an adapted entry is checked the same way
    full = tmp_path / "full"
    assert compare_on_cache(tiny_config, tmp_path / "cold", full) == EXIT_OK
    adapted = sorted(full.glob("adapted-*.ckpt"))[0]
    save_checkpoint(random_params(5, RngStream(3)), adapted, metadata="adapted")
    capfd.readouterr()
    assert compare_on_cache(tiny_config, tmp_path / "warm", full) == EXIT_CONFIG
    assert capfd.readouterr().err == (
        f"checkpoint error: {adapted}: cached weights have hidden=5, this run needs hidden=4\n"
    )


def count_adaptation_calls(monkeypatch) -> list[int]:
    """Record the stack size of every `meta_grad_stack` call of this process."""
    from ml2o import train, unroll

    sizes = []
    real = unroll.meta_grad_stack

    def patched(params, *args, **kwargs):
        sizes.append(params.size)
        return real(params, *args, **kwargs)

    for mod in (train, unroll):
        monkeypatch.setattr(mod, "meta_grad_stack", patched)
    return sizes


def out_files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


COMMANDS = {
    "compare": ["compare", "--sigmas", "10,30"],
    "sweep": ["sweep", "--adapt-sigmas", "5,10", "--test-sigma", "10"],
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_adapted_weights_are_served_byte_identically(
    tiny_config, tmp_path, capfd, monkeypatch, command, jobs
):
    # a cold run, a warm one served every adaptation from the cache, and a
    # partial one missing one adapted file write the same bytes and say the same
    cache = tmp_path / "cache"
    calls = count_adaptation_calls(monkeypatch)
    runs = {}
    for run in ("cold", "warm", "partial"):
        if run == "partial":
            lost = sorted(cache.glob("adapted-*.ckpt"))[0]
            kept = lost.read_bytes()
            lost.unlink()
        calls.clear()
        capfd.readouterr()
        rc = main([*COMMANDS[command], "--config", tiny_config, "--jobs", jobs,
                   "--out", str(tmp_path / run), "--cache-dir", str(cache)])
        runs[run] = (rc, capfd.readouterr().err, out_files(tmp_path / run), list(calls))
    assert runs["cold"][0] == EXIT_OK
    assert runs["warm"][:3] == runs["partial"][:3] == runs["cold"][:3]
    assert lost.read_bytes() == kept  # the lost file is written again, bit for bit
    adapted = len(list(cache.glob("adapted-*.ckpt")))
    assert adapted == 2 * 2 * (3 if command == "compare" else 2)  # seeds x columns x methods
    if jobs == "1":  # the workers of --jobs 2 count in their own processes
        assert runs["warm"][3] == []
        assert runs["partial"][3] == [1, 1]  # one start, [adapt] steps = 2


def test_adapted_keys_ignore_what_only_evaluation_reads(tiny_config, tmp_path, monkeypatch):
    # horizon, test tasks, test sigma and a subset of the columns leave every
    # adaptation where it was, and so does a sweep at another test sigma
    cache = tmp_path / "cache"
    assert main(["compare", "--config", tiny_config, "--sigmas", "5,10", "--out",
                 str(tmp_path / "cold"), "--cache-dir", str(cache)]) == EXIT_OK
    filled = sorted(p.name for p in cache.glob("*.ckpt"))
    longer = tmp_path / "longer.ini"
    longer.write_text(
        TINY.replace("horizon = 12", "horizon = 7").replace("n_tasks = 1", "n_tasks = 2")
    )
    calls = count_adaptation_calls(monkeypatch)
    for k, (config, flags) in enumerate((
        (tiny_config, ["compare", "--sigmas", "10"]),
        (str(longer), ["compare", "--sigmas", "5,10"]),
        (tiny_config, ["sweep", "--adapt-sigmas", "5,10", "--test-sigma", "10"]),
        (tiny_config, ["sweep", "--adapt-sigmas", "10", "--test-sigma", "30"]),
    )):
        assert main([*flags, "--config", config, "--out", str(tmp_path / f"o{k}"),
                     "--cache-dir", str(cache)]) == EXIT_OK, flags
        assert calls == [], flags
    assert sorted(p.name for p in cache.glob("*.ckpt")) == filled
    assert all(p.name.startswith("curves-") for p in cache.iterdir() if p.suffix != ".ckpt")


@pytest.mark.parametrize("alpha, written", [("1e150", 4), ("1e200", 0)])
def test_diverged_adaptations_are_not_cached(tmp_path, capfd, alpha, written):
    # 1e150 diverges vanilla's two starts and 1e200 all six: none is written,
    # so a warm run adapts them again and warns with the same reasons
    path = tmp_path / "explode.ini"
    path.write_text(TINY.replace("alpha = 1e-6", f"alpha = {alpha}"))
    cache = tmp_path / "cache"
    runs = []
    for run in ("cold", "warm"):
        capfd.readouterr()
        rc = main(["compare", "--config", str(path), "--out", str(tmp_path / run),
                   "--cache-dir", str(cache)])
        runs.append((rc, capfd.readouterr().err, out_files(tmp_path / run)))
    assert runs[0] == runs[1]
    assert runs[0][0] == EXIT_OK and "diverged run(s); first: seed 0: adaptation step" in runs[0][1]
    assert len(list(cache.glob("adapted-*.ckpt"))) == written


def test_failed_cache_write_leaves_no_temporary_file(tiny_config, tmp_path, monkeypatch, capsys):
    # a full disk part-way through the first write; permission bits would not stop root
    def write_part_then_fill_disk(params, path, metadata=""):
        with open(path, "wb") as fh:
            fh.write(b"ML2O")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(store, "save_checkpoint", write_part_then_fill_disk)
    cache = tmp_path / "cache"
    rc = main(["compare", "--config", tiny_config, "--out", str(tmp_path / "o"),
               "--cache-dir", str(cache)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.fullmatch(
        rf"checkpoint error: {re.escape(str(cache))}/plain-[0-9a-f]{{32}}\.ckpt: "
        rf"cannot write cached weights: \[Errno {errno.ENOSPC}\] .*\n", err
    )
    assert os.listdir(cache) == []


def test_failed_curves_write_leaves_no_temporary_file(tiny_config, tmp_path, monkeypatch, capsys):
    # the weights are written; the first curves entry meets a full disk part-way
    def write_part_then_fill_disk(curves, path):
        with open(path, "wb") as fh:
            fh.write(store.CURVES_MAGIC)
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(store, "save_curves", write_part_then_fill_disk)
    cache = tmp_path / "cache"
    rc = main(["compare", "--config", tiny_config, "--out", str(tmp_path / "o"),
               "--cache-dir", str(cache)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert re.fullmatch(
        rf"checkpoint error: {re.escape(str(cache))}/curves-[0-9a-f]{{32}}\.crv: "
        rf"cannot write cached curves: \[Errno {errno.ENOSPC}\] .*\n", err
    )
    assert len(os.listdir(cache)) == 10 and all(n.endswith(".ckpt") for n in os.listdir(cache))


def count_evaluation_calls(monkeypatch, log: Path):
    """Log the stack size of every evaluation `unroll_stack` call, in this process and in
    the workers it forks; returns a function that reads and clears the log."""
    real = evaluation.unroll_stack

    def patched(params, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{params.size}\n")
        return real(params, *args, **kwargs)

    def calls() -> list[int]:
        sizes = [int(n) for n in log.read_text().split()] if log.exists() else []
        log.unlink(missing_ok=True)
        return sizes

    monkeypatch.setattr(evaluation, "unroll_stack", patched)
    return calls


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_evaluated_curves_are_served_byte_identically(
    tiny_config, tmp_path, capfd, monkeypatch, command, jobs
):
    # a warm run unrolls nothing and writes and says what the cold run did
    cache = tmp_path / "cache"
    calls = count_evaluation_calls(monkeypatch, tmp_path / "calls.log")
    runs = {}
    for run in ("cold", "warm"):
        capfd.readouterr()
        rc = main([*COMMANDS[command], "--config", tiny_config, "--jobs", jobs,
                   "--out", str(tmp_path / run), "--cache-dir", str(cache)])
        runs[run] = (rc, capfd.readouterr().err, out_files(tmp_path / run), calls())
    assert runs["cold"][0] == EXIT_OK and runs["cold"][3]  # workers' calls count too
    assert runs["warm"][:3] == runs["cold"][:3]
    assert runs["warm"][3] == []
    assert len(list(cache.glob("curves-*.crv"))) == 2 * 2 * (4 if command == "compare" else 2)


def test_sweep_at_the_test_sigma_reuses_the_curves_of_compare(tiny_config, tmp_path, monkeypatch):
    # tl and ml2o adapted at sigma 10 and tested at sigma 10: the curves of
    # compare's sigma-10 column, so the sweep unrolls nothing
    cache = tmp_path / "cache"
    sweep = ["sweep", "--adapt-sigmas", "10", "--test-sigma", "10", "--config", tiny_config]
    assert main([*sweep, "--out", str(tmp_path / "alone")]) == EXIT_OK
    assert main(["compare", "--sigmas", "10", "--config", tiny_config, "--out",
                 str(tmp_path / "cmp"), "--cache-dir", str(cache)]) == EXIT_OK
    calls = count_evaluation_calls(monkeypatch, tmp_path / "calls.log")
    assert main([*sweep, "--out", str(tmp_path / "after"), "--cache-dir", str(cache)]) == EXIT_OK
    assert calls() == []
    assert out_files(tmp_path / "after") == out_files(tmp_path / "alone")


@pytest.mark.parametrize("damage", ["truncated", "bit-flipped"])
def test_corrupt_curves_entry_is_a_checkpoint_error(tiny_config, tmp_path, capfd, damage):
    cache = tmp_path / "cache"
    assert compare_on_cache(tiny_config, tmp_path / "cold", cache) == EXIT_OK
    entry = sorted(cache.glob("curves-*.crv"))[0]
    blob = bytearray(entry.read_bytes())
    if damage == "truncated":
        blob = blob[: len(blob) // 2]
    else:
        blob[len(blob) // 2] ^= 0x10
    entry.write_bytes(bytes(blob))
    capfd.readouterr()
    assert compare_on_cache(tiny_config, tmp_path / "warm", cache) == EXIT_CONFIG
    err = capfd.readouterr().err
    assert err.startswith(f"checkpoint error: {entry}: corrupt cached curves: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("damage, said", [
    ("text overruns", "lengths do not match the size"),
    ("text underruns", "lengths do not match the size"),
    ("text not ASCII", "curve text is not ASCII"),
])
def test_inconsistent_curves_text_is_a_checkpoint_error(tiny_config, tmp_path, capfd, damage, said):
    # a text section that disagrees with its lengths, under a valid checksum
    cache = tmp_path / "cache"
    assert compare_on_cache(tiny_config, tmp_path / "cold", cache) == EXIT_OK
    entry = sorted(cache.glob("curves-*.crv"))[0]
    body = bytearray(entry.read_bytes()[:-4])
    (n,) = struct.unpack_from("<q", body, len(store.CURVES_MAGIC))
    last_text_length = len(store.CURVES_MAGIC) + 8 * 3 * n  # the head's last i64
    (length,) = struct.unpack_from("<q", body, last_text_length)
    if damage == "text not ASCII":
        body[-1] = 0x80
    else:
        struct.pack_into("<q", body, last_text_length, length + (1 if damage == "text overruns" else -1))
    entry.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    capfd.readouterr()
    assert compare_on_cache(tiny_config, tmp_path / "warm", cache) == EXIT_CONFIG
    assert capfd.readouterr().err == f"checkpoint error: {entry}: corrupt cached curves: {said}\n"


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_warm_command_renders_no_curve_text(tiny_config, tmp_path, monkeypatch, command):
    # every curve file of a warm run is the text its cold run cached
    def run(name):
        assert main([*COMMANDS[command], "--config", tiny_config, "--jobs", "1",
                     "--out", str(tmp_path / name), "--cache-dir", str(tmp_path / "cache")]) == EXIT_OK
        return out_files(tmp_path / name)

    def refuse(losses):
        raise AssertionError("a served curve was rendered again")

    cold = run("cold")
    monkeypatch.setattr(evaluation, "render_curve", refuse)
    assert run("warm") == cold
    assert len([name for name in cold if name.startswith("curves")]) == 2 * 2 * (
        4 if command == "compare" else 2
    )


@pytest.mark.parametrize("made_under", ["another code", "another environment"])
def test_curves_of_another_code_or_environment_are_not_served(
    tiny_config, tmp_path, monkeypatch, request, made_under
):
    # entries made elsewhere stay unread: the curves are unrolled and written
    # again, to the same bytes
    request.addfinalizer(store._evaluation_identity.cache_clear)
    cache = tmp_path / "cache"
    calls = count_evaluation_calls(monkeypatch, tmp_path / "calls.log")
    with monkeypatch.context() as elsewhere:
        if made_under == "another code":
            elsewhere.setattr(store, "_evaluation_identity", lambda: "0" * 32)
        else:
            elsewhere.setattr(store, "numeric_environment",
                              lambda: NumericEnvironment("none", "Haswell"))
            store._evaluation_identity.cache_clear()
        assert compare_on_cache(tiny_config, tmp_path / "there", cache) == EXIT_OK
    store._evaluation_identity.cache_clear()
    made = sorted(cache.glob("curves-*.crv"))
    assert len(made) == 8 and calls()
    assert compare_on_cache(tiny_config, tmp_path / "here", cache) == EXIT_OK
    assert sum(calls()) == 8  # every variant's curve, unrolled again
    assert len(list(cache.glob("curves-*.crv"))) == 16
    assert out_files(tmp_path / "here") == out_files(tmp_path / "there")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_growing_a_run_keeps_its_seeds(tiny_config, tmp_path, jobs):
    # seeds 0 and 1 of a 3-seed run are those of a 2-seed run, records and
    # curves alike, whatever chunk they train in
    outs = {}
    for n_seeds in ("2", "3"):
        out = tmp_path / f"n{n_seeds}"
        assert main(["compare", "--config", tiny_config, "--n-seeds", n_seeds, "--jobs", jobs,
                     "--out", str(out)]) == EXIT_OK
        outs[n_seeds] = out
    rows = {
        n: [r for r in (out / "comparison.csv").read_text().splitlines()[1:]
            if int(r.split(",")[2]) < 2]
        for n, out in outs.items()
    }
    assert len(rows["2"]) == 8 and rows["3"] == rows["2"]
    curves = {n: out_files(out / "curves") for n, out in outs.items()}
    assert len(curves["2"]) == 8 and len(curves["3"]) == 12
    assert {name: curves["3"][name] for name in curves["2"]} == curves["2"]


def test_growing_a_run_on_its_cache_computes_only_the_new_seed(tiny_config, tmp_path, monkeypatch):
    # a 3-seed run on the cache of a 2-seed run trains, adapts and evaluates
    # seed 2 alone, and writes what a fresh 3-seed run writes
    def compare(n_seeds, out, *cache):
        assert main(["compare", "--config", tiny_config, "--n-seeds", n_seeds, "--jobs", "1",
                     "--out", str(tmp_path / out), *cache]) == EXIT_OK
        return out_files(tmp_path / out)

    def log_slices(mod, name, log, slices):
        real = getattr(mod, name)

        def patched(*args):
            log.extend(slices(*args))
            return real(*args)

        monkeypatch.setattr(mod, name, patched)

    cache = ["--cache-dir", str(tmp_path / "cache")]
    compare("2", "n2", *cache)
    trained, adapted, evaluated = [], [], []
    log_slices(store, "train_lockstep", trained, lambda runs, dist: [c.seed for c, _ in runs])
    log_slices(store, "adapt_groups", adapted,
               lambda groups, *settings: [g.rng.key for g in groups for _ in g.starts])
    log_slices(evaluation, "unroll_stack", evaluated,
               lambda params, tasks, theta0, horizon: list(theta0))
    grown = compare("3", "n3", *cache)
    monkeypatch.undo()
    cfg = load_config(tiny_config)
    seed = harness.seed_config(cfg.meta, 2).seed
    assert trained == [seed, seed]  # plain and ml2o
    assert adapted == [RngStream(seed).child("adapt").key] * 3  # vanilla, ml2o and tl
    test = RngStream(seed).child("test")
    sample_task(cfg.dist_test, test)
    theta0 = sample_theta0(cfg.dist_test, test)
    assert len(evaluated) == 4 and all(np.array_equal(row, theta0) for row in evaluated)
    assert grown == compare("3", "fresh")


# every subcommand's options: (option, dest, required, type, default, choices); the
# help text may change, and so may the order the help lists them in
CLI_OPTIONS = {
    "meta-train": {
        ("--config", "config", True, None, None, None),
        ("--out", "out", True, None, None, None),
        ("--method", "method", False, None, "ml2o", ("ml2o", "plain")),
    },
    "compare": {
        ("--config", "config", True, None, None, None),
        ("--out", "out", True, None, None, None),
        ("--sigmas", "sigmas", False, None, None, None),
        ("--n-seeds", "n_seeds", False, int, None, None),
        ("--jobs", "jobs", False, int, None, None),
        ("--cache-dir", "cache_dir", False, None, None, None),
    },
    "sweep": {
        ("--config", "config", True, None, None, None),
        ("--out", "out", True, None, None, None),
        ("--adapt-sigmas", "adapt_sigmas", False, None, None, None),
        ("--test-sigma", "test_sigma", False, float, None, None),
        ("--n-seeds", "n_seeds", False, int, None, None),
        ("--jobs", "jobs", False, int, None, None),
        ("--cache-dir", "cache_dir", False, None, None, None),
    },
    "verify": {
        ("--config", "config", True, None, None, None),
        ("--out", "out", True, None, None, None),
        ("--suite", "suite", True, None, None, ("grad", "jacobian", "gaps", "growth")),
    },
    "interpolate": {
        ("--config", "config", True, None, None, None),
        ("--out", "out", True, None, None, None),
        ("--w1", "w1", True, None, None, None),
        ("--w2", "w2", True, None, None, None),
        ("--alphas", "alphas", False, None, None, None),
        ("--n-seeds", "n_seeds", False, int, None, None),
    },
}


def test_cli_options_are_pinned():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: {
            (*a.option_strings, a.dest, a.required, a.type, a.default,
             None if a.choices is None else tuple(a.choices))
            for a in sub._actions if not isinstance(a, argparse._HelpAction)
        }
        for name, sub in commands.choices.items()
    }
    assert options == CLI_OPTIONS
    assert list(commands.choices) == list(CLI_OPTIONS)
    assert commands.required and parser.prog == "ml2o"


def test_echo_alone_reruns_a_command_given_flags(tiny_config, tmp_path):
    # the echo holds each flag's value, and no key that a config may not set
    # (TINY's mixture reads no [train] sigma)
    flagged, echoed = tmp_path / "flagged", tmp_path / "echoed"
    rc = main(["compare", "--config", tiny_config, "--sigmas", "7", "--n-seeds", "3",
               "--out", str(flagged)])
    assert rc == EXIT_OK
    echo = flagged / "config.resolved.ini"
    assert main(["compare", "--config", str(echo), "--out", str(echoed)]) == EXIT_OK
    for name in ("comparison.json", "comparison.csv", "config.resolved.ini"):
        assert (echoed / name).read_bytes() == (flagged / name).read_bytes()


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
    assert doc["task"]["provenance"] == "quadratic-normal(sigma=1)"


def test_verify_fails_closed_on_a_nan_error(tiny_config, tmp_path, capsys, monkeypatch):
    # a NaN error among finite ones is the worst case, not one to pass over
    shape, tol, error_of = cli._WORST_CASE_SUITES["grad"]
    cases = []

    def nan_in_case_3(params, task, theta0, horizon):
        cases.append(theta0)
        return math.nan if len(cases) == 4 else error_of(params, task, theta0, horizon)

    monkeypatch.setitem(cli._WORST_CASE_SUITES, "grad", (shape, tol, nan_in_case_3))
    out = tmp_path / "grad"
    rc = main(["verify", "--config", tiny_config, "--suite", "grad", "--out", str(out)])
    assert rc == EXIT_VERIFY
    assert "FAIL grad: max rel error nan" in capsys.readouterr().out
    assert len(cases) == 20
    doc = json.loads((out / "worst_case.json").read_text())
    assert doc["rel_error"] is None
    assert doc["theta0"] == cases[3].tolist()


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


@pytest.mark.pinned
def test_verify_report_values_are_pinned(tiny_config, tmp_path):
    # the growth reference is shape-only, so it is pinned to 1e-12 relative
    for suite in ("gaps", "growth"):
        rc = main(["verify", "--config", tiny_config, "--suite", suite, "--out", str(tmp_path)])
        assert rc == EXIT_OK
    assert pins.digest((tmp_path / "gaps.json").read_bytes()) == pins.GAPS_DIGEST
    doc = json.loads((tmp_path / "growth.json").read_text())
    rows = [line.split(",") for line in (tmp_path / "growth.csv").read_text().splitlines()]
    assert rows[0] == ["horizon", "mean_gap", "reference"]
    reference = doc.pop("reference")
    assert [float(r[2]) for r in rows[1:]] == reference
    kept = json.dumps(doc, sort_keys=True) + "".join(f"{r[0]},{r[1]}\n" for r in rows)
    assert pins.digest(kept.encode()) == pins.GROWTH_DIGEST
    assert reference == pytest.approx(pins.GROWTH_REFERENCE, rel=1e-12, abs=0)


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


@pytest.mark.pinned
def test_interpolate_output_bytes_are_pinned(tmp_path, capsys):
    config = tmp_path / "exp.ini"
    config.write_text(TINY.replace("n_tasks = 1", "n_tasks = 2"))
    for name in ("w1", "w2"):
        save_checkpoint(random_params(4, RngStream(3).child(name)), tmp_path / f"{name}.ckpt")
    out = tmp_path / "interp"
    rc = main(["interpolate", "--config", str(config), "--w1", str(tmp_path / "w1.ckpt"),
               "--w2", str(tmp_path / "w2.ckpt"), "--alphas", "0,0.3,1", "--n-seeds", "3",
               "--out", str(out)])
    assert rc == EXIT_OK
    curves = sorted((out / "curves").iterdir())
    assert len(curves) == 3 * 3 * 2
    assert pins.digest((out / "interpolation.json").read_bytes()) == pins.INTERPOLATION_JSON_DIGEST
    assert pins.digest(*(p.name.encode() + p.read_bytes() for p in curves)) == pins.INTERPOLATION_CURVES_DIGEST
    assert pins.digest(capsys.readouterr().out.encode()) == pins.INTERPOLATION_STDOUT_DIGEST


@pytest.mark.pinned
def test_compare_output_bytes_are_pinned(tiny_config, tmp_path):
    # cold, then warm from the same cache: the summary, the records and every
    # curve file, by name and bytes
    for run in ("cold", "warm"):
        out = tmp_path / run
        assert main(["compare", "--config", tiny_config, "--n-seeds", "2", "--jobs", "1",
                     "--out", str(out), "--cache-dir", str(tmp_path / "cache")]) == EXIT_OK
        curves = sorted((out / "curves").iterdir())
        assert len(curves) == 4 * 2
        parts = [(out / name).read_bytes() for name in ("comparison.csv", "comparison.json")]
        parts += [p.name.encode() + p.read_bytes() for p in curves]
        assert pins.digest(*parts) == pins.COMPARISON_OUTPUT_DIGEST, run


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


def test_negative_adaptation_steps_name_their_key(tiny_config, tmp_path, capsys):
    config = tmp_path / "steps.ini"
    config.write_text(TINY.replace("steps = 2", "steps = -1"))
    assert main(["compare", "--config", str(config), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: [adapt] steps must be >= 0, got -1\n"
    # library callers that build MetaConfig themselves are still refused
    with pytest.raises(ValueError, match="adapt_steps must be >= 0, got -1"):
        replace(load_config(tiny_config).meta, adapt_steps=-1)


@pytest.fixture
def no_training(monkeypatch):
    """Make every comparison fail the moment it would start training."""

    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(store, "train_lockstep", refuse)


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


def test_one_seed_from_the_file_or_the_flag(tiny_config, tmp_path, capsys, no_training):
    # one rule for both: a file may ask for one seed, which `interpolate` runs
    # and `compare` refuses after the echo, like `--n-seeds 1`
    config = tmp_path / "one.ini"
    config.write_text(TINY.replace("n_seeds = 2", "n_seeds = 1"))
    w = tmp_path / "w.ckpt"
    save_checkpoint(random_params(4, RngStream(3).child("w")), w)
    interpolate = ["interpolate", "--w1", str(w), "--w2", str(w), "--alphas", "0,1"]
    assert main([*interpolate, "--config", str(config), "--out", str(tmp_path / "f")]) == EXIT_OK
    assert main([*interpolate, "--config", tiny_config, "--n-seeds", "1",
                 "--out", str(tmp_path / "g")]) == EXIT_OK
    written = [(tmp_path / d / "interpolation.json").read_bytes() for d in ("f", "g")]
    assert written[0] == written[1]
    capsys.readouterr()
    out = tmp_path / "c"
    assert main(["compare", "--config", str(config), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: n_seeds must be >= 2, got 1\n"
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
    monkeypatch.setattr(harness, "_usable_cores", lambda: cores.append(1) or 1)
    config = tmp_path / "exp.ini"
    for text, cmd in ((TINY, ["compare", "--jobs", "0"]),
                      (TINY.replace("jobs = 1", "jobs = 0"), ["compare"])):
        config.write_text(text)
        with pytest.raises(AssertionError, match="training started"):
            main([*cmd, "--config", str(config), "--out", str(tmp_path / "o")])
    assert len(cores) == 2


def test_jobs_zero_counts_the_cores_this_process_may_use(monkeypatch):
    # pinned to one core of eight, one chunk runs: not eight processes on that core
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert harness._usable_cores() == 1
    # where the platform has no affinity set, every core counts
    monkeypatch.delattr(harness.os, "sched_getaffinity")
    assert harness._usable_cores() == 8


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
        # a rosenbrock distribution reads none of these keys, so they cannot be set
        pytest.param(TINY_TEST, "[test]\ndist = rosenbrock\nfamily = lasso\n",
                     "[test] family is not read by dist = rosenbrock", id="rosenbrock-family"),
        pytest.param(TINY_TEST, "[test]\ndist = rosenbrock\ndim = 7\n",
                     "[test] dim is not read by dist = rosenbrock", id="rosenbrock-dim"),
        pytest.param(TINY_TEST, "[test]\ndist = rosenbrock\nlam = 3\n",
                     "[test] lam is not read by dist = rosenbrock", id="rosenbrock-lam"),
        pytest.param(TINY_ADAPT, "[adapt]\ndist = rosenbrock\nfamily = rosenbrock\nsigma = 10\n",
                     "[adapt] sigma is not read by dist = rosenbrock", id="rosenbrock-sigma"),
        # nor does a mixture read sigma, or a quadratic family lam
        pytest.param("dist = mixture\ndim = 4", "dist = mixture\ndim = 4\nsigma = 5",
                     "[train] sigma is not read by dist = mixture", id="mixture-sigma"),
        pytest.param(TINY_TEST, TINY_TEST.replace("lasso", "quadratic") + "lam = 0.1\n",
                     "[test] lam is not read by family = quadratic", id="normal-quadratic-lam"),
        pytest.param("family = lasso\ndist = mixture\ndim = 4",
                     "family = quadratic\ndist = mixture\ndim = 4\nsigma = 5",
                     "[train] sigma is not read by dist = mixture", id="mixture-quadratic-sigma"),
        pytest.param("family = lasso\ndist = mixture\ndim = 4",
                     "family = quadratic\ndist = mixture\ndim = 4\nlam = 0.1",
                     "[train] lam is not read by family = quadratic", id="mixture-quadratic-lam"),
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


def test_sigmas_flag_needs_a_normal_test_distribution(tmp_path, capsys, no_training):
    rosenbrock = "dist = rosenbrock\nfamily = rosenbrock\n"
    config = tmp_path / "exp.ini"
    config.write_text(
        TINY.replace(TINY_ADAPT, "[adapt]\n" + rosenbrock).replace(TINY_TEST, "[test]\n" + rosenbrock)
    )
    out = tmp_path / "o"
    rc = main(["compare", "--config", str(config), "--out", str(out), "--sigmas", "1,2,3"])
    assert rc == EXIT_CONFIG
    assert "--sigmas needs a normal test distribution" in capsys.readouterr().err
    assert os.listdir(out) == ["config.resolved.ini"]
    # without the flag the config's default sigmas load, and training starts
    with pytest.raises(AssertionError, match="training started"):
        main(["compare", "--config", str(config), "--out", str(out)])


def test_compare_keeps_a_sigmaless_adaptation_distribution(tmp_path, capsys):
    # a mixture has no sigma: every column adapts on it as configured, so each
    # method adapts each seed to the same weights in both columns
    config = tmp_path / "exp.ini"
    config.write_text(TINY.replace(TINY_ADAPT, "[adapt]\nfamily = lasso\ndist = mixture\ndim = 4\n"))
    out = tmp_path / "o"
    rc = main(["compare", "--config", str(config), "--sigmas", "10,100", "--out", str(out)])
    assert rc == EXIT_OK
    assert capsys.readouterr().err == ""
    table = harness.compare_methods(replace(load_config(str(config)), sigmas=(10.0, 100.0)))
    table.write_json(tmp_path / "library.json")
    assert (tmp_path / "library.json").read_bytes() == (out / "comparison.json").read_bytes()
    assert {r.key for r in table.records} == {"10", "100"}
    digests = {}
    for r in table.records:
        digests.setdefault((r.method, r.seed), set()).add(r.params_digest)
    assert len(digests) == 4 * 2 and all(len(d) == 1 for d in digests.values())


def test_interpolate_seeds_use_the_test_draws_of_compare(tiny_config):
    cfg = replace(load_config(tiny_config), n_tasks=2, interp_alphas=(0.0, 0.5, 1.0))
    compared = harness.compare_methods(cfg)
    draws = {(r.seed, r.task_index, r.task_digest, r.theta0_digest) for r in compared.records}
    assert len(draws) == cfg.n_seeds * cfg.n_tasks
    w1, w2 = (random_params(4, RngStream(3).child(name)) for name in ("w1", "w2"))
    interpolated = harness.interpolate_eval(cfg, w1, w2)
    assert len(interpolated.records) == 12
    for r in interpolated.records:
        assert (r.seed, r.task_index, r.task_digest, r.theta0_digest) in draws


def test_unparsable_list_flags_are_refused_before_training(tmp_path, capsys, no_training):
    w = tmp_path / "w.ckpt"
    save_checkpoint(random_params(4, RngStream(3).child("w")), w)
    cases = [
        (TINY, ["compare", "--sigmas", "abc"], "could not convert"),
        (TINY, ["sweep", "--adapt-sigmas", "abc"], "could not convert"),
        (TINY, ["interpolate", "--w1", str(w), "--w2", str(w), "--alphas", "abc"],
         "could not convert"),
        # the distribution check comes first: the flag is refused, not its value
        (TINY.replace(TINY_TEST, "[test]\ndist = rosenbrock\n"), ["compare", "--sigmas", "abc"],
         "--sigmas needs a normal test distribution"),
    ]
    for k, (text, cmd, message) in enumerate(cases):
        config = tmp_path / f"exp{k}.ini"
        config.write_text(text)
        out = tmp_path / f"o{k}"
        assert main([*cmd, "--config", str(config), "--out", str(out)]) == EXIT_CONFIG, cmd
        assert message in capsys.readouterr().err, cmd
        assert os.listdir(out) == ["config.resolved.ini"]


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


@pytest.mark.parametrize("blocked", ["curves", "comparison.json"])
def test_failed_result_write_names_the_file(tiny_config, tmp_path, capsys, blocked):
    # a file where the curve directory goes, or a directory where a table goes
    out = tmp_path / "o"
    out.mkdir()
    if blocked == "curves":
        (out / blocked).write_text("")
    else:
        (out / blocked).mkdir()
    reason = os.strerror(errno.EEXIST if blocked == "curves" else errno.EISDIR)
    assert main(["compare", "--config", tiny_config, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: cannot write {out / blocked}: {reason}\n"


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


def test_checkpoint_errors_name_the_file(tiny_config, tmp_path, capsys, no_training):
    # 7 bytes of junk under the cache key of the first file a comparison reads,
    # and as --w2: each error says which file it was
    cfg = load_config(tiny_config)
    cache = tmp_path / "cache"
    cache.mkdir()
    key = TrainingCache._key("plain", harness.seed_config(cfg.meta, 0), cfg.dist_train)
    junk = cache / f"plain-{key}.ckpt"
    junk.write_bytes(b"garbage")
    bad_magic = "corrupt checkpoint: bad magic b'garb', expected b'ML2O'"
    for read in (load_checkpoint, load_checkpoint_metadata):
        with pytest.raises(CheckpointError) as exc:
            read(junk)
        assert str(exc.value) == f"{junk}: {bad_magic}"
    rc = main(["compare", "--config", tiny_config, "--out", str(tmp_path / "o"),
               "--cache-dir", str(cache)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"checkpoint error: {junk}: {bad_magic}\n"
    good = tmp_path / "good.ckpt"
    save_checkpoint(random_params(4, RngStream(1)), good)
    rc = main(["interpolate", "--config", tiny_config, "--w1", str(good), "--w2", str(junk),
               "--out", str(tmp_path / "i")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == f"checkpoint error: {junk}: {bad_magic}\n"
    # a file that cannot be opened is a checkpoint error too, not a traceback
    missing = tmp_path / "missing.ckpt"
    rc = main(["interpolate", "--config", tiny_config, "--w1", str(missing), "--w2", str(good),
               "--out", str(tmp_path / "i")])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"checkpoint error: {missing}: cannot open: No such file or directory\n"
    )


def test_bytes_after_the_checksum_are_refused(tiny_config, tmp_path, capsys):
    good = tmp_path / "good.ckpt"
    save_checkpoint(random_params(4, RngStream(1)), good)
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(good.read_bytes() + b"x" * 16)
    out = tmp_path / "o"
    rc = main(["interpolate", "--config", tiny_config, "--w1", str(good), "--w2", str(padded),
               "--out", str(out)])
    assert rc == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"checkpoint error: {padded}: corrupt checkpoint: 16 bytes after the checksum\n"
    )
    assert os.listdir(out) == ["config.resolved.ini"]


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


IMPORTS_NONE_OF = """
import sys
package = sys.argv[1]
def loaded():
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))
import ml2o.cli
assert loaded() == [], loaded()
rc = ml2o.cli.main(sys.argv[2:])
assert rc == 0, rc
assert loaded() == [], loaded()
"""


def run_tiny_compare_without(package: str, tiny_config, tmp_path):
    """Import `ml2o.cli` and run a tiny `compare` in a child that must never load `package`."""
    return subprocess.run(
        [sys.executable, "-c", IMPORTS_NONE_OF, package, "compare", "--config", tiny_config,
         "--n-seeds", "2", "--jobs", "1", "--out", str(tmp_path / "out"),
         "--cache-dir", str(tmp_path / "cache")],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )


def test_commands_do_not_import_scipy(tiny_config, tmp_path):
    # scipy is only a reference for the tests and the t-quantile past the table
    child = run_tiny_compare_without("scipy", tiny_config, tmp_path)
    assert child.returncode == 0, child.stderr


def test_commands_do_not_import_theory(tiny_config, tmp_path):
    # only `verify` reads the theory diagnostics; other commands skip their import
    child = run_tiny_compare_without("ml2o.theory", tiny_config, tmp_path)
    assert child.returncode == 0, child.stderr
