"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale experiment profiles live in configs/ and are loaded through
the public config parser, so these runs are exactly what the CLI would do.
Trained checkpoints are shared across criteria through a session cache.
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import make_quadratic, rel_error
from ml2o.cell import ParamStack, random_params, save_checkpoint
from ml2o.cli import _WORST_CASE_SUITES, EXIT_OK, _is_worse, _worst_case, main
from ml2o.config import load_config
from ml2o.harness import (
    DT,
    ML2O,
    TL,
    VANILLA,
    adapt_sweep,
    compare_methods,
    evaluate,
    interpolate_eval,
)
from ml2o.numeric import RngStream, central_diff
from ml2o.store import TrainingCache
from ml2o.tasks import TaskDistribution
from ml2o.theory import default_growth_report, gradient_gap_at, measure_gaps
from ml2o.train import train_ml2o, train_plain_l2o
from ml2o.unroll import (
    FD_HVP_META,
    FIRST_ORDER_META,
    maml_grad,
    maml_objective,
    meta_grad,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="session")
def cache(tmp_path_factory):
    return TrainingCache(str(tmp_path_factory.mktemp("train-cache")))


def worst_case_error(suite: str, rng: RngStream) -> tuple[float, float]:
    """`verify --suite <suite>`'s worst error over 20 quadratic cases drawn from `rng`, and its tolerance."""
    worst, _ = _worst_case(suite, rng, "p")
    return worst, _WORST_CASE_SUITES[suite][1]


def test_criterion_1_gradient_matches_finite_differences():
    worst, tol = worst_case_error("grad", RngStream(1001))
    ok = worst <= tol
    report(1, ok, f"reverse-mode vs central differences, max rel err {worst:.3e} (tol {tol:g})")
    assert ok


def test_criterion_2_jacobian_recursion_equals_reverse_mode():
    worst, tol = worst_case_error("jacobian", RngStream(1002))
    ok = worst <= tol
    report(2, ok, f"forward recursion vs reverse mode, max rel err {worst:.3e} (tol {tol:g})")
    assert ok


def test_criterion_3_meta_gradient_correctness():
    rng = RngStream(1003)
    worst = 0.0
    alpha = 0.01
    for i in range(10):
        task = make_quadratic(rng, 3)
        params = random_params(4, rng.child(f"p/{i}"))
        theta0 = rng.gen.normal(size=3)
        g = maml_grad(params, task, theta0, 5, alpha, FD_HVP_META)
        fd = central_diff(
            lambda f: maml_objective(ParamStack(f, params.hidden), task, theta0, 5, alpha),
            params.flat,
            1e-5,
        )
        if _is_worse(err := rel_error(g, fd), worst):
            worst = err
    task = make_quadratic(rng, 3)
    params = random_params(4, rng.child("z"))
    theta0 = rng.gen.normal(size=3)
    exact0 = all(
        np.array_equal(
            maml_grad(params, task, theta0, 5, 0.0, mode),
            meta_grad(params, task, theta0, 5),
        )
        for mode in (FD_HVP_META, FIRST_ORDER_META)
    )
    ok = worst <= 1e-3 and exact0
    report(
        3,
        ok,
        f"one-step-adapted objective gradient, max rel err {worst:.3e} (tol 1e-3); "
        f"alpha=0 bit-exact: {exact0}",
    )
    assert ok


def test_criterion_4_alpha_zero_trainer_degeneracy():
    cfg = load_config(str(CONFIG_DIR / "lasso_desk.ini"))
    from dataclasses import replace

    meta = replace(cfg.meta, alpha=0.0, epochs=50)
    p1, log1 = train_ml2o(meta, cfg.dist_train)
    p2, log2 = train_plain_l2o(meta, cfg.dist_train)
    same_params = np.array_equal(p1.flat, p2.flat)
    same_losses = log1.meta_losses == log2.meta_losses
    same_iterates = (
        log1.theta0_digests == log2.theta0_digests
        and log1.theta_final_digests == log2.theta_final_digests
    )
    ok = same_params and same_losses and same_iterates
    report(
        4,
        ok,
        f"alpha=0 meta trainer vs plain trainer over 50 epochs: weights equal {same_params}, "
        f"loss curves equal {same_losses}, iterate digests equal {same_iterates}",
    )
    assert ok


def test_criterion_5_desk_scale_method_ordering(cache):
    cfg = load_config(str(CONFIG_DIR / "lasso_desk.ini"))
    table = compare_methods(replace(cfg, sigmas=(100.0,), jobs=1), cache)
    means = {m: table.cell(m, 100.0).mean for m in (VANILLA, ML2O, DT, TL)}
    order_ok = means[ML2O] < means[TL] < means[DT] < means[VANILLA]
    sv_m = table.seed_values(ML2O, 100.0)
    sv_d = table.seed_values(DT, 100.0)
    paired = sum(1 for s in sv_m if sv_m[s] < sv_d[s])
    paired_ok = paired >= 8
    ok = order_ok and paired_ok
    report(
        5,
        ok,
        "sigma=100 min-log-loss means: "
        f"ml2o={means[ML2O]:.3f} < tl={means[TL]:.3f} < dt={means[DT]:.3f} < "
        f"vanilla={means[VANILLA]:.3f} ({order_ok}); ml2o<dt paired {paired}/{len(sv_m)} (need >=8)",
    )
    assert ok


def step500_means(table):
    sums: dict[str, list[float]] = {}
    for r in table.records:
        assert r.losses.shape[0] == 501 and r.truncated_at is None
        sums.setdefault(r.method, []).append(
            math.log(max(float(r.losses[500]), math.exp(-40.0)))
        )
    return {m: float(np.mean(v)) for m, v in sums.items()}


def test_criterion_6_rosenbrock_transfer_ordering(cache):
    cfg = load_config(str(CONFIG_DIR / "rosenbrock_desk.ini"))
    table = compare_methods(replace(cfg, jobs=1), cache)
    means = step500_means(table)
    ok = means[ML2O] < means[DT] < means[TL] < means[VANILLA]
    report(
        6,
        ok,
        "banana-function step-500 log-loss means: "
        f"ml2o={means[ML2O]:.3f} < dt={means[DT]:.3f} < tl={means[TL]:.3f} < "
        f"vanilla={means[VANILLA]:.3f}",
    )
    assert ok


def test_criterion_7_training_like_adaptation_generalizes(cache):
    cfg = load_config(str(CONFIG_DIR / "sweep_desk.ini"))
    table = adapt_sweep(replace(cfg, adapt_sigmas=(10.0, 100.0), test_sigma=100.0, jobs=1), cache)
    near = table.cell(ML2O, 10.0).mean
    far = table.cell(ML2O, 100.0).mean
    ok = near <= far
    report(
        7,
        ok,
        f"adaptation sigma sweep at test sigma 100: ml2o mean with sigma_adapt=10 "
        f"is {near:.3f}, with sigma_adapt=100 is {far:.3f} (need <=)",
    )
    assert ok


def test_criterion_8_interpolation_endpoints_bit_exact(tmp_path):
    rng = RngStream(1008)
    w1 = random_params(4, rng.child("w1"))
    w2 = random_params(4, rng.child("w2"))
    dist = TaskDistribution(kind="normal", family="lasso", dim=4, lam=0.005, sigma=10.0)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(
        "[meta]\nseed = 7\nhidden = 4\nunroll_len = 5\nepochs = 4\n"
        "[test]\nfamily = lasso\ndist = normal\nsigma = 10\ndim = 4\nhorizon = 20\n"
        "[eval]\nn_seeds = 3\n"
    )
    table = interpolate_eval(replace(load_config(str(cfg_path)), interp_alphas=(0.0, 1.0)), w1, w2)
    by_alpha = {key: [r for r in table.records if r.key == key] for key in ("0", "1")}
    direct = {
        1.0: [
            evaluate(w1, dist, 20, 1, RngStream(RngStream(7).derive_seed(f"seed/{k}")).child("test"))[0]
            for k in range(3)
        ],
        0.0: [
            evaluate(w2, dist, 20, 1, RngStream(RngStream(7).derive_seed(f"seed/{k}")).child("test"))[0]
            for k in range(3)
        ],
    }
    ok = True
    for key, want in (("1", direct[1.0]), ("0", direct[0.0])):
        for got, ref in zip(by_alpha[key], want):
            ok = ok and np.array_equal(got.losses, ref.losses)
            ok = ok and got.params_digest == ref.params_digest

    # and through the CLI surface
    p1, p2 = tmp_path / "w1.ckpt", tmp_path / "w2.ckpt"
    save_checkpoint(w1, p1)
    save_checkpoint(w2, p2)
    rc = main(["interpolate", "--config", str(cfg_path), "--w1", str(p1),
               "--w2", str(p2), "--alphas", "0,1", "--out", str(tmp_path / "o")])
    doc = json.loads((tmp_path / "o" / "interpolation.json").read_text())
    digests = {row["alpha"]: row["params_digest"] for row in doc}
    cli_ok = rc == EXIT_OK and digests[1.0] == w1.digest() and digests[0.0] == w2.digest()
    ok = ok and cli_ok
    report(8, ok, f"blend endpoints reproduce endpoint evaluations bit-exactly (cli: {cli_ok})")
    assert ok


def test_criterion_9_rerun_determinism(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(
        "[meta]\nseed = 11\nhidden = 4\nunroll_len = 5\nepochs = 6\nepochs_per_task = 3\n"
        "outer_lr = 1e-3\nalpha = 1e-4\n"
        "[train]\nfamily = lasso\ndist = mixture\ndim = 4\n"
        "[adapt]\nfamily = lasso\ndist = normal\nsigma = 10\nsteps = 2\nalpha = 1e-6\n"
        "[test]\nfamily = lasso\ndist = normal\nsigma = 10\ndim = 4\nhorizon = 12\n"
        "[eval]\nn_seeds = 2\nn_tasks = 1\n"
    )

    def run_all(tag):
        out = tmp_path / tag
        assert main(["meta-train", "--config", str(cfg_path), "--method", "ml2o",
                     "--out", str(out / "train")]) == EXIT_OK
        assert main(["compare", "--config", str(cfg_path), "--out", str(out / "cmp"),
                     "--sigmas", "10"]) == EXIT_OK
        return out

    def strip_wall(path):
        return ["\n".join(col for i, col in enumerate(line.split(",")) if i != 3)
                for line in path.read_text().splitlines()]

    a, b = run_all("a"), run_all("b")
    ckpt_same = (a / "train" / "checkpoint_ml2o.ckpt").read_bytes() == (
        b / "train" / "checkpoint_ml2o.ckpt"
    ).read_bytes()
    log_same = strip_wall(a / "train" / "trainlog.csv") == strip_wall(b / "train" / "trainlog.csv")
    cmp_same = (a / "cmp" / "comparison.csv").read_bytes() == (
        b / "cmp" / "comparison.csv"
    ).read_bytes() and (a / "cmp" / "comparison.json").read_bytes() == (
        b / "cmp" / "comparison.json"
    ).read_bytes()
    ok = ckpt_same and log_same and cmp_same
    report(
        9,
        ok,
        f"rerun determinism: checkpoint {ckpt_same}, trainlog sans wall-time {log_same}, "
        f"comparison outputs {cmp_same}",
    )
    assert ok


def test_criterion_10_theory_diagnostics():
    rng = RngStream(1010)
    t = make_quadratic(rng, 4)
    zeros = measure_gaps(t, t, 2.0, 64, rng.child("gap"))
    zeros_ok = zeros.grad_gap == 0.0 and zeros.hess_gap == 0.0

    t1 = make_quadratic(rng, 5)
    t2 = make_quadratic(rng, 5)
    m = t1.a.T @ t1.a - t2.a.T @ t2.a
    d = t1.a.T @ t1.b - t2.a.T @ t2.b
    closed_ok = True
    for _ in range(20):
        theta = rng.gen.normal(size=5)
        measured = gradient_gap_at(t1, t2, theta)
        closed = float(np.linalg.norm(m @ theta - d))
        closed_ok = closed_ok and abs(measured - closed) <= 1e-12 * max(closed, 1.0)

    growth = default_growth_report(0)
    growth_ok = growth.nondecreasing_fraction >= 0.9

    ok = zeros_ok and closed_ok and growth_ok
    report(
        10,
        ok,
        f"identical-task gaps zero: {zeros_ok}; quadratic gap probes match closed form "
        f"to 1e-12: {closed_ok}; gap growth nondecreasing on "
        f"{growth.nondecreasing_fraction:.0%} of pairs (need >=90%)",
    )
    assert ok
