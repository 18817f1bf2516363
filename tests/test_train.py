import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import with_proj
from ml2o.cell import random_params
from ml2o.config import load_config
from ml2o.numeric import RngStream
from ml2o.tasks import LASSO, MIXTURE, NORMAL, QUADRATIC, TaskDistribution
from ml2o import train, unroll
from ml2o.train import (
    AdaptGroup,
    DivergenceError,
    MetaConfig,
    adapt,
    adapt_groups,
    sgd_schedule_lr,
    train_ml2o,
    train_plain_l2o,
    train_lockstep,
)
from ml2o.harness import seed_config
from ml2o.unroll import DETACHED_INPUT, FD_HVP_META, FULL_SECOND_ORDER, GRAD_MODES, TAPE_ROW_STEPS

TRAIN_DIST = TaskDistribution(kind=MIXTURE, family=LASSO, dim=6, lam=0.005)


def tiny_cfg(**kw):
    base = dict(
        seed=77, hidden=5, unroll_len=6, epochs=12,
        epochs_per_task=4, alpha=1e-3, outer_lr=1e-3,
    )
    base.update(kw)
    return MetaConfig(**base)


def test_sgd_schedule_closed_form():
    beta, mu = 0.3, 2.0
    for k in range(200):
        assert sgd_schedule_lr(k, beta, mu) == min(beta, 8.0 / (mu * (k + 1)))


def test_config_validation():
    with pytest.raises(ValueError):
        MetaConfig(epochs=0)
    with pytest.raises(ValueError):
        MetaConfig(alpha=-1.0)
    with pytest.raises(ValueError):
        MetaConfig(grad_mode="bogus")
    with pytest.raises(ValueError):
        MetaConfig(epochs_per_task=0)
    # a cell needs a hidden unit
    with pytest.raises(ValueError, match="hidden must be >= 1"):
        MetaConfig(hidden=0)


@pytest.mark.parametrize("grad_mode", GRAD_MODES)
def test_alpha_zero_collapses_to_plain_training(grad_mode):
    cfg = tiny_cfg(alpha=0.0, epochs=50, epochs_per_task=5, grad_mode=grad_mode)
    p1, log1 = train_ml2o(cfg, TRAIN_DIST)
    p2, log2 = train_plain_l2o(cfg, TRAIN_DIST)
    assert np.array_equal(p1.flat, p2.flat)
    assert log1.meta_losses == log2.meta_losses
    assert log1.theta_final_digests == log2.theta_final_digests


def test_detached_input_reaches_every_ml2o_pass():
    # the trajectory mode cuts the feature path in the stepped pass and the
    # finite-difference pair too, so ml2o's weights leave the second-order run's
    cfg = tiny_cfg(seed=3, epochs=20)
    detached, _ = train_ml2o(replace(cfg, grad_mode=DETACHED_INPUT), TRAIN_DIST)
    second_order, _ = train_ml2o(replace(cfg, grad_mode=FD_HVP_META), TRAIN_DIST)
    assert not np.array_equal(detached.flat, second_order.flat)
    # and full_second_order selects the same training as fd_hvp_meta
    full, _ = train_ml2o(replace(cfg, grad_mode=FULL_SECOND_ORDER), TRAIN_DIST)
    assert np.array_equal(full.flat, second_order.flat)


def test_detached_input_runs_both_trainers_in_one_first_pass(monkeypatch):
    cfg = tiny_cfg(epochs=3, grad_mode=DETACHED_INPUT)
    sizes = []
    real = unroll.meta_grad_stack

    def counting(params, *args):
        sizes.append(params.size)
        return real(params, *args)

    monkeypatch.setattr(unroll, "meta_grad_stack", counting)
    train_lockstep([(cfg, True), (cfg, False)], TRAIN_DIST)
    # as in the default mode: the first pass over both trainers' slices, then
    # ml2o's stepped pass and its finite-difference pair
    assert sizes == [2, 1, 2] * cfg.epochs


def test_block_continuation_is_bit_exact():
    cfg = tiny_cfg()
    _, log = train_plain_l2o(cfg, TRAIN_DIST)
    for k in range(1, cfg.epochs):
        if k % cfg.epochs_per_task:
            assert log.theta0_digests[k] == log.theta_final_digests[k - 1]
        else:
            assert log.theta0_digests[k] != log.theta_final_digests[k - 1]


def test_blocks_last_epochs_per_task():
    # a block begins at every multiple of epochs_per_task; the last one is cut short
    cfg = tiny_cfg(epochs=11, epochs_per_task=3)
    _, log = train_plain_l2o(cfg, TRAIN_DIST)
    assert log.task_ids == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3]


def test_training_is_seed_deterministic():
    cfg = tiny_cfg()
    a, _ = train_ml2o(cfg, TRAIN_DIST)
    b, _ = train_ml2o(cfg, TRAIN_DIST)
    assert np.array_equal(a.flat, b.flat)


def test_log_has_exactly_one_row_per_epoch(tmp_path):
    cfg = tiny_cfg()
    _, log = train_plain_l2o(cfg, TRAIN_DIST)
    assert len(log.meta_losses) == cfg.epochs
    assert len(log.task_ids) == cfg.epochs
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,meta_loss,task_id,wall_ms"
    assert len(lines) == cfg.epochs + 1


def test_sgd_schedule_outer_rule_runs():
    cfg = tiny_cfg(outer_rule="sgd_schedule", sgd_beta=1e-4, sgd_mu=1.0)
    params, _ = train_plain_l2o(cfg, TRAIN_DIST)
    assert np.all(np.isfinite(params.flat))


def test_desk_scale_smoke_meta_loss_halves():
    # Desk-scale fixture: 500 epochs at outer_lr 1e-3 (the 10x-shorter budget
    # keeps the same total displacement as 5000 epochs at 1e-4).  The median
    # late-stage meta-loss must drop by at least half of the first epoch's.
    dist = TaskDistribution(kind=MIXTURE, family=LASSO, dim=10, lam=0.005)
    ratios = []
    for k in range(5):
        cfg = seed_config(
            MetaConfig(seed=123, epochs=500, epochs_per_task=20, alpha=1e-3, outer_lr=1e-3), k
        )
        _, log = train_plain_l2o(cfg, dist)
        first = log.meta_losses[0]
        late = float(np.median(log.meta_losses[-10:]))
        ratios.append((first - late) / abs(first))
    assert float(np.median(ratios)) >= 0.5


def test_adapt_zero_steps_returns_params_unchanged(rng):
    params = random_params(5, rng)
    dist = TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.005, sigma=2.0)
    out = adapt(params, dist, 0, 1e-3, 6, RngStream(1).child("a"))
    assert np.array_equal(out.flat, params.flat)


def test_adapt_is_deterministic(rng):
    params = random_params(5, rng)
    dist = TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.005, sigma=2.0)
    a = adapt(params, dist, 5, 1e-4, 6, RngStream(1).child("a"))
    b = adapt(params, dist, 5, 1e-4, 6, RngStream(1).child("a"))
    assert np.array_equal(a.flat, b.flat)
    c = adapt(params, dist, 5, 1e-4, 6, RngStream(2).child("a"))
    assert not np.array_equal(a.flat, c.flat)


def test_adapt_single_task_mode_differs_from_fresh(rng):
    params = random_params(5, rng)
    dist = TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.005, sigma=2.0)
    fresh = adapt(params, dist, 4, 1e-4, 6, RngStream(1).child("a"))
    single = adapt(params, dist, 4, 1e-4, 6, RngStream(1).child("a"),
                   fresh_task_per_step=False)
    assert not np.array_equal(fresh.flat, single.flat)


def test_adapt_divergence_raises(rng):
    params = random_params(5, rng)
    dist = TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.005, sigma=2.0)
    with pytest.raises(DivergenceError):
        adapt(params, dist, 8, 1e150, 6, RngStream(1).child("a"))


def test_training_divergence_carries_epoch_and_weights():
    cfg = tiny_cfg(outer_rule="sgd_schedule", sgd_beta=1e150, sgd_mu=1e-300)
    with pytest.raises(DivergenceError) as err:
        train_plain_l2o(cfg, TRAIN_DIST)
    assert err.value.epoch >= 0
    assert np.all(np.isfinite(err.value.last_params.flat))


def test_divergence_in_fd_minus_half_names_its_seed(poison_fd_minus_half):
    cfg = tiny_cfg()
    calls = poison_fd_minus_half([0])
    with pytest.raises(DivergenceError) as err:
        train_ml2o(cfg, TRAIN_DIST)
    assert calls == [1, 1, 2]
    assert err.value.epoch == 0
    assert f"seed {cfg.seed}:" in err.value.cause

    calls = poison_fd_minus_half([1])
    cfgs = [replace(cfg, seed=s) for s in (1, 2)]
    with pytest.raises(DivergenceError) as err:
        train_lockstep([(c, True) for c in cfgs], TRAIN_DIST)
    assert calls == [2, 2, 4]
    assert err.value.epoch == 0
    assert "seed 2:" in err.value.cause


@pytest.mark.parametrize("outer_rule", ["adam", "sgd_schedule"])
def test_lockstep_training_matches_solo_runs(outer_rule):
    base = tiny_cfg(epochs=16, epochs_per_task=2, outer_rule=outer_rule, sgd_beta=1e-3)
    cfgs = [replace(base, seed=s) for s in (1, 2, 3)]
    for meta_adaptive, solo_fn in ((True, train_ml2o), (False, train_plain_l2o)):
        together = train_lockstep([(c, meta_adaptive) for c in cfgs], TRAIN_DIST)
        for cfg, (params, log) in zip(cfgs, together):
            solo, solo_log = solo_fn(cfg, TRAIN_DIST)
            assert np.array_equal(params.flat, solo.flat)
            assert log.meta_losses == solo_log.meta_losses
            assert log.task_ids == solo_log.task_ids
            assert log.theta0_digests == solo_log.theta0_digests
            assert log.theta_final_digests == solo_log.theta_final_digests


def test_lockstep_training_rejects_mixed_configs():
    with pytest.raises(ValueError, match="only in seed"):
        train_lockstep([(tiny_cfg(), False), (tiny_cfg(seed=1, hidden=6), False)], TRAIN_DIST)


@pytest.mark.parametrize("fresh", [True, False])
@pytest.mark.parametrize("n_starts", [1, 3])
def test_adapt_groups_match_solo_adapt(rng, monkeypatch, n_starts, fresh):
    # five groups on their own seeds and sigmas, at dim 10 and the profiles'
    # 20 unroll steps: six slices a stack
    dists = [TaskDistribution(kind=NORMAL, family=LASSO, dim=10, lam=0.005, sigma=1.0 + k)
             for k in range(5)]
    starts = [[random_params(5, rng) for _ in range(n_starts)] for _ in dists]
    # a huge projection throws the iterate to infinity in the first unroll
    starts[0][n_starts // 2] = with_proj(starts[0][n_starts // 2], w_proj=1e300)
    sizes = []
    real = train.meta_grad_stack

    def counting(params, *args):
        sizes.append(params.size)
        return real(params, *args)

    monkeypatch.setattr(train, "meta_grad_stack", counting)
    groups = [AdaptGroup(s, d, RngStream(k + 1).child("a"))
              for k, (s, d) in enumerate(zip(starts, dists))]
    adapted = adapt_groups(groups, 4, 1e-4, 20, fresh_task_per_step=fresh)
    monkeypatch.undo()
    assert TAPE_ROW_STEPS // (10 * 20) == 6
    # the diverging start runs its first stack to the end and drops out of
    # later steps; with three starts a group, later steps' first two stacks
    # end inside the third and the last group
    if n_starts == 3:
        assert sizes == [6, 6, 3] + [6, 6, 2] * 3
    else:
        assert sizes == [5] + [4] * 3
    assert [len(r) for r in adapted] == [n_starts] * len(dists)
    for k, (group_starts, results) in enumerate(zip(starts, adapted)):
        for start, got in zip(group_starts, results):
            try:
                want = adapt(start, dists[k], 4, 1e-4, 20, RngStream(k + 1).child("a"),
                             fresh_task_per_step=fresh)
            except DivergenceError as exc:
                want = exc
            if isinstance(want, DivergenceError):
                assert isinstance(got, DivergenceError)
                assert str(got) == str(want) and got.epoch == want.epoch == 0
                assert np.array_equal(got.last_params.flat, start.flat)
            else:
                assert np.array_equal(got.flat, want.flat)
    assert sum(isinstance(r, DivergenceError) for rs in adapted for r in rs) == 1


def test_adapt_groups_step_memory_stays_within_the_tape_budget(rng):
    # a desk-shaped adaptation step: 10 groups x 3 starts, lasso d=10 at the
    # profiles' 20 unroll steps.  numpy reports its buffers to tracemalloc,
    # so the peak is the same on every run: 2.7 MB in stacks of six slices,
    # 4.8 MB in the 12-slice stacks of a 128-row bound
    dist = TaskDistribution(kind=NORMAL, family=LASSO, dim=10, lam=0.005, sigma=100.0)
    starts = [[random_params(20, rng) for _ in range(3)] for _ in range(10)]

    def groups():
        return [AdaptGroup(s, dist, RngStream(k + 1).child("a")) for k, s in enumerate(starts)]

    adapt_groups(groups(), 1, 3e-7, 20)
    fresh = groups()
    tracemalloc.start()
    try:
        adapted = adapt_groups(fresh, 1, 3e-7, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(r, DivergenceError) for rs in adapted for r in rs)
    assert peak < 3.0e6


def test_train_lockstep_memory_stays_within_the_tape_budget():
    # desk-shaped training: lasso_desk's two trainers at 2 seeds in one
    # lockstep stack of four, 3 epochs of 20 unroll steps.  The taped kernel
    # runs three times per ml2o epoch (first pass, stepped pass, FD pair), so
    # its tape sets the peak: 2.25 MB with a tape of per-step tuples, 2.17 MB
    # with time-major buffers.  The bound sits above the per-step-tuple tape's
    # peak: it guards against growth beyond that level, not the time-major
    # saving
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs" / "lasso_desk.ini"))
    meta = replace(cfg.meta, epochs=3)
    runs = [(seed_config(meta, k), adaptive) for adaptive in (False, True) for k in range(2)]
    train_lockstep(runs, cfg.dist_train)
    tracemalloc.start()
    try:
        trained = train_lockstep(runs, cfg.dist_train)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trained) == 4
    assert peak < 2.4e6


def test_adapt_groups_refuse_groups_that_cannot_share_a_stack(rng):
    params = random_params(5, rng)
    dist = TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.005, sigma=2.0)
    shared = RngStream(1).child("a")
    # interleaved draws from one stream would differ from each group's own
    with pytest.raises(ValueError, match="share a random stream"):
        adapt_groups([AdaptGroup([params], dist, shared), AdaptGroup([params], dist, shared)],
                     2, 1e-4, 6)
    for other in (replace(dist, family=QUADRATIC), replace(dist, dim=5),
                  TaskDistribution(kind="rosenbrock")):
        groups = [AdaptGroup([params], dist, RngStream(1)), AdaptGroup([params], other, RngStream(2))]
        with pytest.raises(ValueError, match="must share task family and dim") as err:
            adapt_groups(groups, 2, 1e-4, 6)
        for d in (dist, other):
            assert f"{d.label()} (dim {d.dim})" in str(err.value)


def test_adapt_groups_refuse_a_nan_step(rng):
    params = random_params(5, rng)
    dist = TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.005, sigma=2.0)
    for alpha in (-1.0, math.nan):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            adapt_groups([AdaptGroup([params], dist, RngStream(1))], 2, alpha, 6)


@pytest.mark.parametrize(
    "grad_mode, alpha",
    [("fd_hvp_meta", 1e-3), ("first_order_meta", 1e-3), ("detached_input", 1e-3),
     ("fd_hvp_meta", 0.0)],
)
def test_fused_training_matches_solo_runs(grad_mode, alpha):
    base = tiny_cfg(epochs=10, epochs_per_task=2, grad_mode=grad_mode, alpha=alpha)
    cfgs = [replace(base, seed=s) for s in (1, 2)]
    runs = [(cfgs[0], True), (cfgs[0], False), (cfgs[1], False), (cfgs[1], True)]
    together = train_lockstep(runs, TRAIN_DIST)
    for (cfg, meta_adaptive), (params, log) in zip(runs, together):
        solo, solo_log = (train_ml2o if meta_adaptive else train_plain_l2o)(cfg, TRAIN_DIST)
        assert np.array_equal(params.flat, solo.flat)
        assert log.meta_losses == solo_log.meta_losses
        assert log.task_ids == solo_log.task_ids
        assert log.theta_final_digests == solo_log.theta_final_digests


def test_fused_training_divergence_names_trainer_and_seed(poison_fd_minus_half):
    cfg = tiny_cfg()
    calls = poison_fd_minus_half([0])
    with pytest.raises(DivergenceError) as err:
        train_lockstep([(cfg, False), (replace(cfg, seed=5), True)], TRAIN_DIST)
    # one pass over both trainers, then the stepped pass and the pair for ml2o
    assert calls == [2, 1, 2]
    assert err.value.cause.startswith("ml2o seed 5: ")
