import json
import math
import os
import random
from dataclasses import replace

import numpy as np
import pytest

from ml2o import harness
from ml2o.cell import init_params, load_checkpoint, load_checkpoint_metadata, random_params
from ml2o.harness import (
    DT,
    ML2O,
    TL,
    VANILLA,
    LOG_FLOOR,
    ComparisonTable,
    EvalGroup,
    RunRecord,
    TrainingCache,
    adapt_sweep,
    blend_params,
    compare_methods,
    confidence_interval,
    evaluate,
    evaluate_groups,
    interpolate_eval,
    min_log_loss,
    read_comparison_json,
    seed_config,
)
from ml2o.numeric import RngStream, numeric_environment
from ml2o.tasks import LASSO, MIXTURE, NORMAL, QUADRATIC, OptimizeeTask, TaskDistribution
from ml2o.train import MetaConfig
from ml2o.unroll import STACK_ROWS, unroll

TRAIN_DIST = TaskDistribution(kind=MIXTURE, family=LASSO, dim=4, lam=0.005)
ADAPT_DIST = TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.005, sigma=10.0)
TEST_DIST = TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.005, sigma=10.0)


def tiny_meta(**kw):
    base = dict(
        seed=5150, hidden=4, unroll_len=5, epochs=8,
        epochs_per_task=4, alpha=1e-4, outer_lr=1e-3, adapt_steps=2,
    )
    base.update(kw)
    return MetaConfig(**base)


def test_min_log_loss_floor_for_exact_zero():
    assert min_log_loss(np.zeros(5)) == LOG_FLOOR
    # zero-update optimizer parked at a quadratic's optimum
    task = OptimizeeTask(kind=QUADRATIC, dim=3, a=np.eye(3), b=np.zeros(3))
    params = init_params(4, RngStream(1))
    res = unroll(params, task, np.zeros(3), 10)
    assert min_log_loss(res.losses) == LOG_FLOOR


def test_min_log_loss_is_min_of_log_curve(rng):
    losses = np.abs(rng.gen.normal(size=40)) + 1e-3
    assert min_log_loss(losses) == pytest.approx(float(np.min(np.log(losses))))


def test_confidence_interval_zero_variance():
    mean, half = confidence_interval([3.25] * 7)
    assert mean == 3.25 and half == 0.0


def test_confidence_interval_two_points_matches_cauchy_quantile():
    # at one degree of freedom the t quantile is tan(pi*(0.975-0.5))
    mean, half = confidence_interval([-1.0, 1.0])
    assert mean == 0.0
    assert half == pytest.approx(math.tan(math.pi * 0.475), rel=1e-9)


def test_confidence_interval_rejects_singletons():
    with pytest.raises(ValueError):
        confidence_interval([1.0])


def test_confidence_interval_shrinks_like_sqrt_n():
    gen = RngStream(12).gen
    ratios = []
    for _ in range(200):
        a = gen.normal(size=12)
        b = gen.normal(size=24)
        ratios.append(confidence_interval(b)[1] / confidence_interval(a)[1])
    med = float(np.median(ratios))
    assert 0.6 <= med <= 0.8


def test_evaluate_is_deterministic(rng):
    params = random_params(4, rng)
    a = evaluate(params, TEST_DIST, 20, 2, RngStream(3).child("test"))
    b = evaluate(params, TEST_DIST, 20, 2, RngStream(3).child("test"))
    assert len(a) == len(b) == 2
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.losses, rb.losses)
        assert ra.task_digest == rb.task_digest
        assert ra.min_log_loss == rb.min_log_loss


def test_evaluate_truncates_on_nonfinite(rng):
    params = random_params(4, rng, proj_scale=2.0)
    absurd = TaskDistribution(kind=NORMAL, family=QUADRATIC, dim=3, sigma=1e160)
    recs = evaluate(params, absurd, 10, 1, RngStream(4).child("test"))
    assert recs[0].truncated_at == 0
    assert math.isinf(recs[0].min_log_loss)


def test_seed_values_skip_what_the_cell_mean_skips():
    # a curve truncated at step 0 is not diverged but has no finite metric
    def record(seed, value):
        return RunRecord(
            method=ML2O, key="10", seed=seed, task_index=0, losses=np.empty(0),
            min_log_loss=value, task_digest="", theta0_digest="", params_digest="",
        )

    table = ComparisonTable.from_records([record(0, 1.5), record(1, math.inf), record(2, 2.5)])
    cell = table.cell(ML2O, 10.0)
    assert (cell.n, cell.n_diverged, cell.mean) == (2, 1, 2.0)
    assert table.seed_values(ML2O, 10.0) == {0: 1.5, 2: 2.5}


def test_comparison_protocol_pairing_and_shared_checkpoint(tmp_path):
    meta = tiny_meta()
    cache = TrainingCache(str(tmp_path / "cache"))
    table = compare_methods(
        meta, TRAIN_DIST, ADAPT_DIST, TEST_DIST,
        sigma_list=[10.0], n_seeds=2, horizon=15, n_tasks=2,
        adapt_alpha=1e-6, cache=cache,
    )
    by_ms = {}
    for r in table.records:
        by_ms.setdefault((r.seed, r.method), []).append(r)
    for seed in (0, 1):
        digests = {
            m: [(r.task_digest, r.theta0_digest) for r in sorted(by_ms[(seed, m)], key=lambda r: r.task_index)]
            for m in (VANILLA, ML2O, DT, TL)
        }
        # all four methods see bit-identical test draws
        assert digests[VANILLA] == digests[ML2O] == digests[DT] == digests[TL]
        # DT evaluates the plain checkpoint itself
        plain = cache.get_or_train("plain", seed_config(meta, seed), TRAIN_DIST)
        assert by_ms[(seed, DT)][0].params_digest == plain.digest()
        assert by_ms[(seed, TL)][0].params_digest != plain.digest()


def test_aggregation_is_order_independent(tmp_path):
    meta = tiny_meta()
    table = compare_methods(
        meta, TRAIN_DIST, ADAPT_DIST, TEST_DIST,
        sigma_list=[10.0], n_seeds=3, horizon=10, n_tasks=2,
        adapt_alpha=1e-6, cache=TrainingCache(str(tmp_path / "c")),
    )
    shuffled = list(table.records)
    random.Random(9).shuffle(shuffled)
    again = ComparisonTable.from_records(shuffled)
    for c1, c2 in zip(table.cells, again.cells):
        assert (c1.method, c1.key, c1.mean, c1.half_width, c1.n) == (
            c2.method, c2.key, c2.mean, c2.half_width, c2.n
        )


def test_sweep_degenerates_to_comparison_cells(tmp_path):
    meta = tiny_meta()
    cache = TrainingCache(str(tmp_path / "cache"))
    comp = compare_methods(
        meta, TRAIN_DIST, ADAPT_DIST, TEST_DIST,
        sigma_list=[10.0], n_seeds=2, horizon=12, n_tasks=1,
        adapt_alpha=1e-6, cache=cache,
    )
    sweep = adapt_sweep(
        meta, TRAIN_DIST, ADAPT_DIST, TEST_DIST,
        adapt_sigmas=[10.0], test_sigma=10.0, n_seeds=2, horizon=12, n_tasks=1,
        adapt_alpha=1e-6, cache=cache,
    )
    for method in (TL, ML2O):
        a = comp.cell(method, 10.0)
        b = sweep.cell(method, 10.0)
        assert a.mean == b.mean and a.half_width == b.half_width


def test_interpolation_endpoints_bit_exact(rng):
    w1 = random_params(4, rng)
    w2 = random_params(4, rng)
    out = interpolate_eval(w1, w2, [0.0, 0.5, 1.0], TEST_DIST, 15, n_seeds=2, root_seed=3)
    direct_w1 = [
        evaluate(w1, TEST_DIST, 15, 1, RngStream(RngStream(3).derive_seed(f"seed/{k}")).child("test"))
        for k in range(2)
    ]
    for k in range(2):
        assert np.array_equal(out["1"][k].losses, direct_w1[k][0].losses)
        assert out["1"][k].params_digest == w1.digest()
        assert out["0"][k].params_digest == w2.digest()


def test_interpolation_idempotent_blend(rng):
    w = random_params(4, rng)
    out = interpolate_eval(w, w, [0.0, 0.25, 1.0], TEST_DIST, 10, n_seeds=2, root_seed=3)
    base = [r.min_log_loss for r in out["0"]]
    for key in ("0.25", "1"):
        assert [r.min_log_loss for r in out[key]] == base


def test_blend_rejects_shape_mismatch(rng):
    w1 = random_params(4, rng)
    w2 = random_params(5, rng)
    with pytest.raises(ValueError, match="hidden=4.*hidden=5"):
        blend_params(w1, w2, 0.5)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        blend_params(w1, w1, 1.5)


def test_table_json_round_trips_bit_exact(tmp_path):
    meta = tiny_meta()
    table = compare_methods(
        meta, TRAIN_DIST, ADAPT_DIST, TEST_DIST,
        sigma_list=[10.0], n_seeds=2, horizon=10, n_tasks=1,
        adapt_alpha=1e-6, cache=TrainingCache(str(tmp_path / "c")),
    )
    path = tmp_path / "t.json"
    table.write_json(path)
    back = read_comparison_json(path)
    assert back.to_json_dict() == table.to_json_dict()
    # and a second write is byte-identical
    path2 = tmp_path / "t2.json"
    back.write_json(path2)
    table_doc = json.loads(path.read_text())
    back_doc = json.loads(path2.read_text())
    assert table_doc == back_doc


def test_undefined_statistics_write_strict_json_as_null(tmp_path):
    # one counted seed leaves the half-width undefined; a cell whose only run
    # diverged has no mean either
    def record(method, seed, value, diverged=False):
        return RunRecord(
            method=method, key="10", seed=seed, task_index=0, losses=np.empty(0),
            min_log_loss=value, task_digest="", theta0_digest="", params_digest="",
            diverged=diverged,
        )

    table = ComparisonTable.from_records(
        [record(ML2O, 0, -3.25), record(TL, 0, 1.0, diverged=True)]
    )
    path = tmp_path / "t.json"
    table.write_json(path)

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    doc = json.loads(path.read_text(), parse_constant=refuse)
    cells = {c["method"]: c for c in doc["cells"]}
    assert cells[ML2O]["mean"] == -3.25 and cells[ML2O]["half_width"] is None
    assert cells[TL]["mean"] is None and cells[TL]["n_diverged"] == 1
    back = read_comparison_json(path)
    assert back.cell(ML2O, 10.0).mean == -3.25
    assert math.isnan(back.cell(ML2O, 10.0).half_width)
    assert math.isnan(back.cell(TL, 10.0).mean)
    back.write_json(tmp_path / "t2.json")
    assert (tmp_path / "t2.json").read_bytes() == path.read_bytes()


def test_training_cache_hits_are_identical(tmp_path):
    meta = tiny_meta()
    cache1 = TrainingCache(str(tmp_path / "c"))
    p1 = cache1.get_or_train("plain", meta, TRAIN_DIST)
    cache2 = TrainingCache(str(tmp_path / "c"))  # cold memo, warm disk
    p2 = cache2.get_or_train("plain", meta, TRAIN_DIST)
    assert np.array_equal(p1.to_flat(), p2.to_flat())
    # the file records the numeric environment it was trained in
    (path,) = (tmp_path / "c").glob("plain-*.ckpt")
    key = TrainingCache._key("plain", meta, TRAIN_DIST)
    assert path.name == f"plain-{key}.ckpt"
    assert load_checkpoint_metadata(path) == f"trainer=plain key={key} {numeric_environment()}"


def test_cache_writers_sharing_a_directory_do_not_collide(tmp_path, monkeypatch):
    meta = tiny_meta()
    directory = str(tmp_path / "c")
    real_save = harness.save_checkpoint
    written = []

    def save_then_other_writer_publishes(params, path, metadata=""):
        real_save(params, path, metadata)
        written.append(path)
        if len(written) == 1:
            # another command, training the same key, writes and publishes first
            TrainingCache(directory).get_or_train_all([("plain", meta)], TRAIN_DIST)

    monkeypatch.setattr(harness, "save_checkpoint", save_then_other_writer_publishes)
    (params,) = TrainingCache(directory).get_or_train_all([("plain", meta)], TRAIN_DIST)
    assert len(written) == 2 and written[0] != written[1]
    name = f"plain-{TrainingCache._key('plain', meta, TRAIN_DIST)}.ckpt"
    assert os.listdir(directory) == [name]
    assert np.array_equal(load_checkpoint(os.path.join(directory, name)).to_flat(), params.to_flat())


def test_parallel_jobs_do_not_change_results(tmp_path):
    # 3 seeds in 2 chunks: one chunk trains two seeds in lockstep, the other one
    meta = tiny_meta()
    common = dict(n_seeds=3, horizon=10, n_tasks=1, adapt_alpha=1e-6)
    tables = {
        jobs: (
            compare_methods(
                meta, TRAIN_DIST, ADAPT_DIST, TEST_DIST, sigma_list=[10.0],
                cache=TrainingCache(str(tmp_path / f"c{jobs}")), jobs=jobs, **common,
            ),
            adapt_sweep(
                meta, TRAIN_DIST, ADAPT_DIST, TEST_DIST, adapt_sigmas=[10.0, 30.0],
                test_sigma=10.0, cache=TrainingCache(str(tmp_path / f"s{jobs}")),
                jobs=jobs, **common,
            ),
        )
        for jobs in (1, 2)
    }
    for serial, parallel in zip(tables[1], tables[2]):
        assert serial.to_json_dict() == parallel.to_json_dict()
        for a, b in zip(serial.records, parallel.records):
            assert np.array_equal(a.losses, b.losses)


def test_stacked_evaluation_truncates_one_slice_only(rng):
    calm = random_params(4, rng)
    # a huge projection throws the iterate to infinity at the first step
    wild = replace(calm, w_proj=np.full((1, 4, 1), 1e300))
    stacked = evaluate_groups([EvalGroup(
        [("calm", "k", calm), ("wild", "k", wild), ("calm2", "k", calm)],
        TEST_DIST, 2, RngStream(8).child("test"),
    )], 15)[0]
    alone = evaluate(calm, TEST_DIST, 15, 2, RngStream(8).child("test"))
    by_method = {}
    for r in stacked:
        by_method.setdefault(r.method, []).append(r)
    for r in by_method["wild"]:
        assert r.truncated_at == 1 and r.losses.shape == (1,)
    for method in ("calm", "calm2"):
        for got, want in zip(by_method[method], alone):
            assert got.truncated_at is None
            assert np.array_equal(got.losses, want.losses)
            assert got.task_digest == want.task_digest


def test_stacked_evaluation_keeps_a_stack_that_diverges_all_at_once(rng):
    # every slice turns non-finite at the same step: nothing is left running
    # there, and each record is truncated all the same
    wild = replace(random_params(4, rng), w_proj=np.full((1, 4, 1), 1e300))
    records = evaluate_groups([EvalGroup([("wild", "k", wild)], TEST_DIST, 3,
                                         RngStream(8).child("test"))], 6)[0]
    assert len(records) == 3
    for r in records:
        assert r.truncated_at == 1 and r.losses.shape == (1,)
        assert np.isfinite(r.losses[0])


def test_divergent_method_marks_cell_without_aborting(tmp_path):
    # an absurd adaptation step blows up the fresh-init method; the others
    # must still be evaluated and aggregated normally
    meta = tiny_meta()
    table = compare_methods(
        meta, TRAIN_DIST, ADAPT_DIST, TEST_DIST,
        sigma_list=[10.0], n_seeds=2, horizon=10, n_tasks=1,
        adapt_alpha=1e150,
        cache=TrainingCache(str(tmp_path / "c")),
    )
    vanilla = table.cell(VANILLA, 10.0)
    assert vanilla.n_diverged == 2 and vanilla.n == 0 and math.isnan(vanilla.mean)
    for method in (DT, TL, ML2O):
        cell = table.cell(method, 10.0)
        assert cell.n == 2 and cell.n_diverged == 0
        assert math.isfinite(cell.mean)


def test_chunk_evaluation_matches_per_group_stacks(rng):
    # 3 groups of 3 variants x 5 tasks at dim 4: 180 rows, so the first
    # STACK_ROWS-row stack ends inside the third group, within one variant
    calm = random_params(4, rng)
    wild = replace(calm, w_proj=np.full((1, 4, 1), 1e300))
    variants = [("calm", random_params(4, rng)), ("other", calm), ("wild", wild)]
    groups = [
        EvalGroup([(m, f"{sigma:g}", p) for m, p in variants],
                  replace(TEST_DIST, sigma=sigma), 5, RngStream(seed).child("test"), seed)
        for seed, sigma in ((0, 10.0), (1, 30.0), (2, 10.0))
    ]
    assert STACK_ROWS % (5 * 4) != 0 and len(groups) * 15 * 4 > STACK_ROWS
    together = evaluate_groups(groups, 12)
    for group, got in zip(groups, together):
        fresh = EvalGroup(group.variants, group.dist_test, group.n_tasks,
                          RngStream(group.seed).child("test"), group.seed)
        want = evaluate_groups([fresh], 12)[0]
        assert len(got) == len(want) == 15
        for a, b in zip(got, want):
            assert (a.method, a.key, a.seed, a.task_index) == (b.method, b.key, b.seed, b.task_index)
            assert np.array_equal(a.losses, b.losses)
            assert a.truncated_at == b.truncated_at
            assert (a.task_digest, a.theta0_digest, a.params_digest) == (
                b.task_digest, b.theta0_digest, b.params_digest)
        assert {r.truncated_at for r in got if r.method == "wild"} == {1}
        assert all(r.truncated_at is None for r in got if r.method != "wild")


def test_compare_kernel_call_counts(tmp_path, monkeypatch):
    # every phase of a chunk runs in lockstep: a fallback to per-seed,
    # per-trainer or per-method calls changes these counts
    from ml2o import train, unroll

    reverse, evaluation = [], []

    def counting(real, sizes):
        def patched(params, *args, **kwargs):
            sizes.append(params.size)
            return real(params, *args, **kwargs)
        return patched

    for mod in (train, unroll):
        monkeypatch.setattr(mod, "meta_grad_stack", counting(unroll.meta_grad_stack, reverse))
    monkeypatch.setattr(harness, "unroll_stack", counting(unroll.unroll_stack, evaluation))
    meta = tiny_meta()
    n_seeds, sigmas, n_tasks = 2, [10.0, 30.0], 3
    compare_methods(
        meta, TRAIN_DIST, ADAPT_DIST, TEST_DIST, sigma_list=sigmas, n_seeds=n_seeds,
        horizon=10, n_tasks=n_tasks, adapt_alpha=1e-6, cache=TrainingCache(),
    )
    # per epoch: both trainers' first pass, then ml2o's stepped pass and its
    # finite-difference pair; then per adaptation step one stack of the three
    # adapted methods of every (seed, sigma), whose 48 rows fit in STACK_ROWS
    training = [2 * n_seeds, n_seeds, 2 * n_seeds] * meta.epochs
    slices = n_seeds * len(sigmas) * 3
    assert slices * ADAPT_DIST.dim <= STACK_ROWS
    adaptation = [slices] * meta.adapt_steps
    assert reverse == training + adaptation
    rows = n_seeds * len(sigmas) * 4 * n_tasks * TEST_DIST.dim
    assert len(evaluation) == math.ceil(rows / STACK_ROWS) == 2
    assert sum(evaluation) * TEST_DIST.dim == rows
