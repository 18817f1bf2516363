import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.special import stdtrit

from conftest import child_env, set_curves_head, with_proj
from ml2o import evaluation, store
from ml2o.cell import (
    CheckpointError,
    init_params,
    load_checkpoint,
    load_checkpoint_metadata,
    random_params,
)
from ml2o.config import ExperimentConfig
from ml2o.evaluation import LOG_FLOOR, EvalGroup, RunRecord, evaluate_groups, min_log_loss
from ml2o.harness import (
    DT,
    ML2O,
    TL,
    VANILLA,
    T975,
    ComparisonTable,
    adapt_sweep,
    blend_params,
    compare_methods,
    confidence_interval,
    evaluate,
    interpolate_eval,
    read_comparison_json,
    seed_config,
)
from ml2o.numeric import RngStream, numeric_environment
from ml2o.store import TrainingCache
from ml2o.tasks import (
    LASSO, MIXTURE, NORMAL, QUADRATIC, OptimizeeTask, TaskDistribution, sample_task,
)
from ml2o.train import AdaptGroup, DivergenceError, MetaConfig, adapt, adapt_groups
from ml2o.unroll import (
    DETACHED_INPUT, FD_HVP_META, FIRST_ORDER_META, FULL_SECOND_ORDER, GRAD_MODES, STACK_ROWS,
    TAPE_ROW_STEPS, unroll,
)

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


def experiment(**kw):
    """A comparison of `tiny_meta()` on the tiny distributions; `kw` overrides its fields."""
    base = dict(
        meta=tiny_meta(), dist_train=TRAIN_DIST, dist_adapt=ADAPT_DIST, dist_test=TEST_DIST,
        adapt_alpha=1e-6, adapt_fresh_per_step=True, horizon=10, n_seeds=2, n_tasks=1,
        sigmas=(10.0,), adapt_sigmas=(10.0,), test_sigma=10.0, interp_alphas=(), jobs=1,
    )
    base.update(kw)
    return ExperimentConfig(**base)


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


def test_t_table_is_stdtrit_bit_for_bit():
    assert len(T975) == 100
    for df, t in enumerate(T975, start=1):
        assert t.hex() == float(stdtrit(df, 0.975)).hex()


def test_confidence_interval_equals_the_scipy_formula():
    gen = RngStream(31).gen
    for n in (2, 10, 101, 102):  # 102 is past the table
        x = gen.normal(size=n)
        want = float(stdtrit(n - 1, 0.975) * float(x.std(ddof=1)) / math.sqrt(n))
        assert confidence_interval(x) == (float(x.mean()), want)


TABLE_THEN_FALLBACK = """
import sys
from ml2o.harness import confidence_interval
confidence_interval([0.0, 1.0] * 50 + [2.0])
assert "scipy" not in sys.modules
confidence_interval([0.0, 1.0] * 51)
assert "scipy.special" in sys.modules
"""


def test_only_past_the_table_imports_scipy():
    child = subprocess.run([sys.executable, "-c", TABLE_THEN_FALLBACK], env=child_env(),
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr


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
    table = compare_methods(experiment(meta=meta, horizon=15, n_tasks=2), cache)
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
    table = compare_methods(
        experiment(n_seeds=3, n_tasks=2), TrainingCache(str(tmp_path / "c"))
    )
    shuffled = list(table.records)
    random.Random(9).shuffle(shuffled)
    again = ComparisonTable.from_records(shuffled)
    for c1, c2 in zip(table.cells, again.cells):
        assert (c1.method, c1.key, c1.mean, c1.half_width, c1.n) == (
            c2.method, c2.key, c2.mean, c2.half_width, c2.n
        )


def test_sweep_degenerates_to_comparison_cells(tmp_path):
    cfg = experiment(horizon=12)
    cache = TrainingCache(str(tmp_path / "cache"))
    comp = compare_methods(cfg, cache)
    sweep = adapt_sweep(cfg, cache)
    for method in (TL, ML2O):
        a = comp.cell(method, 10.0)
        b = sweep.cell(method, 10.0)
        assert a.mean == b.mean and a.half_width == b.half_width


def test_interpolation_endpoints_bit_exact(rng):
    w1 = random_params(4, rng)
    w2 = random_params(4, rng)
    cfg = experiment(meta=tiny_meta(seed=3), horizon=15, interp_alphas=(0.0, 0.5, 1.0))
    table = interpolate_eval(cfg, w1, w2)
    out = {key: [r for r in table.records if r.key == key] for key in ("0", "0.5", "1")}
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
    cfg = experiment(meta=tiny_meta(seed=3), interp_alphas=(0.0, 0.25, 1.0))
    table = interpolate_eval(cfg, w, w)
    out = {key: [r for r in table.records if r.key == key] for key in ("0", "0.25", "1")}
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
    table = compare_methods(experiment(), TrainingCache(str(tmp_path / "c")))
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
    assert np.array_equal(p1.flat, p2.flat)
    # the file records the numeric environment it was trained in
    (path,) = (tmp_path / "c").glob("plain-*.ckpt")
    key = TrainingCache._key("plain", meta, TRAIN_DIST)
    assert path.name == f"plain-{key}.ckpt"
    assert load_checkpoint_metadata(path) == f"trainer=plain key={key} {numeric_environment()}"


def test_cache_writers_sharing_a_directory_do_not_collide(tmp_path, monkeypatch):
    meta = tiny_meta()
    directory = str(tmp_path / "c")
    real_save = store.save_checkpoint
    written = []

    def save_then_other_writer_publishes(params, path, metadata=""):
        real_save(params, path, metadata)
        written.append(path)
        if len(written) == 1:
            # another command, training the same key, writes and publishes first
            TrainingCache(directory).get_or_train_all([("plain", meta)], TRAIN_DIST)

    monkeypatch.setattr(store, "save_checkpoint", save_then_other_writer_publishes)
    (params,) = TrainingCache(directory).get_or_train_all([("plain", meta)], TRAIN_DIST)
    assert len(written) == 2 and written[0] != written[1]
    name = f"plain-{TrainingCache._key('plain', meta, TRAIN_DIST)}.ckpt"
    assert os.listdir(directory) == [name]
    assert np.array_equal(load_checkpoint(os.path.join(directory, name)).flat, params.flat)


ADAPT_SETTINGS = dict(
    steps=2, alpha=1e-6, unroll_len=5, grad_mode=FULL_SECOND_ORDER, fresh_task_per_step=True
)


def adapted_key(start, dist=ADAPT_DIST, rng=None, **settings):
    rng = rng or RngStream(4).child("adapt")
    return TrainingCache._adapted_key(start, dist, rng, **{**ADAPT_SETTINGS, **settings})


def test_adapted_key_moves_with_each_input():
    start = random_params(4, RngStream(3))
    keys = [
        adapted_key(start),
        adapted_key(random_params(4, RngStream(5))),
        adapted_key(start, dist=replace(ADAPT_DIST, sigma=30.0)),
        adapted_key(start, rng=RngStream(5).child("adapt")),
        adapted_key(start, steps=3),
        adapted_key(start, alpha=2e-6),
        adapted_key(start, unroll_len=6),
        adapted_key(start, grad_mode=DETACHED_INPUT),
        adapted_key(start, fresh_task_per_step=False),
    ]
    assert len(set(keys)) == len(keys)


def test_adapted_key_is_shared_by_modes_that_adapt_alike():
    # adaptation reads only the trajectory mode: every meta mode adapts as
    # full_second_order does, and shares its key
    start = random_params(4, RngStream(3))
    made = {}
    for mode in GRAD_MODES:
        params = adapt(start, ADAPT_DIST, 2, 1e-6, 5, RngStream(4).child("adapt"), mode)
        made.setdefault(adapted_key(start, grad_mode=mode), set()).add((mode, params.digest()))
    assert {frozenset(m for m, _ in runs) for runs in made.values()} == {
        frozenset((FULL_SECOND_ORDER, FD_HVP_META, FIRST_ORDER_META)), frozenset((DETACHED_INPUT,))
    }
    assert all(len({d for _, d in runs}) == 1 for runs in made.values())


def test_cached_adaptation_is_that_of_adapt_groups(tmp_path):
    # some starts held, one diverging and one asked for by two groups: each
    # result is the one `adapt_groups` gives for the whole groups
    calm, other = random_params(4, RngStream(3)), random_params(4, RngStream(5))
    wild = with_proj(calm, w_proj=1e300)

    def groups():
        return [
            AdaptGroup([calm, wild, other], ADAPT_DIST, RngStream(1).child("adapt")),
            AdaptGroup([other], replace(ADAPT_DIST, sigma=30.0), RngStream(2).child("adapt")),
            AdaptGroup([calm], ADAPT_DIST, RngStream(1).child("adapt")),
        ]

    settings = list(ADAPT_SETTINGS.values())
    want = adapt_groups(groups(), *settings)
    cache = TrainingCache(str(tmp_path / "c"))
    cache.get_or_adapt_all([groups()[0]._replace(starts=[other])], *settings)
    got = TrainingCache(str(tmp_path / "c")).get_or_adapt_all(groups(), *settings)
    assert len(list((tmp_path / "c").iterdir())) == 3  # calm, other and other at sigma 30
    for got_group, want_group in zip(got, want):
        for a, b in zip(got_group, want_group):
            if isinstance(b, DivergenceError):
                assert isinstance(a, DivergenceError) and (a.epoch, a.cause) == (b.epoch, b.cause)
            else:
                assert a.digest() == b.digest()
    assert isinstance(want[0][1], DivergenceError)


def test_cached_adaptation_refuses_a_read_stream(tmp_path):
    # an adapted start is keyed by its stream's key, which reading does not
    # change: a read stream would be adapted on later draws and its weights
    # served, and stored, as those of the fresh stream
    start = random_params(4, RngStream(3))
    settings = list(ADAPT_SETTINGS.values())
    read, twin = RngStream(1).child("adapt"), RngStream(1).child("adapt")
    read.gen.random(), twin.gen.random()
    cache = TrainingCache(str(tmp_path / "c"))
    with pytest.raises(ValueError, match="random stream has been read"):
        cache.get_or_adapt_all([AdaptGroup([start], ADAPT_DIST, read)], *settings)
    assert read.gen.random() == twin.gen.random()  # refused before a draw
    assert os.listdir(tmp_path / "c") == []
    # the fresh stream of that key is adapted as `adapt_groups` adapts it
    ((got,),) = cache.get_or_adapt_all(
        [AdaptGroup([start], ADAPT_DIST, RngStream(1).child("adapt"))], *settings
    )
    ((want,),) = adapt_groups([AdaptGroup([start], ADAPT_DIST, RngStream(1).child("adapt"))], *settings)
    assert got.digest() == want.digest()


def test_parallel_jobs_do_not_change_results(tmp_path):
    # 3 seeds in 2 chunks: one chunk trains two seeds in lockstep, the other one
    tables = {}
    for jobs in (1, 2):
        cfg = experiment(n_seeds=3, adapt_sigmas=(10.0, 30.0), jobs=jobs)
        tables[jobs] = (
            compare_methods(cfg, TrainingCache(str(tmp_path / f"c{jobs}"))),
            adapt_sweep(cfg, TrainingCache(str(tmp_path / f"s{jobs}"))),
        )
    for serial, parallel in zip(tables[1], tables[2]):
        assert serial.to_json_dict() == parallel.to_json_dict()
        for a, b in zip(serial.records, parallel.records):
            assert np.array_equal(a.losses, b.losses)


def test_stacked_evaluation_truncates_one_slice_only(rng):
    calm = random_params(4, rng)
    # a huge projection throws the iterate to infinity at the first step
    wild = with_proj(calm, w_proj=1e300)
    stacked = evaluate_groups([EvalGroup(
        [("calm", "k", calm), ("wild", "k", wild), ("calm2", "k", calm)],
        TEST_DIST, 2, RngStream(8).child("test"),
    )], 15, TrainingCache())[0]
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
    wild = with_proj(random_params(4, rng), w_proj=1e300)
    records = evaluate_groups([EvalGroup([("wild", "k", wild)], TEST_DIST, 3,
                                         RngStream(8).child("test"))], 6, TrainingCache())[0]
    assert len(records) == 3
    for r in records:
        assert r.truncated_at == 1 and r.losses.shape == (1,)
        assert np.isfinite(r.losses[0])


def test_evaluation_files_one_marked_record_per_diverged_variant(rng):
    calm, other = random_params(4, rng), random_params(4, rng)
    dead = DivergenceError(3, calm, "non-finite loss")

    def group(variants, seed=7):
        return EvalGroup(variants, TEST_DIST, 2, RngStream(seed).child("test"), seed)

    all_dead = group([("dead", "k", dead), ("dead2", "k", dead)], seed=8)
    mixed, alone, unevaluated = evaluate_groups([
        group([("calm", "k", calm), ("dead", "k", dead), ("other", "k", other)]),
        group([("calm", "k", calm), ("other", "k", other)]),
        all_dead,
    ], 9, TrainingCache())
    (marked,) = [r for r in mixed if r.method == "dead"]
    assert (marked.key, marked.seed, marked.task_index, marked.losses.size) == ("k", 7, 0, 0)
    assert marked.diverged and math.isnan(marked.min_log_loss)
    assert marked.reason == "seed 7: adaptation step 3: non-finite loss"
    assert marked.curve == "step,loss\n"  # its curve file: the header alone

    def as_bytes(records):
        return [asdict(replace(r, losses=r.losses.tobytes())) for r in records]

    assert as_bytes(r for r in mixed if r.method != "dead") == as_bytes(alone)
    # the all-diverged group is only marked, and drew nothing: its stream is
    # where a fresh one starts
    assert [(r.method, r.diverged) for r in unevaluated] == [("dead", True), ("dead2", True)]
    fresh = RngStream(8).child("test")
    assert sample_task(TEST_DIST, all_dead.rng).digest() == sample_task(TEST_DIST, fresh).digest()


def test_cached_curves_round_trip_a_truncated_curve(tmp_path, monkeypatch, rng):
    # served from the directory, every record is the uncached one, the cut
    # curve of the wild weights included
    calm = random_params(4, rng)
    wild = with_proj(calm, w_proj=1e300)

    def groups():
        return [EvalGroup([("calm", "k", calm), ("wild", "k", wild)], TEST_DIST, 2,
                          RngStream(8).child("test"), 8)]

    def as_bytes(records):
        return [asdict(replace(r, losses=(r.losses.dtype, r.losses.tobytes()))) for r in records]

    want = evaluate_groups(groups(), 15, TrainingCache())[0]
    cold = evaluate_groups(groups(), 15, TrainingCache(str(tmp_path / "c")))[0]
    assert len(list((tmp_path / "c").glob("curves-*.crv"))) == 2

    def refuse(*args, **kwargs):
        raise AssertionError("a cached curve was unrolled")

    monkeypatch.setattr(evaluation, "unroll_stack", refuse)
    warm = evaluate_groups(groups(), 15, TrainingCache(str(tmp_path / "c")))[0]
    assert as_bytes(warm) == as_bytes(cold) == as_bytes(want)
    assert [r.truncated_at for r in warm if r.method == "wild"] == [1, 1]
    assert all(math.isfinite(r.min_log_loss) for r in warm)


def test_curves_file_round_trips_exactly(tmp_path):
    curves = [
        (losses, cut, evaluation.render_curve(losses))
        for losses, cut in [(np.array([1.5, -0.0, 5e-324]), None), (np.empty(0), 0),
                            (np.array([3.0]), 1)]
    ]
    store.save_curves(curves, tmp_path / "c.crv")
    back = store.load_curves(tmp_path / "c.crv")
    assert [(a.dtype, a.tobytes(), cut, text) for a, cut, text in back] == [
        (a.dtype, a.tobytes(), cut, text) for a, cut, text in curves
    ]
    assert [text for _, _, text in back] == ["step,loss\n0,1.5\n1,-0\n2,4.9406564584124654e-324\n",
                                             "step,loss\n", "step,loss\n0,3\n"]


CURVES_KEY = """
from ml2o.cell import random_params
from ml2o.evaluation import EvalGroup
from ml2o.numeric import RngStream
from ml2o.store import TrainingCache
from ml2o.tasks import LASSO, NORMAL, TaskDistribution

dist = TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.005, sigma=10.0)
group = EvalGroup([], dist, 2, RngStream(8).child("test"))
print(TrainingCache.curves_key(random_params(4, RngStream(3)), group, 15))
"""


def test_curves_key_moves_only_with_the_code_that_computes_curves(tmp_path):
    # a byte appended to the store or the protocol keeps every cached curve;
    # one appended to the evaluation moves every curves key
    def key_after_appending(name):
        package = tmp_path / name / "ml2o"
        shutil.copytree(os.path.dirname(store.__file__), package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if name != "none":
            with open(package / name, "ab") as fh:
                fh.write(b"\n")
        child = subprocess.run([sys.executable, "-c", CURVES_KEY],
                               env=dict(child_env(), PYTHONPATH=str(package.parent)),
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        return child.stdout.strip()

    here = TrainingCache.curves_key(
        random_params(4, RngStream(3)), EvalGroup([], TEST_DIST, 2, RngStream(8).child("test")), 15
    )
    assert key_after_appending("none") == here
    assert key_after_appending("store.py") == here
    assert key_after_appending("harness.py") == here
    assert key_after_appending("evaluation.py") != here


@pytest.mark.parametrize("at, values", [
    # int64 sums of these lengths wrap to the true total, 6, and a cut of -7 with them
    (1, (-7, -1, -1, 2**63 - 1, 2**63 - 1, 8)),
    (4, (2**63 - 1, 2**63 - 1, 8)),
    (1, (-7,)),
    (1, (2,)),
    (4, (-1, 4, 3)),
    (4, (2, 3, 1)),  # each text's rows are another curve's losses
    (7, (23, 17)),  # one byte of the second text read as the first's
])
def test_curves_entry_with_wrapping_lengths_or_a_stray_cut_is_refused(tmp_path, at, values):
    path = tmp_path / "c.crv"
    curves = [np.arange(k, dtype=np.float64) for k in (3, 2, 1)]
    store.save_curves([(c, None, evaluation.render_curve(c)) for c in curves], path)
    set_curves_head(path, at, *values)
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: corrupt cached curves: ")):
        store.load_curves(path)


@pytest.mark.parametrize("losses", [
    [], [2.5], [-0.0, 5e-324, 1.7976931348623157e308, 1e16],
    [0.1 * k for k in range(600)],
])
def test_curve_text_is_the_rows_of_a_float_repr(losses):
    # one `t,loss` row per step in `.17g`, which reads back to the same float
    rows = "".join(f"{t},{loss:.17g}\n" for t, loss in enumerate(losses))
    text = evaluation.render_curve(np.array(losses, dtype=np.float64))
    assert text == "step,loss\n" + rows
    assert [float(row.split(",")[1]) for row in text.splitlines()[1:]] == losses


def test_evaluation_groups_refuse_a_shared_stream(rng):
    params = random_params(4, rng)
    shared = RngStream(8).child("test")
    # interleaved draws from one stream would differ from each group's own
    with pytest.raises(ValueError, match="share a random stream"):
        evaluate_groups([EvalGroup([("a", "k", params)], TEST_DIST, 2, shared),
                         EvalGroup([("b", "k", params)], TEST_DIST, 2, shared)], 6,
                        TrainingCache())


def test_evaluation_groups_refuse_a_read_stream(rng):
    # a curve is keyed by its stream's key, which reading does not change:
    # a read stream would be served the curves of draws it never makes
    params = random_params(4, rng)
    read = RngStream(8).child("test")
    assert read.unread()
    read.gen.random()
    assert not read.unread()
    with pytest.raises(ValueError, match="has been read"):
        evaluate_groups([EvalGroup([("a", "k", params)], TEST_DIST, 2, read)], 6, TrainingCache())


def test_divergent_method_marks_cell_without_aborting(tmp_path):
    # an absurd adaptation step blows up the fresh-init method; the others
    # must still be evaluated and aggregated normally
    table = compare_methods(experiment(adapt_alpha=1e150), TrainingCache(str(tmp_path / "c")))
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
    wild = with_proj(calm, w_proj=1e300)
    variants = [("calm", random_params(4, rng)), ("other", calm), ("wild", wild)]
    groups = [
        EvalGroup([(m, f"{sigma:g}", p) for m, p in variants],
                  replace(TEST_DIST, sigma=sigma), 5, RngStream(seed).child("test"), seed)
        for seed, sigma in ((0, 10.0), (1, 30.0), (2, 10.0))
    ]
    assert STACK_ROWS % (5 * 4) != 0 and len(groups) * 15 * 4 > STACK_ROWS
    together = evaluate_groups(groups, 12, TrainingCache())
    for group, got in zip(groups, together):
        fresh = EvalGroup(group.variants, group.dist_test, group.n_tasks,
                          RngStream(group.seed).child("test"), group.seed)
        want = evaluate_groups([fresh], 12, TrainingCache())[0]
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
    monkeypatch.setattr("ml2o.evaluation.unroll_stack", counting(unroll.unroll_stack, evaluation))
    meta = tiny_meta()
    n_seeds, sigmas, n_tasks = 2, (10.0, 30.0), 3
    compare_methods(
        experiment(meta=meta, n_seeds=n_seeds, n_tasks=n_tasks, sigmas=sigmas), TrainingCache()
    )
    # per epoch: both trainers' first pass, then ml2o's stepped pass and its
    # finite-difference pair; then per adaptation step one stack of the three
    # adapted methods of every (seed, sigma), whose 240 taped row-steps fit in
    # TAPE_ROW_STEPS
    training = [2 * n_seeds, n_seeds, 2 * n_seeds] * meta.epochs
    slices = n_seeds * len(sigmas) * 3
    assert slices * ADAPT_DIST.dim * meta.unroll_len <= TAPE_ROW_STEPS
    adaptation = [slices] * meta.adapt_steps
    assert reverse == training + adaptation
    rows = n_seeds * len(sigmas) * 4 * n_tasks * TEST_DIST.dim
    assert len(evaluation) == math.ceil(rows / STACK_ROWS) == 2
    assert sum(evaluation) * TEST_DIST.dim == rows
