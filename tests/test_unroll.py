import numpy as np
import pytest

from conftest import make_quadratic, rel_error
from dataclasses import replace

from ml2o.cell import ParamStack, init_params, random_params
from ml2o.numeric import RngStream, central_diff
from ml2o.tasks import QUADRATIC, OptimizeeTask, TaskDistribution, TaskStack, sample_task, sample_theta0
from ml2o.unroll import (
    DETACHED_INPUT,
    FD_HVP_META,
    FIRST_ORDER_META,
    FULL_SECOND_ORDER,
    NonFiniteGradientError,
    StackResult,
    UnrollDivergedError,
    jacobian_recursive,
    maml_grad,
    maml_objective,
    maml_parts_stack,
    meta_grad,
    meta_grad_stack,
    meta_grad_with_result,
    unroll,
)


def test_unroll_zero_horizon(rng):
    task = make_quadratic(rng, 3)
    params = random_params(4, rng)
    theta0 = rng.gen.normal(size=3)
    res = unroll(params, task, theta0, 0)
    assert np.array_equal(res.theta_final, theta0)
    assert res.losses.shape == (1,)
    assert res.final_loss == task.loss(theta0)


def test_unroll_zero_projection_is_constant(rng):
    task = make_quadratic(rng, 3)
    params = init_params(4, rng)
    theta0 = rng.gen.normal(size=3)
    res = unroll(params, task, theta0, 10)
    assert np.array_equal(res.theta_final, theta0)
    assert np.all(res.losses == res.losses[0])
    assert res.losses.shape == (11,)


def test_unroll_curve_length_and_finiteness(rng):
    task = make_quadratic(rng, 4)
    params = random_params(5, rng)
    res = unroll(params, task, rng.gen.normal(size=4), 17)
    assert res.losses.shape == (18,)
    assert np.all(np.isfinite(res.losses))


def test_unroll_reports_divergence_step():
    huge = OptimizeeTask(
        kind=QUADRATIC, dim=2, a=np.full((2, 2), 1e160), b=np.zeros(2)
    )
    params = random_params(4, RngStream(0).child("p"), proj_scale=2.0)
    theta0 = np.full(2, 1e-12)
    with pytest.raises(UnrollDivergedError) as err:
        unroll(params, huge, theta0, 5)
    assert err.value.step >= 1
    res = unroll(params, huge, theta0, 5, truncate_nonfinite=True)
    assert res.truncated_at == err.value.step
    assert res.losses.shape == (err.value.step,)


def test_meta_grad_matches_finite_differences(rng):
    for _ in range(5):
        task = make_quadratic(rng, 3)
        params = random_params(4, rng)
        theta0 = rng.gen.normal(size=3)
        g = meta_grad(params, task, theta0, 5)
        fd = central_diff(
            lambda f: unroll(params.with_flat(f), task, theta0, 5).final_loss, params.to_flat(), 1e-5
        )
        assert rel_error(g, fd) <= 1e-4


def test_meta_grad_zero_projection_structure(rng):
    task = make_quadratic(rng, 3)
    params = init_params(4, rng)
    g = meta_grad(params, task, rng.gen.normal(size=3), 5)
    layout_split = params.w.size + params.b.size
    assert np.all(g[:layout_split] == 0.0)  # gates never reach the loss
    assert np.any(g[layout_split:] != 0.0)  # projection does


def test_full_and_detached_modes_differ(rng):
    task = make_quadratic(rng, 3)
    params = random_params(4, rng)
    theta0 = rng.gen.normal(size=3)
    g_full = meta_grad(params, task, theta0, 5, FULL_SECOND_ORDER)
    g_det = meta_grad(params, task, theta0, 5, DETACHED_INPUT)
    assert np.linalg.norm(g_full - g_det) > 0.0


def test_meta_grad_rejects_meta_modes(rng):
    task = make_quadratic(rng, 3)
    params = random_params(4, rng)
    with pytest.raises(ValueError):
        meta_grad(params, task, np.zeros(3), 5, FD_HVP_META)


def test_maml_objective_alpha_zero_is_plain_loss(rng):
    task = make_quadratic(rng, 3)
    params = random_params(4, rng)
    theta0 = rng.gen.normal(size=3)
    assert maml_objective(params, task, theta0, 5, 0.0) == unroll(
        params, task, theta0, 5
    ).final_loss


def test_maml_grad_alpha_zero_equals_meta_grad_bitwise(rng):
    task = make_quadratic(rng, 3)
    params = random_params(4, rng)
    theta0 = rng.gen.normal(size=3)
    for mode in (FIRST_ORDER_META, FD_HVP_META):
        assert np.array_equal(
            maml_grad(params, task, theta0, 5, 0.0, mode),
            meta_grad(params, task, theta0, 5),
        )


def test_maml_grad_fd_hvp_matches_objective_finite_differences(rng):
    for _ in range(3):
        task = make_quadratic(rng, 3)
        params = random_params(4, rng)
        theta0 = rng.gen.normal(size=3)
        alpha = 0.01
        g = maml_grad(params, task, theta0, 5, alpha, FD_HVP_META)
        fd = central_diff(
            lambda f: maml_objective(params.with_flat(f), task, theta0, 5, alpha),
            params.to_flat(),
            1e-5,
        )
        assert rel_error(g, fd) <= 1e-3


def test_first_order_and_fd_hvp_agree_as_alpha_vanishes(rng):
    task = make_quadratic(rng, 3)
    params = random_params(4, rng)
    theta0 = rng.gen.normal(size=3)
    diffs = []
    for alpha in (1e-3, 1e-4):
        fo = maml_grad(params, task, theta0, 5, alpha, FIRST_ORDER_META)
        fd = maml_grad(params, task, theta0, 5, alpha, FD_HVP_META)
        diffs.append(np.linalg.norm(fo - fd))
    ratio = diffs[0] / diffs[1]
    assert 5.0 <= ratio <= 20.0  # the gap scales linearly with alpha


def test_jacobian_recursive_base_case(rng):
    task = make_quadratic(rng, 2)
    params = random_params(3, rng)
    jac = jacobian_recursive(params, task, rng.gen.normal(size=2), 0)
    assert jac.shape == (2, params.layout.size)
    assert np.all(jac == 0.0)


def test_jacobian_recursive_matches_fd_columns(rng):
    task = make_quadratic(rng, 2)
    params = random_params(3, rng)
    theta0 = rng.gen.normal(size=2)
    jac = jacobian_recursive(params, task, theta0, 3)
    fd = central_diff(
        lambda f: unroll(params.with_flat(f), task, theta0, 3).theta_final, params.to_flat(), 1e-5
    )
    assert fd.shape == jac.shape
    assert np.linalg.norm(jac - fd) / max(np.linalg.norm(fd), 1e-300) <= 1e-5


def test_jacobian_chain_rule_reproduces_meta_grad(rng):
    for _ in range(5):
        task = make_quadratic(rng, 2)
        params = random_params(3, rng)
        theta0 = rng.gen.normal(size=2)
        jac = jacobian_recursive(params, task, theta0, 3)
        res = unroll(params, task, theta0, 3)
        chained = jac.T @ task.grad(res.theta_final)
        direct = meta_grad(params, task, theta0, 3)
        assert rel_error(chained, direct) <= 1e-8


def test_jacobian_guards_against_large_instances(rng):
    task = make_quadratic(rng, 10)
    params = random_params(20, rng)
    with pytest.raises(ValueError, match="too large"):
        jacobian_recursive(params, task, np.zeros(10), 3)


def test_gradients_are_replay_deterministic(rng):
    task = make_quadratic(rng, 3)
    params = random_params(4, rng)
    theta0 = rng.gen.normal(size=3)
    assert np.array_equal(
        meta_grad(params, task, theta0, 7), meta_grad(params, task, theta0, 7)
    )


def test_long_horizon_gradient_is_tractable(rng):
    task = make_quadratic(rng, 10)
    params = random_params(20, rng)
    theta0 = rng.gen.normal(size=10)
    g, res = meta_grad_with_result(params, task, theta0, 1000)
    assert np.all(np.isfinite(g))
    assert res.losses.shape == (1001,)


STACK_DISTS = {
    "lasso": TaskDistribution(kind="normal", family="lasso", dim=4, lam=0.05, sigma=1.0),
    "quadratic": TaskDistribution(kind="normal", family="quadratic", dim=3, sigma=1.0),
    "rosenbrock": TaskDistribution(kind="rosenbrock"),
}


@pytest.mark.parametrize("family", sorted(STACK_DISTS))
@pytest.mark.parametrize("size", [1, 2, 5])
def test_stacked_kernel_slices_match_lone_runs(family, size):
    dist = STACK_DISTS[family]
    rng = RngStream(4242).child(f"{family}/{size}")
    tasks = [sample_task(dist, rng) for _ in range(size)]
    theta0 = np.stack([sample_theta0(dist, rng) for _ in range(size)])
    params = [random_params(4, rng.child(f"p/{i}")) for i in range(size)]
    stack = ParamStack.of(params)
    grads, res = meta_grad_stack(stack, TaskStack(tasks), theta0, 8)
    maml, _, values = maml_parts_stack(stack, TaskStack(tasks), theta0, 6, 1e-2, FD_HVP_META, None)
    for i in range(size):
        lone = params[i], TaskStack([tasks[i]]), theta0[i : i + 1]
        g_i, res_i = meta_grad_stack(*lone, 8)
        assert np.array_equal(grads[i], g_i[0])
        assert np.array_equal(res.losses[:, i], res_i.losses[:, 0])
        assert np.array_equal(res.theta_final[i], res_i.theta_final[0])
        m_i, _, v_i = maml_parts_stack(*lone, 6, 1e-2, FD_HVP_META, None)
        assert np.array_equal(maml[i], m_i[0]) and values[i] == v_i[0]
        # and the single-trajectory entry points are B=1 calls of the same kernel
        g_one, r_one = meta_grad_with_result(params[i], tasks[i], theta0[i], 8)
        assert np.array_equal(g_one, grads[i])
        assert np.array_equal(r_one.losses, res.losses[:, i])


def test_diverging_slices_run_on_and_report_what_aborting_raised(rng):
    # slice 2 starts non-finite, slice 1 is thrown to infinity by its first
    # update, slice 0 stays finite and is computed as it is alone
    tasks = [make_quadratic(rng, 3) for _ in range(3)]
    calm = random_params(4, rng)
    wild = replace(calm, w_proj=np.full((1, 4, 1), 1e300))
    theta0 = rng.gen.normal(size=(3, 3))
    theta0[2] = np.nan
    grads, res = meta_grad_stack(ParamStack.of([calm, wild, wild]), TaskStack(tasks), theta0, 6)
    assert res.truncated_at == (None, 1, 0)
    # a truncated slice's final iterate is the one its first non-finite loss was taken at
    cut = unroll(wild, tasks[1], theta0[1], 6, truncate_nonfinite=True)
    assert cut.truncated_at == 1 and np.array_equal(res.theta_final[1], cut.theta_final)
    assert np.isnan(res.theta_final[2]).all()
    first = res.failure()
    assert isinstance(first, UnrollDivergedError) and (first.step, first.index) == (0, 2)
    assert (res.failure(1).step, res.failure(1).index) == (1, 1)
    assert res.failure(0) is None
    g_alone, res_alone = meta_grad_stack(calm, TaskStack(tasks[:1]), theta0[:1], 6)
    assert np.array_equal(grads[0], g_alone[0])
    assert np.array_equal(res.losses[:, 0], res_alone.losses[:, 0])
    with pytest.raises(UnrollDivergedError, match="at unroll step 1"):
        meta_grad_with_result(wild, tasks[1], theta0[1], 6)

    # with every loss finite, the first non-finite gradient entry in flat order
    bad = np.zeros_like(grads)
    bad[2, 0] = bad[1, calm.layout.proj_base] = np.inf
    res = StackResult(theta0, np.zeros((7, 3)), grads=bad, layout=calm.layout)
    first = res.failure()
    assert isinstance(first, NonFiniteGradientError) and (first.block, first.index) == ("w_proj", 1)
    assert (res.failure(2).block, res.failure(2).index) == ("W_input", 2)
    assert res.failure(0) is None
