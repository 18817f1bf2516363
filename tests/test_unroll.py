import numpy as np
import pytest

import pins
from conftest import make_quadratic, rel_error, with_proj

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
    unroll_stack,
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
    res = unroll_stack(params, TaskStack([huge]), theta0[None], 5).trajectory(0)
    assert res.truncated_at == err.value.step
    assert res.losses.shape == (err.value.step,)


def test_meta_grad_matches_finite_differences(rng):
    for _ in range(5):
        task = make_quadratic(rng, 3)
        params = random_params(4, rng)
        theta0 = rng.gen.normal(size=3)
        g = meta_grad(params, task, theta0, 5)
        fd = central_diff(
            lambda f: unroll(ParamStack(f, params.hidden), task, theta0, 5).final_loss, params.flat, 1e-5
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


def test_maml_objective_and_grad_refuse_a_bad_inner_step(rng):
    # a NaN step is bad input, not a diverging unroll
    task = make_quadratic(rng, 3)
    params = random_params(4, rng)
    theta0 = rng.gen.normal(size=3)
    for alpha in (-1e-3, float("nan")):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            maml_objective(params, task, theta0, 5, alpha)
        for mode in (FIRST_ORDER_META, FD_HVP_META):
            with pytest.raises(ValueError, match="alpha must be >= 0"):
                maml_grad(params, task, theta0, 5, alpha, mode)


def test_maml_parts_failure_names_the_input_slice(rng):
    # slice 0 takes no inner step; slice 1, the only stepped slice, diverges
    # at its stepped weights
    tasks = TaskStack([make_quadratic(rng, 3) for _ in range(2)])
    stack = ParamStack.of([random_params(4, rng) for _ in range(2)])
    theta0 = rng.gen.normal(size=(2, 3))
    alphas = np.array([0.0, 1e300])
    with pytest.raises((UnrollDivergedError, NonFiniteGradientError)) as err:
        maml_parts_stack(stack, tasks, theta0, 5, alphas, FD_HVP_META, None)
    assert err.value.index == 1


def test_maml_grad_fd_hvp_matches_objective_finite_differences(rng):
    for _ in range(3):
        task = make_quadratic(rng, 3)
        params = random_params(4, rng)
        theta0 = rng.gen.normal(size=3)
        alpha = 0.01
        g = maml_grad(params, task, theta0, 5, alpha, FD_HVP_META)
        fd = central_diff(
            lambda f: maml_objective(ParamStack(f, params.hidden), task, theta0, 5, alpha),
            params.flat,
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
        lambda f: unroll(ParamStack(f, params.hidden), task, theta0, 3).theta_final, params.flat, 1e-5
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


@pytest.mark.pinned
@pytest.mark.parametrize("family", ["quadratic", "rosenbrock"])
def test_jacobian_recursive_bytes_are_pinned(family):
    dist = STACK_DISTS[family]
    rng = RngStream(59).child(family)
    task = sample_task(dist, rng)
    theta0 = sample_theta0(dist, rng)
    params = random_params(4, rng.child("p"))
    jac = jacobian_recursive(params, task, theta0, 6)
    assert jac.shape == (dist.dim, params.layout.size)
    assert pins.digest(jac, size=8) == pins.JACOBIAN_DIGESTS[family]


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
    res = meta_grad_stack(stack, TaskStack(tasks), theta0, 8)
    grads = res.grads
    maml, _, values = maml_parts_stack(stack, TaskStack(tasks), theta0, 6, 1e-2, FD_HVP_META, None)
    # a per-slice inner step: slices at 0 skip the stepped pass and the pair
    alphas = np.where(np.arange(size) % 2, 0.0, 1e-2)
    mixed, _, mixed_values = maml_parts_stack(
        stack, TaskStack(tasks), theta0, 6, alphas, FD_HVP_META, None
    )
    for i in range(size):
        lone = params[i], TaskStack([tasks[i]]), theta0[i : i + 1]
        res_i = meta_grad_stack(*lone, 8)
        g_i = res_i.grads
        assert np.array_equal(grads[i], g_i[0])
        assert np.array_equal(res.losses[:, i], res_i.losses[:, 0])
        assert np.array_equal(res.theta_final[i], res_i.theta_final[0])
        m_i, _, v_i = maml_parts_stack(*lone, 6, 1e-2, FD_HVP_META, None)
        assert np.array_equal(maml[i], m_i[0]) and values[i] == v_i[0]
        m_i, _, v_i = maml_parts_stack(*lone, 6, alphas[i], FD_HVP_META, None)
        assert np.array_equal(mixed[i], m_i[0]) and mixed_values[i] == v_i[0]
        # and the single-trajectory entry points are B=1 calls of the same kernel
        g_one, r_one = meta_grad_with_result(params[i], tasks[i], theta0[i], 8)
        assert np.array_equal(g_one, grads[i])
        assert np.array_equal(r_one.losses, res.losses[:, i])


def test_diverging_slices_run_on_and_report_what_aborting_raised(rng):
    # slice 2 starts non-finite, slice 1 is thrown to infinity by its first
    # update, slice 0 stays finite and is computed as it is alone
    tasks = [make_quadratic(rng, 3) for _ in range(3)]
    calm = random_params(4, rng)
    wild = with_proj(calm, w_proj=1e300)
    theta0 = rng.gen.normal(size=(3, 3))
    theta0[2] = np.nan
    res = meta_grad_stack(ParamStack.of([calm, wild, wild]), TaskStack(tasks), theta0, 6)
    grads = res.grads
    assert res.truncated_at == (None, 1, 0)
    # a truncated slice's final iterate is the one its first non-finite loss was taken at
    cut = unroll_stack(wild, TaskStack(tasks[1:2]), theta0[1:2], 6).trajectory(0)
    assert cut.truncated_at == 1 and np.array_equal(res.theta_final[1], cut.theta_final)
    assert np.isnan(res.theta_final[2]).all()
    first = res.failure()
    assert isinstance(first, UnrollDivergedError) and (first.step, first.index) == (0, 2)
    assert (res.failure(1).step, res.failure(1).index) == (1, 1)
    assert res.failure(0) is None
    res_alone = meta_grad_stack(calm, TaskStack(tasks[:1]), theta0[:1], 6)
    assert np.array_equal(grads[0], res_alone.grads[0])
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


# (distribution, constant update of the diverging slice); at dim 1 the update
# is divided by the lone coefficient |a|, whose draw sets the overflow step
KERNEL_DISTS = {
    "lasso": (TaskDistribution(kind="mixture", family="lasso", dim=10, lam=0.005), 2e154),
    "lasso-d1": (TaskDistribution(kind="mixture", family="lasso", dim=1, lam=0.005), 2e155),
    "lasso-d7": (TaskDistribution(kind="mixture", family="lasso", dim=7, lam=0.005), 5e154),
    "quadratic": (TaskDistribution(kind="mixture", family="quadratic", dim=10), 2e154),
    "rosenbrock": (TaskDistribution(kind="rosenbrock"), 5e77),
}


@pytest.mark.pinned
@pytest.mark.parametrize("family", sorted(KERNEL_DISTS))
@pytest.mark.parametrize("size", [1, 2, 4, 12])
def test_kernel_bytes_are_pinned(family, size):
    # a reordered sum or product anywhere in the forward or the reverse sweep
    # moves a digest; so does a change to what a diverging slice computes
    dist, blowup = KERNEL_DISTS[family]
    rng = RngStream(77).child(f"{family}/{size}")
    params = [random_params(20, rng.child(f"p/{i}")) for i in range(size)]
    tasks = TaskStack([sample_task(dist, rng) for _ in range(size)])
    theta0 = np.stack([sample_theta0(dist, rng) for _ in range(size)])
    if size > 1:
        # the last slice's large constant update overflows its loss mid-horizon
        if dist.dim == 1:
            blowup /= abs(tasks.a[-1, 0, 0])
        params[-1] = with_proj(params[-1], b_proj=blowup)
    stack = ParamStack.of(params)
    got = []
    for mode in (FULL_SECOND_ORDER, DETACHED_INPUT):
        res = meta_grad_stack(stack, tasks, theta0, 12, mode)
        cut = res.truncated_at or (None,) * size
        assert cut[:-1] == (None,) * (size - 1)
        assert cut[-1] is None if size == 1 else 3 <= cut[-1] <= 9
        got.append(pins.digest(res.grads, res.losses, res.theta_final, res.truncated_at, size=8))
    res = unroll_stack(stack, tasks, theta0, 12)
    got.append(pins.digest(res.losses, res.theta_final, res.truncated_at, size=8))
    # the finite-difference pair of the finite slices magnifies a last-bit change
    rows = list(range(max(size - 1, 1)))
    grads, _, values = maml_parts_stack(
        ParamStack(stack.flat[rows], stack.hidden), tasks.take(rows), theta0[rows], 12, 1e-3, FD_HVP_META, None
    )
    got.append(pins.digest(grads, values, size=8))
    assert tuple(got) == pins.KERNEL_DIGESTS[family, size]
