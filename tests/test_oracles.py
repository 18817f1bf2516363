"""Metamorphic relations of the unrolled optimizer, which hold in every numeric environment.

The cell applies the same weights to every coordinate of the iterate
(Andrychowicz et al. 2016, arXiv 1606.04474), and a task enters the unroll
only through its gradient.  So on lasso and quadratic tasks:

* permuting the coordinates (A's columns and theta0's entries) permutes the
  iterates and leaves the losses and the weight gradients as they were;
* translating a quadratic (b -> b - A delta, theta0 -> theta0 - delta)
  shifts every iterate by -delta and leaves the losses and gradients as
  they were;
* permuting the slices of a stack permutes every output bit for bit, since
  slices never read each other.

The first two move the order of sums, so they hold to rounding and are
asserted as max|got - want| / max|want| <= 1e-12 per slice.  Unlike a byte
pin, none of the three depends on the SIMD dispatch, the BLAS kernel or the
summation order the kernel happens to use.
"""

from dataclasses import replace

import numpy as np
import pytest

from ml2o.cell import ParamStack, random_params
from ml2o.numeric import RngStream
from ml2o.tasks import LASSO, MIXTURE, NORMAL, QUADRATIC, TaskDistribution, TaskStack, sample_task, sample_theta0
from ml2o.unroll import (
    DETACHED_INPUT,
    FD_HVP_META,
    FIRST_ORDER_META,
    FULL_SECOND_ORDER,
    maml_parts_stack,
    meta_grad_stack,
    unroll_stack,
)

DIM, HIDDEN, DRAWS = 10, 20, 20
UNROLL_T, META_T = 50, 20
ALPHA = 1e-3  # lasso_desk's inner step
TOL = 1e-12

DISTS = {
    LASSO: TaskDistribution(kind=MIXTURE, family=LASSO, dim=DIM, lam=0.005),
    QUADRATIC: TaskDistribution(kind=NORMAL, family=QUADRATIC, dim=DIM, sigma=1.0),
}
# `unroll_stack`, `meta_grad_stack` in each trajectory mode, `maml_parts_stack` in each meta mode
KERNELS = ["unroll", FULL_SECOND_ORDER, DETACHED_INPUT, FIRST_ORDER_META, FD_HVP_META]


def draws(family: str):
    """DRAWS slices of (weights, task, theta0), and a random draw per slice for the relation."""
    dist = DISTS[family]
    rng = RngStream(12).child(family)
    params = ParamStack.of([random_params(HIDDEN, rng.child(f"p/{i}")) for i in range(DRAWS)])
    tasks = [sample_task(dist, rng) for _ in range(DRAWS)]
    theta0 = np.stack([sample_theta0(dist, rng) for _ in range(DRAWS)])
    return params, tasks, theta0, rng.child("relation")


def run(kernel: str, params: ParamStack, tasks: list, theta0: np.ndarray, alpha=ALPHA):
    """(final iterates, {name: output}), every array with the slices on its first axis."""
    stack = TaskStack(tasks)
    if kernel == "unroll":
        res = unroll_stack(params, stack, theta0, UNROLL_T)
        return res.theta_final, {"losses": res.losses.T}
    if kernel in (FULL_SECOND_ORDER, DETACHED_INPUT):
        res = meta_grad_stack(params, stack, theta0, META_T, kernel)
        return res.theta_final, {"losses": res.losses.T, "grads": res.grads}
    grads, res, values = maml_parts_stack(params, stack, theta0, META_T, alpha, kernel, None)
    return res.theta_final, {"losses": res.losses.T, "grads": grads, "values": values[:, None]}


def rel_gap(got: np.ndarray, want: np.ndarray) -> float:
    """The largest max|got - want| / max|want| over the slices."""
    assert np.isfinite(want).all()
    diff = np.abs(got - want).max(axis=1)
    return float((diff / np.abs(want).max(axis=1)).max())


def assert_relation(kernel, params, tasks, theta0, moved_tasks, moved_theta0, expect_iterates):
    """The moved problem's outputs equal the original's, and its iterates `expect_iterates` of them."""
    iterates, outs = run(kernel, params, tasks, theta0)
    got_iterates, got = run(kernel, params, moved_tasks, moved_theta0)
    assert rel_gap(got_iterates, expect_iterates(iterates)) <= TOL
    for name, want in outs.items():
        assert rel_gap(got[name], want) <= TOL, name


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("family", sorted(DISTS))
def test_coordinate_permutation_permutes_the_iterates(family, kernel):
    params, tasks, theta0, rng = draws(family)
    perms = np.stack([rng.gen.permutation(DIM) for _ in range(DRAWS)])
    moved = [replace(t, a=t.a[:, p]) for t, p in zip(tasks, perms)]
    assert_relation(
        kernel, params, tasks, theta0, moved, np.take_along_axis(theta0, perms, axis=1),
        lambda iterates: np.take_along_axis(iterates, perms, axis=1),
    )


@pytest.mark.parametrize("kernel", KERNELS)
def test_translating_a_quadratic_shifts_the_iterates(kernel):
    params, tasks, theta0, rng = draws(QUADRATIC)
    deltas = rng.gen.normal(size=(DRAWS, DIM))
    moved = [replace(t, b=t.b - t.a @ d) for t, d in zip(tasks, deltas)]
    assert_relation(
        kernel, params, tasks, theta0, moved, theta0 - deltas, lambda iterates: iterates - deltas
    )


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("family", sorted(DISTS))
def test_slice_permutation_permutes_every_output_bit_for_bit(family, kernel):
    params, tasks, theta0, rng = draws(family)
    order = rng.gen.permutation(DRAWS)
    # every third slice at alpha 0 skips the stepped pass and the pair
    alpha = np.where(np.arange(DRAWS) % 3 == 0, 0.0, ALPHA)
    iterates, outs = run(kernel, params, tasks, theta0, alpha)
    got_iterates, got = run(
        kernel, ParamStack(params.flat[order], params.hidden), [tasks[i] for i in order],
        theta0[order], alpha[order],
    )
    assert got_iterates.tobytes() == iterates[order].tobytes()
    for name, want in outs.items():
        assert got[name].tobytes() == want[order].tobytes(), name
