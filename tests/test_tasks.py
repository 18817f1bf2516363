import math

import numpy as np
import pytest

import pins
from conftest import make_quadratic
from ml2o.numeric import RngStream, central_diff
from ml2o.tasks import (
    LASSO,
    MIXTURE,
    NORMAL,
    QUADRATIC,
    ROSENBROCK,
    ROSENBROCK_INIT,
    TRAIN_MIXTURE_RANGES,
    OptimizeeTask,
    TaskDistribution,
    TaskStack,
    sample_task,
    sample_theta0,
)


def test_lasso_at_origin(rng):
    t = OptimizeeTask(
        kind=LASSO, dim=3, a=rng.gen.normal(size=(3, 3)), b=rng.gen.normal(size=3), lam=0.1
    )
    loss, grad = t.loss_grad(np.zeros(3))
    assert loss == pytest.approx(0.5 * float(t.b @ t.b))
    assert np.allclose(grad, -t.a.T @ t.b)


def test_lasso_identity_closed_form():
    t = OptimizeeTask(kind=LASSO, dim=2, a=np.eye(2), b=np.zeros(2), lam=0.005)
    loss, grad = t.loss_grad(np.array([1.0, 1.0]))
    assert loss == pytest.approx(1.01)
    assert np.allclose(grad, [1.005, 1.005])


def test_quadratic_minimum_and_unit_case():
    t0 = OptimizeeTask(kind=QUADRATIC, dim=2, a=np.eye(2), b=np.zeros(2))
    loss, grad = t0.loss_grad(np.zeros(2))
    assert loss == 0.0 and np.array_equal(grad, np.zeros(2))

    t1 = OptimizeeTask(kind=QUADRATIC, dim=2, a=np.eye(2), b=np.ones(2))
    loss, grad = t1.loss_grad(np.zeros(2))
    assert loss == pytest.approx(1.0)
    assert np.allclose(grad, [-1.0, -1.0])


def test_quadratic_gradient_matches_finite_differences(rng):
    for _ in range(50):
        t = make_quadratic(rng, int(rng.gen.integers(2, 7)))
        theta = rng.gen.normal(size=t.dim)
        _, grad = t.loss_grad(theta)
        fd = central_diff(t.loss, theta, 1e-6)
        assert np.linalg.norm(grad - fd) <= 1e-7 * max(np.linalg.norm(fd), 1.0)


def test_lasso_gradient_matches_fd_away_from_kinks(rng):
    for _ in range(50):
        d = int(rng.gen.integers(2, 6))
        t = OptimizeeTask(
            kind=LASSO, dim=d, a=rng.gen.normal(size=(d, d)), b=rng.gen.normal(size=d), lam=0.005
        )
        theta = rng.gen.normal(size=d)
        theta[np.abs(theta) < 1e-3] = 0.5  # keep clear of the l1 kink
        _, grad = t.loss_grad(theta)
        fd = central_diff(t.loss, theta, 1e-6)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1.0)


def test_rosenbrock_minimum_and_origin():
    t = OptimizeeTask(kind=ROSENBROCK, dim=2)
    loss, grad = t.loss_grad(np.array([1.0, 1.0]))
    assert loss == 0.0 and np.array_equal(grad, np.zeros(2))
    loss, grad = t.loss_grad(np.zeros(2))
    assert loss == 1.0
    assert np.array_equal(grad, np.array([-2.0, 0.0]))


def test_rosenbrock_gradient_matches_fd(rng):
    t = OptimizeeTask(kind=ROSENBROCK, dim=2)
    for _ in range(50):
        theta = rng.gen.uniform(-2, 2, size=2)
        _, grad = t.loss_grad(theta)
        fd = central_diff(t.loss, theta, 1e-6)
        assert np.linalg.norm(grad - fd) <= 1e-7 * max(np.linalg.norm(fd), 1.0)


def test_rosenbrock_strictly_positive_off_minimum():
    t = OptimizeeTask(kind=ROSENBROCK, dim=2)
    for x in np.linspace(-2, 2, 9):
        for y in np.linspace(-1, 3, 9):
            if (x, y) != (1.0, 1.0):
                assert t.loss(np.array([x, y])) > 0.0


def test_rosenbrock_rejects_wrong_dim():
    with pytest.raises(ValueError):
        OptimizeeTask(kind=ROSENBROCK, dim=3)
    t = OptimizeeTask(kind=ROSENBROCK, dim=2)
    with pytest.raises(ValueError):
        t.loss(np.zeros(3))


def test_hvp_identity_hessian():
    t = OptimizeeTask(kind=QUADRATIC, dim=3, a=np.eye(3), b=np.zeros(3))
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(t.hvp(np.ones(3), v), v)


def test_hvp_rosenbrock_at_minimum():
    t = OptimizeeTask(kind=ROSENBROCK, dim=2)
    got = t.hvp(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
    assert np.allclose(got, [802.0, -400.0])


def test_hvp_matches_directional_finite_difference(rng):
    eps = 1e-6
    tasks = [make_quadratic(rng, 4), OptimizeeTask(kind=ROSENBROCK, dim=2)]
    for t in tasks:
        for _ in range(20):
            theta = rng.gen.normal(size=t.dim)
            v = rng.gen.normal(size=t.dim)
            fd = (t.grad(theta + eps * v) - t.grad(theta - eps * v)) / (2 * eps)
            hv = t.hvp(theta, v)
            assert np.linalg.norm(hv - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)


def test_hvp_is_symmetric_operator(rng):
    for _ in range(30):
        t = make_quadratic(rng, 5)
        theta = rng.gen.normal(size=5)
        u = rng.gen.normal(size=5)
        v = rng.gen.normal(size=5)
        left = float(v @ t.hvp(theta, u))
        right = float(u @ t.hvp(theta, v))
        assert abs(left - right) <= 1e-10 * max(abs(left), 1.0)


HVP_BLOCK_DISTS = {
    "lasso": TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.05, sigma=1.0),
    "quadratic": TaskDistribution(kind=NORMAL, family=QUADRATIC, dim=3, sigma=1.0),
    "rosenbrock": TaskDistribution(kind=ROSENBROCK_INIT),
}


@pytest.mark.pinned
@pytest.mark.parametrize("family", sorted(HVP_BLOCK_DISTS))
def test_hvp_on_a_column_block(family):
    dist = HVP_BLOCK_DISTS[family]
    rng = RngStream(31).child(family)
    task = sample_task(dist, rng)
    theta = sample_theta0(dist, rng)
    block = rng.gen.normal(size=(dist.dim, 7))
    got = task.hvp(theta, block)
    assert got.shape == block.shape
    assert pins.digest(got, size=8) == pins.HVP_BLOCK_DIGESTS[family]
    # one product per block, one per column: the same values, not the same bits
    cols = np.stack([task.hvp(theta, block[:, j]) for j in range(block.shape[1])], axis=1)
    assert np.linalg.norm(got - cols) <= 1e-12 * np.linalg.norm(cols)
    d = dist.dim
    for bad in (np.zeros(d + 1), np.zeros((d + 1, 2)), np.zeros((d, 2, 1)), np.zeros(())):
        with pytest.raises(ValueError, match="v has shape"):
            task.hvp(theta, bad)


@pytest.mark.parametrize("dist", [
    TaskDistribution(kind=NORMAL, family=LASSO, dim=4, lam=0.05, sigma=2.0),
    TaskDistribution(kind=ROSENBROCK_INIT),
])
def test_task_stack_take_equals_a_fresh_stack(rng, dist):
    # `take` indexes the stacked coefficients instead of stacking the tasks again
    tasks = [sample_task(dist, rng) for _ in range(5)]
    rows = [3, 0, 3]
    taken = TaskStack(tasks).take(rows)
    fresh = TaskStack([tasks[i] for i in rows])
    assert taken.tasks == fresh.tasks and (taken.kind, taken.dim) == (fresh.kind, fresh.dim)
    theta = rng.gen.normal(size=(3, dist.dim, 1))
    v = rng.gen.normal(size=(3, dist.dim, 1))
    for got, want in zip(
        (taken.losses(theta[None]), taken.grad(theta), taken.hvp(theta, v)),
        (fresh.losses(theta[None]), fresh.grad(theta), fresh.hvp(theta, v)),
    ):
        assert got.tobytes() == want.tobytes()


def step_loss(task: OptimizeeTask, theta: np.ndarray) -> float:
    """The loss an unroll took of a lone task at each step, formula by formula."""
    col = theta.reshape(1, task.dim, 1)
    if task.kind == ROSENBROCK:
        x, y = col[:, 0, 0], col[:, 1, 0]
        gap = y - x * x
        return float((np.float_power(x - 1.0, 2) + 100.0 * gap * gap)[0])
    r = task.a[None] @ col - task.b[None, :, None]
    loss = 0.5 * (r.reshape(1, 1, task.dim) @ r).reshape(1)
    if task.kind == LASSO:
        loss = loss + np.array([task.lam]) * np.abs(col).sum(axis=(1, 2))
    return float(loss[0])


def awkward_iterates(rng, steps: int, size: int, dim: int) -> np.ndarray:
    """Iterates (steps, size, dim, 1): draws over six decades, with rows 1-7
    holding signed zeros, +-inf, NaN, overflowing and subnormal entries."""
    scale = 10.0 ** rng.gen.uniform(-3.0, 3.0, size=(steps, size, 1, 1))
    thetas = rng.gen.normal(size=(steps, size, dim, 1)) * scale
    thetas[1] = np.where(rng.gen.random((size, dim, 1)) < 0.5, 0.0, -0.0)
    for t, value in enumerate((np.inf, -np.inf, np.nan), start=2):
        thetas[t, :, rng.gen.integers(dim)] = value
    thetas[5] *= 1e160  # r^T r and the banana terms overflow
    thetas[6] *= 1e100
    thetas[7] = 5e-324
    return thetas


@pytest.mark.parametrize("size", [1, 3, 12])
@pytest.mark.parametrize("kind, dim", [
    (LASSO, 1), (LASSO, 2), (LASSO, 7), (LASSO, 10),
    (QUADRATIC, 1), (QUADRATIC, 2), (QUADRATIC, 7), (QUADRATIC, 10),
    (ROSENBROCK, 2),
])
def test_stacked_losses_are_the_lone_step_losses_bit_for_bit(kind, dim, size):
    # an unroll takes its loss curve in one `losses` call after the loop; each
    # entry must be the loss a lone task computes at that iterate
    rng = RngStream(31).child(f"{kind}/{dim}/{size}")
    if kind == ROSENBROCK:
        tasks = [OptimizeeTask(kind=ROSENBROCK, dim=2)] * size
    else:
        family = LASSO if kind == LASSO else QUADRATIC
        dist = TaskDistribution(kind=NORMAL, family=family, dim=dim, lam=0.05, sigma=2.0)
        tasks = [sample_task(dist, rng) for _ in range(size)]
    stack = TaskStack(tasks)
    # (x - 1)^2 as an array square differs from libm pow in ~0.1% of inputs,
    # so the banana function gets enough draws to show it
    steps = 1000 if kind == ROSENBROCK else 64
    thetas = awkward_iterates(rng, steps, size, dim)
    with np.errstate(all="ignore"):
        losses = stack.losses(thetas)
        assert losses.shape == (steps, size)
        for t in range(steps):
            grads = stack.grad(thetas[t])
            for i, task in enumerate(tasks):
                loss, grad = task.loss_grad(thetas[t, i, :, 0])
                want = np.float64(step_loss(task, thetas[t, i]))
                assert losses[t, i].tobytes() == want.tobytes() == np.float64(loss).tobytes()
                assert grads[i, :, 0].tobytes() == grad.tobytes()
    assert not np.isfinite(losses[2:6]).any() and np.isfinite(losses[[1, 7]]).all()


def test_losses_nonnegative(rng):
    tasks = [
        make_quadratic(rng, 4),
        OptimizeeTask(kind=LASSO, dim=4, a=rng.gen.normal(size=(4, 4)), b=rng.gen.normal(size=4), lam=0.005),
        OptimizeeTask(kind=ROSENBROCK, dim=2),
    ]
    for t in tasks:
        for _ in range(25):
            assert t.loss(rng.gen.normal(size=t.dim) * 3) >= 0.0


def test_sample_task_mixture_entries_in_unit_interval(rng):
    dist = TaskDistribution(kind=MIXTURE, family=LASSO, dim=10, lam=0.005)
    t = sample_task(dist, rng)
    assert t.kind == LASSO and t.lam == 0.005
    assert np.all(t.a >= 0.0) and np.all(t.a < 1.0)
    assert t.b.shape == (10,)


def test_sample_task_mixture_mean_matches_formula():
    # each entry picks one of the three ranges, so the mean is that of their midpoints
    expected = sum((lo + hi) / 2.0 for lo, hi in TRAIN_MIXTURE_RANGES) / len(TRAIN_MIXTURE_RANGES)
    dist = TaskDistribution(kind=MIXTURE, family=QUADRATIC, dim=300)
    a = sample_task(dist, RngStream(3).child("mix")).a
    assert np.all(a >= 0.0) and np.all(a < 1.0)
    assert abs(a.mean() - expected) < 0.01 and expected == pytest.approx(0.26666666666666666)


def test_normal_distribution_requires_positive_sigma():
    for sigma in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sigma"):
            TaskDistribution(kind=NORMAL, family=LASSO, dim=5, sigma=sigma)


def test_sample_task_normal_std():
    dist = TaskDistribution(kind=NORMAL, family=QUADRATIC, dim=100, sigma=100.0)
    t = sample_task(dist, RngStream(12).child("t"))
    assert abs(t.a.std() - 100.0) / 100.0 < 0.02
    assert t.lam == 0.0 and t.kind == QUADRATIC


def test_sample_theta0_contract(rng):
    dist = TaskDistribution(kind=ROSENBROCK_INIT)
    assert sample_theta0(dist, rng).shape == (2,)
    a = sample_theta0(dist, RngStream(8).child("th"))
    b = sample_theta0(dist, RngStream(8).child("th"))
    assert np.array_equal(a, b)
    big = np.concatenate(
        [sample_theta0(TaskDistribution(kind=MIXTURE, dim=100), RngStream(9).child(i)) for i in range(1000)]
    )
    assert abs(big.mean()) < 0.02 and abs(big.std() - 1.0) < 0.02


DRAW_LAW_DISTS = [
    TaskDistribution(kind=MIXTURE, family=LASSO, dim=6, lam=0.005),
    TaskDistribution(kind=MIXTURE, family=QUADRATIC, dim=4),
    TaskDistribution(kind=NORMAL, family=LASSO, dim=5, lam=0.01, sigma=100.0),
    TaskDistribution(kind=NORMAL, family=QUADRATIC, dim=3, sigma=2.0),
    TaskDistribution(kind=ROSENBROCK_INIT),
]


@pytest.mark.pinned
def test_draw_law_is_pinned():
    # every method of a comparison sees these draws, so their bytes are the
    # paired-draw contract: 7 (task, theta0) pairs per kind, interleaved on
    # one stream as the trainers and the harness take them
    parts = []
    for dist in DRAW_LAW_DISTS:
        rng = RngStream(26).child(dist.label())
        for _ in range(7):
            task = sample_task(dist, rng)
            theta0 = sample_theta0(dist, rng)
            parts += [task.to_json().encode(), theta0]
    assert pins.digest(*parts) == pins.DRAW_LAW_DIGEST


def test_task_arrays_immutable(rng):
    t = make_quadratic(rng, 3)
    with pytest.raises(ValueError):
        t.a[0, 0] = 5.0
