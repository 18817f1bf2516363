"""Unrolled inner optimization and its gradients with respect to optimizer weights.

`unroll` runs T update-rule steps on one task and reports the loss curve.
`meta_grad` backpropagates the final loss through the whole trajectory by
hand-written reverse mode.  Both run on a stack of B independent
trajectories at once (`unroll_stack`, `meta_grad_stack`); the one-trajectory
functions take a stack of one optimizer, and a slice's results are bit-identical to
running it alone.  In ``full_second_order`` mode the path through
the feature inputs (the task gradient and its momentum statistics, which
themselves depend on the iterate) is kept alive via Hessian-vector products;
``detached_input`` cuts that path, which is the cheaper convention much of
the practical literature trains with.

The forward pass keeps its tape in a few time-major buffers, one row per
step, allocated once per call and freed with it.  Each step writes its
values there once, through `cell.step`, and the reverse sweep reads step
t's rows back to front (`_forward`, `meta_grad_stack`).

A diverging slice is an outcome, not an exception: the stacked kernels run
every slice to the end with numpy's floating-point warnings off, and
`StackResult.failure` names the error of a slice's first non-finite value
for the callers (the one-trajectory functions raise it) to act on.

`jacobian_recursive` is an intentionally separate implementation of the same
derivative: it accumulates the dense trajectory Jacobian d(theta_T)/d(weights)
forward in time via the step-to-step recursion, using the cell's analytic
input- and parameter-Jacobians.  The two routes share the task's Hessian
product (`TaskStack.hvp`) but no code that differentiates the unroll, so
agreement between them is a real check, not a tautology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .cell import (
    BETA1,
    BETA2,
    EPS,
    FEATURE_DIM,
    OUTPUT_SCALE,
    ParamLayout,
    ParamStack,
    step,
)
from .tasks import OptimizeeTask, TaskStack

__all__ = [
    "FULL_SECOND_ORDER",
    "DETACHED_INPUT",
    "FIRST_ORDER_META",
    "FD_HVP_META",
    "GRAD_MODES",
    "STACK_ROWS",
    "TAPE_ROW_STEPS",
    "row_stacks",
    "UnrollResult",
    "StackResult",
    "UnrollDivergedError",
    "NonFiniteGradientError",
    "unroll",
    "unroll_stack",
    "meta_grad",
    "meta_grad_with_result",
    "meta_grad_stack",
    "maml_objective",
    "maml_grad",
    "maml_parts_stack",
    "jacobian_recursive",
]

FULL_SECOND_ORDER = "full_second_order"
DETACHED_INPUT = "detached_input"
FIRST_ORDER_META = "first_order_meta"
FD_HVP_META = "fd_hvp_meta"
GRAD_MODES = (FULL_SECOND_ORDER, DETACHED_INPUT, FIRST_ORDER_META, FD_HVP_META)

TRAJECTORY_MODES = (FULL_SECOND_ORDER, DETACHED_INPUT)
META_MODES = (FIRST_ORDER_META, FD_HVP_META)

# Refuse dense trajectory Jacobians beyond this many entries per state row.
JACOBIAN_SIZE_LIMIT = 15_000


class UnrollDivergedError(RuntimeError):
    """A non-finite loss appeared during an unroll.

    `index` is the stack slice whose loss it was (0 for a lone trajectory).
    """

    def __init__(self, step: int, value: float, index: int = 0):
        super().__init__(f"non-finite loss {value!r} at unroll step {step}")
        self.step = step
        self.index = index


class NonFiniteGradientError(RuntimeError):
    """A non-finite entry appeared in the weight gradient of stack slice `index`."""

    def __init__(self, block: str, index: int = 0):
        super().__init__(f"non-finite gradient in parameter block {block}")
        self.block = block
        self.index = index


@dataclass
class UnrollResult:
    """Trajectory summary: final iterate and loss curve."""

    theta_final: np.ndarray
    losses: np.ndarray  # loss at theta_0 .. theta_T, so T+1 entries
    final_loss: float
    truncated_at: int | None = None


@dataclass
class StackResult:
    """Summary of B trajectories unrolled in lockstep.

    `losses` is time-major, (T+1, B).  `truncated_at[i]` is the step of
    slice i's first non-finite loss, and `theta_final[i]` its iterate there;
    the column holds that loss at that step and whatever the slice went on
    to compute after it.  `truncated_at` is None when every loss is finite.
    `grads` and `layout` are set when the stack was differentiated.
    """

    theta_final: np.ndarray  # (B, dim)
    losses: np.ndarray  # (T+1, B)
    truncated_at: tuple[int | None, ...] | None = None
    grads: np.ndarray | None = None  # (B, |weights|)
    layout: ParamLayout | None = None

    @property
    def final_losses(self) -> np.ndarray:
        return self.losses[-1]

    def failure(self, index: int | None = None) -> RuntimeError | None:
        """The error that aborting at the first non-finite value raises, or None.

        Looks at slice `index`, or at the whole stack when it is None: the
        earliest non-finite loss step, then the lowest slice, then the first
        non-finite gradient entry in flat order.
        """
        rows = range(self.losses.shape[1]) if index is None else range(index, index + 1)
        cut = self.truncated_at or ()
        stops = [(t, i) for i, t in enumerate(cut) if t is not None and i in rows]
        if stops:
            t, i = min(stops)
            return UnrollDivergedError(t, float(self.losses[t, i]), i)
        if self.grads is not None and not np.isfinite(self.grads).all():
            bad = np.argwhere(~np.isfinite(self.grads[rows.start : rows.stop]))
            if bad.size:
                i, j = (int(k) for k in bad[0])
                return NonFiniteGradientError(self.layout.block_name(j), rows[i])
        return None

    def trajectory(self, i: int) -> UnrollResult:
        stop = None if self.truncated_at is None else self.truncated_at[i]
        losses = self.losses[:stop, i].copy()
        return UnrollResult(
            theta_final=self.theta_final[i].copy(),
            losses=losses,
            final_loss=float(losses[-1]) if len(losses) else float("nan"),
            truncated_at=stop,
        )


def inner_mode(mode: str) -> str:
    """Trajectory-gradient mode implied by a configured mode string."""
    if mode in TRAJECTORY_MODES:
        return mode
    if mode in META_MODES:
        return FULL_SECOND_ORDER
    raise ValueError(f"unknown gradient mode {mode!r}; expected one of {GRAD_MODES}")


def meta_mode(mode: str) -> str:
    """Meta-update mode implied by a configured mode string."""
    if mode in META_MODES:
        return mode
    if mode in TRAJECTORY_MODES:
        return FD_HVP_META
    raise ValueError(f"unknown gradient mode {mode!r}; expected one of {GRAD_MODES}")


# Rows (slices x dim) per untaped stack, the evaluation stacks that a caller
# builds from many independent trajectories.  At dim 10 the per-slice cost of
# an untaped `_forward` still falls slowly past 128 rows (about 9% less by
# 512), but 192 and 256 rows raise the peak memory of a desk `compare` (by
# 0.1 and 0.8 MB) for no end-to-end gain that shows; at dim 2 it falls up to
# ~100.
STACK_ROWS = 128

# Row-steps (slices x dim x unroll steps) per taped `meta_grad_stack` stack,
# the adaptation stacks.  Their tape keeps every step's state, so their
# memory grows with this bound while their per-slice cost barely falls: 64
# rows at 20 steps, six lasso d=10 slices.
TAPE_ROW_STEPS = 1280


def row_stacks(slices: list, size: int, limit: int):
    """`slices`, in order, in runs of at most `limit` units of `size` each (at least one slice)."""
    count = max(1, limit // size)
    for lo in range(0, len(slices), count):
        yield slices[lo : lo + count]


@np.errstate(all="ignore")
def _forward(
    params: ParamStack,
    tasks: TaskStack,
    theta0: np.ndarray,
    horizon: int,
    *,
    keep_tape: bool,
):
    """Unroll B trajectories in lockstep: slice i runs params[i] on tasks[i] from theta0[i].

    Every slice runs to the last step, whatever its losses; a non-finite
    loss is recorded in the result (see `StackResult`), never raised, and
    the other slices are unaffected.  The loop takes only the task gradient
    at each step and writes the iterates into one (T+1, B, dim, 1) buffer;
    the loss curve is computed from that buffer after the last step, in one
    `TaskStack.losses` call, and checked for finiteness there.  Returns
    (result, tape, grad); without `keep_tape` the last two are None.

    Each step writes its values once, through `cell.step`'s `out`, into
    buffers allocated once per call, which nothing keeps past the caller's
    use of the tape.  With `keep_tape` the tape is those buffers, (thetas,
    xs, gates, gqs, cs, taus, ms, vs), time-major: row t belongs to step t.
    - thetas (T+1, B, dim, 1): the iterate it reads.
    - xs (T+1, B, dim, FEATURE_DIM + hidden): its cell input [grad | nm | h],
      the task gradient, the normalized momentum and the hidden state.  h
      is the h' that step t-1 wrote there: zero in row 0, the last h' in
      row T.
    - gates (T, 3, B, dim, hidden), gqs and taus (T, B, dim, hidden): its
      input, forget and output gates, gate-major, its candidate and tanh(c').
    - cs (T+1, B, dim, hidden), ms and vs (T+1, B, dim, 1): the cell state
      and moments it reads; it writes row t+1.
    `grad` holds the task gradients at the last iterates, (B, dim, 1).
    Without `keep_tape` the state buffers xs, cs, ms and vs hold two rows,
    which the steps take in turn, and gates, gqs and taus one, which every
    step overwrites.
    """
    n, d = params.size, tasks.dim
    theta0 = np.asarray(theta0, dtype=np.float64)
    if tasks.size != n:
        raise ValueError(f"{n} optimizers but {tasks.size} tasks in the stack")
    if theta0.shape != (n, d):
        raise ValueError(f"theta0 has shape {theta0.shape}, expected {(n, d)}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    hid = params.hidden
    # spread once, so that every step adds the bias in place without broadcasting
    bias = np.repeat(params.b, d, axis=1)

    state, steps = (horizon + 1, horizon) if keep_tape else (2, 1)  # rows per buffer
    # iterates, gradients and moments are columns (B, dim, 1); in order: thetas,
    # the tape's xs, gates, gqs, cs, taus, ms and vs, and the per-step scratch
    thetas, *tape, act, update = (np.empty(shape) for shape in (
        (horizon + 1, n, d, 1), (state, n, d, FEATURE_DIM + hid),
        (steps, 3, n, d, hid), (steps, n, d, hid), (state, n, d, hid), (steps, n, d, hid),
        (state, n, d, 1), (state, n, d, 1), (n, d, 4 * hid), (n, d, 1),
    ))
    thetas[0] = theta0.reshape(n, d, 1)
    xs, gates, gqs, cs, taus, ms, vs = tape
    hs = xs[:, :, :, FEATURE_DIM:]
    hs[0] = cs[0] = ms[0] = vs[0] = 0.0
    # step t reads the state rows t and writes rows t+1; untaped, the steps
    # take the two state rows in turn and share the one row of the others
    ahead = slice(1, None) if keep_tape else slice(None, None, -1)
    rows = zip(xs, hs, hs[ahead], cs, cs[ahead], ms, ms[ahead], vs, vs[ahead])
    cells = zip(gates, gqs, taus)
    if not keep_tape:
        rows, cells = itertools.cycle(list(rows)), itertools.repeat(next(cells))
    for theta, theta2, row, (g, gq, tau) in zip(thetas, thetas[1:], rows, cells):
        x, h, h2, c, c2, m, m2, v, v2 = row
        out = (x, m2, v2, update, (h2, c2, g, gq, tau, act))
        step(params, tasks.grad(theta), h, c, m, v, bias, out)
        np.add(theta, update, out=theta2)
    grad = tasks.grad(thetas[horizon]) if keep_tape else None

    losses = tasks.losses(thetas)
    theta_final = thetas[horizon, :, :, 0].copy()
    truncated = None
    bad = ~np.isfinite(losses)
    if bad.any():
        first = bad.argmax(axis=0)
        stopped = bad.any(axis=0)
        truncated = tuple(int(t) if s else None for t, s in zip(first, stopped))
        for i in np.flatnonzero(stopped):
            theta_final[i] = thetas[first[i], i, :, 0]
    result = StackResult(theta_final=theta_final, losses=losses, truncated_at=truncated)
    return result, (thetas, *tape) if keep_tape else None, grad


def unroll_stack(
    params: ParamStack,
    tasks: TaskStack,
    theta0: np.ndarray,
    horizon: int,
) -> StackResult:
    """Run `horizon` update steps on every slice of the stack under frozen weights.

    The steps take only task gradients; the (T+1, B) loss curve is computed
    after the loop from the stacked iterates, and no gradient is taken at
    the last iterate.
    """
    result, _, _ = _forward(params, tasks, theta0, horizon, keep_tape=False)
    return result


def unroll(
    params: ParamStack,
    task: OptimizeeTask,
    theta0: np.ndarray,
    horizon: int,
) -> UnrollResult:
    """Run `horizon` update steps from theta0 under frozen optimizer weights.

    A non-finite loss raises; `unroll_stack(...).trajectory(0)` gives the
    curve cut before it instead.
    """
    theta0 = task.check_theta(theta0)
    result = unroll_stack(params, TaskStack([task]), theta0[None], horizon)
    if (failure := result.failure()) is not None:
        raise failure
    return result.trajectory(0)


@np.errstate(all="ignore")
def meta_grad_stack(
    params: ParamStack,
    tasks: TaskStack,
    theta0: np.ndarray,
    horizon: int,
    mode: str = FULL_SECOND_ORDER,
) -> StackResult:
    """Reverse-mode gradients (B, |weights|) of each slice's final unrolled loss.

    The gradients are the result's `grads`; slice i's is the one `meta_grad`
    gives for params[i], tasks[i] and theta0[i] alone, bit for bit.  Nothing
    is raised: `StackResult.failure` reports non-finite losses and gradients.

    The sweep reads `_forward`'s tape back to front, step t from row t of its
    buffers: the iterate thetas[t]; the cell input xs[t], whose first column
    is the task gradient; the gates, candidate, tanh(c') and cell state
    gates[t], gqs[t], taus[t] and cs[t]; the moment ms[t+1] that step t
    wrote; and its h', the hidden columns of xs[t+1].  What depends on the
    forward alone is taken once per call: the momentum feature's column
    factors over the moments vs[1:], and the projection weights' gradient,
    one stacked product of the hidden states and the iterate adjoints
    summed over steps in sweep order.  The iterate adjoint of sweep step k
    (step T-1-k) is row k of one (T+1, B, dim, 1) buffer, the first row
    the task gradient at the last iterates.  Each step writes the input,
    forget and output gates' adjoints gate-major, like the tape's gates,
    and places them into the activation adjoint with one copy.
    """
    if mode not in TRAJECTORY_MODES:
        raise ValueError(
            f"meta_grad mode must be one of {TRAJECTORY_MODES}, got {mode!r}"
        )
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 for gradients, got {horizon}")
    result, tape, dtheta = _forward(params, tasks, theta0, horizon, keep_tape=True)
    thetas, xs, gate_rows, gqs, cs, taus, ms, vs = tape

    n, d = params.size, tasks.dim
    hid = params.hidden
    w_t = params.w.swapaxes(1, 2)
    w_proj_row = params.w_proj.swapaxes(1, 2)
    scale = OUTPUT_SCALE
    second_order = mode == FULL_SECOND_ORDER

    dW = np.zeros_like(params.w)
    db_proj = np.zeros((n, 1, 1))
    # per-step terms of the bias and projection gradients, in sweep order
    db_steps = np.empty((horizon, n, 4 * hid))
    # the iterate adjoints in sweep order: the theta identity path carries each
    # over unchanged, and second order adds a Hessian term in every step
    dthetas = np.repeat(dtheta[None], horizon + 1, axis=0)

    dh = np.zeros((n, d, hid))
    dc = np.zeros((n, d, hid))
    dm = np.zeros((n, d, 1))
    dv = np.zeros((n, d, 1))
    da = np.empty((n, d, 4 * hid))
    da_gates = da.reshape(n, d, 4, hid)
    dgates = np.empty((3, n, d, hid))

    if second_order:
        # d(normalized momentum)/d(m, v) factors of every step: nm = m / (s + EPS), s = sqrt(v)
        v_all = vs[1:]
        s = np.sqrt(v_all)
        denom = s + EPS
        pos = v_all > 0.0
        safe_s = np.where(pos, s, 1.0)
        dv_denom = denom * denom * 2.0 * safe_s

    for k, t in enumerate(range(horizon - 1, -1, -1)):
        x, gates, gq, c_prev, tau = xs[t], gate_rows[t], gqs[t], cs[t], taus[t]
        gi, gf, go = gates
        dtheta = dthetas[k]

        # update projection: u = scale * (h2 @ w_proj + b_proj)
        # per step: a sum over stacked adjoints would reduce the rows in another order
        db_proj += scale * np.add.reduce(dtheta, axis=1, keepdims=True)
        dh_full = dh + scale * dtheta * w_proj_row

        # cell
        dc_full = dc + dh_full * go * (1.0 - tau * tau)
        np.multiply(dc_full, gq, out=dgates[0])
        np.multiply(dc_full, c_prev, out=dgates[1])
        np.multiply(dh_full, tau, out=dgates[2])
        dgq = dc_full * gi
        dc = dc_full * gf

        dgates *= gates
        dgates *= 1.0 - gates
        da_gates[:, :, :3] = dgates.transpose(1, 2, 0, 3)
        np.multiply(dgq, 1.0 - gq * gq, out=da_gates[:, :, 3])
        dW += x.swapaxes(1, 2) @ da
        da.sum(axis=1, out=db_steps[k])
        dx = da @ w_t
        dh = dx[:, :, FEATURE_DIM:]

        if second_order:
            dnm = dx[:, :, 1:2]
            dm_full = dm + dnm / denom[t]
            dv_full = dv + np.where(pos[t], -dnm * ms[t + 1] / dv_denom[t], 0.0)
            dg = dx[:, :, 0:1] + (
                dm_full * (1.0 - BETA1) + dv_full * 2.0 * x[:, :, 0:1] * (1.0 - BETA2)
            )
            dm = dm_full * BETA1
            dv = dv_full * BETA2
            np.add(dtheta, tasks.hvp(thetas[t], dg), out=dthetas[k + 1])

    # the hidden states h' in sweep order go into the tanh(c') rows, which the
    # sweep has read: the product's bits need them C-contiguous, as BLAS
    # rounds strided ones differently at small hidden
    taus[...] = xs[horizon:0:-1, :, :, FEATURE_DIM:]
    # each sum starts from +0.0, as accumulating into zeros did, so a -0.0 term sums alike
    dw_proj = np.add.reduce(scale * (taus.swapaxes(2, 3) @ dthetas[:horizon]), axis=0, initial=0.0)
    db = np.add.reduce(db_steps, axis=0, initial=0.0)

    result.layout = params.layout
    result.grads = result.layout.pack(dW, db, dw_proj.reshape(n, hid), db_proj.reshape(n))
    return result


def meta_grad_with_result(
    params: ParamStack,
    task: OptimizeeTask,
    theta0: np.ndarray,
    horizon: int,
    mode: str = FULL_SECOND_ORDER,
) -> tuple[np.ndarray, UnrollResult]:
    """Reverse-mode gradient of the final unrolled loss, plus the trajectory."""
    theta0 = task.check_theta(theta0)
    result = meta_grad_stack(params, TaskStack([task]), theta0[None], horizon, mode)
    if (failure := result.failure()) is not None:
        raise failure
    return result.grads[0], result.trajectory(0)


def meta_grad(
    params: ParamStack,
    task: OptimizeeTask,
    theta0: np.ndarray,
    horizon: int,
    mode: str = FULL_SECOND_ORDER,
) -> np.ndarray:
    """Gradient of the final unrolled loss with respect to all optimizer weights."""
    grad, _ = meta_grad_with_result(params, task, theta0, horizon, mode)
    return grad


def maml_objective(
    params: ParamStack,
    task: OptimizeeTask,
    theta0: np.ndarray,
    horizon: int,
    alpha: float,
) -> float:
    """Unrolled loss after one inner weight-adaptation step of size alpha.

    The inner step and the re-unroll use the same task and the same theta0.
    """
    if not alpha >= 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    g, res = meta_grad_with_result(params, task, theta0, horizon, FULL_SECOND_ORDER)
    if alpha == 0.0:
        return res.final_loss
    adapted = ParamStack(params.flat - alpha * g, params.hidden)
    return unroll(adapted, task, theta0, horizon).final_loss


def maml_parts_stack(
    params: ParamStack,
    tasks: TaskStack,
    theta0: np.ndarray,
    horizon: int,
    alpha: float | np.ndarray,
    mode: str,
    fd_epsilon: float | None,
    inner: str = FULL_SECOND_ORDER,
) -> tuple[np.ndarray, StackResult, np.ndarray]:
    """Meta-gradients of B slices: (grads, pre-step result, post-step losses).

    Slice i takes the inner step alpha[i] on its weights (a scalar alpha
    applies to every slice).  Every pass differentiates the trajectory in
    mode `inner`.  The first pass covers all B slices, and a slice at alpha 0
    returns its gradient and final loss, so plain training is this call at
    alpha 0.  Only the slices with alpha > 0 go on to the pass at the stepped
    weights and, under ``fd_hvp_meta``, to the finite-difference pair, whose
    two halves run as one stack.  Raises the failure of the earliest of its
    stacks that has one, naming the input slice.
    """
    if mode not in META_MODES:
        raise ValueError(
            f"maml_grad mode must be one of {META_MODES}, got {mode!r}"
        )
    alpha = np.broadcast_to(np.asarray(alpha, dtype=np.float64), (params.size,))
    if (bad := alpha[~(alpha >= 0)]).size:
        raise ValueError(f"alpha must be >= 0, got {bad[0]}")
    res0 = meta_grad_stack(params, tasks, theta0, horizon, inner)
    if (failure := res0.failure()) is not None:
        raise failure
    grads, values = res0.grads.copy(), res0.final_losses.copy()
    rows = np.flatnonzero(alpha)
    if not rows.size:
        return grads, res0, values
    step = alpha[rows, None]
    flat = params.flat[rows]
    theta0 = np.asarray(theta0, dtype=np.float64)
    res1 = meta_grad_stack(
        ParamStack(flat - step * res0.grads[rows], params.hidden),
        tasks.take(rows), theta0[rows], horizon, inner,
    )
    if (failure := res1.failure()) is not None:
        failure.index = int(rows[failure.index])
        raise failure
    values[rows] = res1.final_losses
    v = res1.grads
    if mode == FD_HVP_META:
        if fd_epsilon is not None:
            eps = np.full((rows.size, 1), fd_epsilon, dtype=np.float64)
        else:
            eps = 1e-4 * (1.0 + np.max(np.abs(flat), axis=1, keepdims=True))
        pair = np.concatenate([rows, rows])
        res_pm = meta_grad_stack(
            ParamStack(np.concatenate([flat + eps * v, flat - eps * v]), params.hidden),
            tasks.take(pair), theta0[pair], horizon, inner,
        )
        if (failure := res_pm.failure()) is not None:
            # slice m + i of the pair is the minus half of stepped slice i
            failure.index = int(rows[failure.index % rows.size])
            raise failure
        gp, gm = res_pm.grads[: rows.size], res_pm.grads[rows.size :]
        v = v - step * ((gp - gm) / (2.0 * eps))
    grads[rows] = v
    return grads, res0, values


def _maml_parts(
    params: ParamStack,
    task: OptimizeeTask,
    theta0: np.ndarray,
    horizon: int,
    alpha: float,
    mode: str,
    fd_epsilon: float | None,
):
    """Shared meta-gradient plumbing: returns (grad, pre-step result, post-step loss)."""
    theta0 = task.check_theta(theta0)
    grads, res0, values = maml_parts_stack(
        params, TaskStack([task]), theta0[None], horizon, alpha, mode, fd_epsilon
    )
    return grads[0], res0.trajectory(0), float(values[0])


def maml_grad(
    params: ParamStack,
    task: OptimizeeTask,
    theta0: np.ndarray,
    horizon: int,
    alpha: float,
    mode: str = FD_HVP_META,
    fd_epsilon: float | None = None,
) -> np.ndarray:
    """Approximate gradient of the one-inner-step objective.

    ``first_order_meta`` returns the gradient at the adapted weights and drops
    the curvature factor; ``fd_hvp_meta`` restores it with a central-difference
    Hessian-vector product, never materializing the Hessian.  At alpha=0 both
    reduce to the plain trajectory gradient.
    """
    grad, _, _ = _maml_parts(params, task, theta0, horizon, alpha, mode, fd_epsilon)
    return grad


def jacobian_recursive(
    params: ParamStack,
    task: OptimizeeTask,
    theta0: np.ndarray,
    horizon: int,
) -> np.ndarray:
    """Dense d(theta_T)/d(weights) accumulated forward step by step.

    Each step applies the recursion J' = (identity + input-path) J + direct
    parameter path, with the input path running through the task Hessian and
    the cell's analytic Jacobians, and the recurrent/momentum state carried
    alongside.  theta0 is treated as independent of the weights, so the
    recursion starts from a zero Jacobian.  The forward values come from
    `cell.step`, the derivatives from this function alone.  Intended for
    small instances only.
    """
    params.check_single("jacobian_recursive")
    theta0 = np.asarray(theta0, dtype=np.float64)
    d = task.dim
    hid = params.hidden
    layout = params.layout
    p = layout.size
    if d * p > JACOBIAN_SIZE_LIMIT:
        raise ValueError(
            f"instance too large for the dense trajectory Jacobian: "
            f"dim*|weights| = {d * p} > {JACOBIAN_SIZE_LIMIT}"
        )
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")

    w = params.w[0]
    w_proj = params.w_proj[0, :, 0]
    scale = OUTPUT_SCALE
    rows = layout.rows
    g_block = layout.gate_block
    ar = np.arange(hid)

    theta = theta0.copy()
    h = np.zeros((1, d, hid))
    c = np.zeros((1, d, hid))
    m = np.zeros((1, d, 1))
    v = np.zeros((1, d, 1))

    j_theta = np.zeros((d, p))
    j_h = np.zeros((d, hid, p))
    j_c = np.zeros((d, hid, p))
    j_m = np.zeros((d, p))
    j_v = np.zeros((d, p))

    for _ in range(horizon):
        grad = task.grad(theta)
        j_g = task.hvp(theta, j_theta)
        update, h, c, m, v, cache = step(params, grad.reshape(1, d, 1), h, c, m, v)
        # drop the stack axis of one, which precedes (dim, columns) in every entry
        x, gates, gq, c_prev, tau = (a[..., 0, :, :] for a in cache)
        gi, gf, go = gates
        m2, v2 = m[0, :, 0], v[0, :, 0]

        j_m2 = BETA1 * j_m + (1.0 - BETA1) * j_g
        j_v2 = BETA2 * j_v + (1.0 - BETA2) * 2.0 * grad[:, None] * j_g
        s = np.sqrt(v2)
        denom = s + EPS
        pos = v2 > 0.0
        safe_s = np.where(pos, s, 1.0)
        coef = np.where(pos, m2 / (denom * denom * 2.0 * safe_s), 0.0)
        j_nm = j_m2 / denom[:, None] - coef[:, None] * j_v2
        j_x = np.concatenate(
            [j_g[:, None, :], j_nm[:, None, :], j_h], axis=1
        )  # (d, rows, p)

        j_act = []
        for gate in range(4):
            w_gate = w[:, gate * hid : (gate + 1) * hid]
            ja = np.einsum("drp,rk->dkp", j_x, w_gate)
            base = gate * g_block
            for r in range(rows):
                ja[:, ar, base + r * hid + ar] += x[:, r][:, None]
            ja[:, ar, layout.bias_base + gate * hid + ar] += 1.0
            j_act.append(ja)

        j_gi = (gi * (1.0 - gi))[:, :, None] * j_act[0]
        j_gf = (gf * (1.0 - gf))[:, :, None] * j_act[1]
        j_go = (go * (1.0 - go))[:, :, None] * j_act[2]
        j_gq = (1.0 - gq * gq)[:, :, None] * j_act[3]

        j_c2 = (
            gf[:, :, None] * j_c
            + c_prev[:, :, None] * j_gf
            + gi[:, :, None] * j_gq
            + gq[:, :, None] * j_gi
        )
        j_tau = (1.0 - tau * tau)[:, :, None] * j_c2
        j_h2 = go[:, :, None] * j_tau + tau[:, :, None] * j_go

        j_u = scale * np.einsum("dkp,k->dp", j_h2, w_proj)
        j_u[:, layout.proj_base : layout.proj_base + hid] += scale * h[0]
        j_u[:, layout.b_proj_index] += scale

        theta = theta + update[0, :, 0]
        j_theta = j_theta + j_u
        j_h, j_c, j_m, j_v = j_h2, j_c2, j_m2, j_v2

    return j_theta
