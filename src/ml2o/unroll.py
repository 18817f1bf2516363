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

`jacobian_recursive` is an intentionally separate implementation of the same
derivative: it accumulates the dense trajectory Jacobian d(theta_T)/d(weights)
forward in time via the step-to-step recursion, using the cell's analytic
input- and parameter-Jacobians.  The two routes share no differentiation code,
so agreement between them is a real check, not a tautology.
"""

from __future__ import annotations

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

    `losses` is time-major, (T+1, B); past a slice's truncation step its
    column holds NaN.  `truncated_at` is None when no slice was truncated.
    """

    theta_final: np.ndarray  # (B, dim)
    losses: np.ndarray  # (T+1, B)
    truncated_at: tuple[int | None, ...] | None = None

    @property
    def final_losses(self) -> np.ndarray:
        return self.losses[-1]

    def take(self, index) -> "StackResult":
        """The slices at `index`, of a stack that no slice was truncated in."""
        if self.truncated_at is not None:
            raise ValueError("cannot take slices of a truncated stack")
        return StackResult(self.theta_final[index], self.losses[:, index])

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


# Rows (slices x dim) per stack that a caller of the kernel builds from many
# independent trajectories: evaluation and adaptation stacks alike.  Per-slice
# cost of `_forward` stops falling near 120 rows at dim 10 and rises beyond;
# at dim 2 it falls up to ~100.
STACK_ROWS = 128


def _forward(
    params: ParamStack,
    tasks: TaskStack,
    theta0: np.ndarray,
    horizon: int,
    *,
    keep_tape: bool,
    truncate_nonfinite: bool = False,
):
    """Unroll B trajectories in lockstep: slice i runs params[i] on tasks[i] from theta0[i].

    Without `truncate_nonfinite` the first non-finite loss raises; with it,
    the slice stops there and the others run on without it.  Returns
    (result, tape, grad): `grad` holds the task gradients at the last
    iterates of the slices still running, (live B, dim, 1).
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
    losses = np.full((horizon + 1, n), np.nan)
    tape = [] if keep_tape else None
    truncated_at = [None] * n
    live = np.arange(n)  # stack slices still running
    theta_final = theta0.reshape(n, d, 1).copy()

    # iterates, gradients and moments are columns (B, dim, 1)
    theta = theta_final.copy()
    h = np.zeros((n, d, hid))
    c = np.zeros((n, d, hid))
    m = np.zeros((n, d, 1))
    v = np.zeros((n, d, 1))
    for t in range(horizon + 1):
        loss, grad = tasks.loss_grad(theta)
        finite = np.isfinite(loss)
        if not finite.all():
            if not truncate_nonfinite:
                bad = int(np.flatnonzero(~finite)[0])
                raise UnrollDivergedError(t, float(loss[bad]), int(live[bad]))
            stopped = live[~finite]
            for i in stopped:
                truncated_at[i] = t
            theta_final[stopped] = theta[~finite]
            live = live[finite]
            if not live.size:
                break
            params, tasks = params.take(finite), tasks.take(finite)
            loss, grad = loss[finite], grad[finite]
            theta, h, c, m, v = theta[finite], h[finite], c[finite], m[finite], v[finite]
        if live.size == n:
            losses[t] = loss
        else:
            losses[t, live] = loss
        if t == horizon:
            break
        update, h, c, m, v, cache = step(params, grad, h, c, m, v)
        if keep_tape:
            tape.append((theta, grad, m, v, cache, h))
        theta = theta + update

    theta_final[live] = theta
    truncated = None if live.size == n else tuple(truncated_at)
    result = StackResult(
        theta_final=theta_final.reshape(n, d), losses=losses, truncated_at=truncated
    )
    return result, tape, grad


def unroll_stack(
    params: ParamStack,
    tasks: TaskStack,
    theta0: np.ndarray,
    horizon: int,
    truncate_nonfinite: bool = False,
) -> StackResult:
    """Run `horizon` update steps on every slice of the stack under frozen weights."""
    result, _, _ = _forward(
        params, tasks, theta0, horizon, keep_tape=False,
        truncate_nonfinite=truncate_nonfinite,
    )
    return result


def unroll(
    params: ParamStack,
    task: OptimizeeTask,
    theta0: np.ndarray,
    horizon: int,
    truncate_nonfinite: bool = False,
) -> UnrollResult:
    """Run `horizon` update steps from theta0 under frozen optimizer weights."""
    theta0 = task.check_theta(theta0)
    return unroll_stack(
        params, TaskStack([task]), theta0[None], horizon, truncate_nonfinite=truncate_nonfinite
    ).trajectory(0)


def _grad_block_name(index: int, layout: ParamLayout) -> str:
    names = ("W_input", "W_forget", "W_out_gate", "W_cand")
    g = layout.gate_block
    if index < 4 * g:
        return names[index // g]
    index -= 4 * g
    if index < 4 * layout.hidden:
        return ("b_input", "b_forget", "b_out_gate", "b_cand")[index // layout.hidden]
    index -= 4 * layout.hidden
    return "w_proj" if index < layout.hidden else "b_proj"


def meta_grad_stack(
    params: ParamStack,
    tasks: TaskStack,
    theta0: np.ndarray,
    horizon: int,
    mode: str = FULL_SECOND_ORDER,
) -> tuple[np.ndarray, StackResult]:
    """Reverse-mode gradients (B, |weights|) of each slice's final unrolled loss.

    Slice i's gradient is the one `meta_grad` gives for params[i], tasks[i]
    and theta0[i] alone, bit for bit.
    """
    if mode not in TRAJECTORY_MODES:
        raise ValueError(
            f"meta_grad mode must be one of {TRAJECTORY_MODES}, got {mode!r}"
        )
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 for gradients, got {horizon}")
    # no slice is truncated, so the last gradients are those at theta_final
    result, tape, dtheta = _forward(params, tasks, theta0, horizon, keep_tape=True)

    n, d = params.size, tasks.dim
    hid = params.hidden
    w_t = params.w.swapaxes(1, 2)
    w_proj_row = params.w_proj.swapaxes(1, 2)
    scale = OUTPUT_SCALE
    second_order = mode == FULL_SECOND_ORDER

    dW = np.zeros_like(params.w)
    db = np.zeros((n, 4 * hid))
    dw_proj = np.zeros((n, hid, 1))
    db_proj = np.zeros((n, 1, 1))

    dh = np.zeros((n, d, hid))
    dc = np.zeros((n, d, hid))
    dm = np.zeros((n, d, 1))
    dv = np.zeros((n, d, 1))

    for t in range(horizon - 1, -1, -1):
        theta_t, g_t, m2, v2, cache, h2 = tape[t]
        x, gi, gf, go, gq, c_prev, tau = cache

        # update projection: u = scale * (h2 @ w_proj + b_proj)
        dw_proj += scale * (h2.swapaxes(1, 2) @ dtheta)
        db_proj += scale * dtheta.sum(axis=1, keepdims=True)
        dh_full = dh + scale * dtheta * w_proj_row

        # cell
        dgo = dh_full * tau
        dtau = dh_full * go
        dc_full = dc + dtau * (1.0 - tau * tau)
        dgf = dc_full * c_prev
        dgi = dc_full * gq
        dgq = dc_full * gi
        dc = dc_full * gf

        da = np.concatenate(
            [
                dgi * gi * (1.0 - gi),
                dgf * gf * (1.0 - gf),
                dgo * go * (1.0 - go),
                dgq * (1.0 - gq * gq),
            ],
            axis=2,
        )
        dW += x.swapaxes(1, 2) @ da
        db += da.sum(axis=1)
        dx = da @ w_t
        dh = dx[:, :, FEATURE_DIM:]

        if second_order:
            dg = dx[:, :, 0:1].copy()
            dnm = dx[:, :, 1:2]
            s = np.sqrt(v2)
            denom = s + EPS
            dm_full = dm + dnm / denom
            pos = v2 > 0.0
            safe_s = np.where(pos, s, 1.0)
            dv_full = dv + np.where(
                pos, -dnm * m2 / (denom * denom * 2.0 * safe_s), 0.0
            )
            dg += dm_full * (1.0 - BETA1) + dv_full * 2.0 * g_t * (1.0 - BETA2)
            dm = dm_full * BETA1
            dv = dv_full * BETA2
            dtheta = dtheta + tasks.hvp(theta_t, dg)
        # theta identity path: dtheta carries over unchanged otherwise

    layout = params.layout
    flat = layout.pack(dW, db, dw_proj.reshape(n, hid), db_proj.reshape(n))
    bad = ~np.isfinite(flat)
    if bad.any():
        i, j = (int(k[0]) for k in np.nonzero(bad))
        raise NonFiniteGradientError(_grad_block_name(j, layout), i)
    return flat, result


def meta_grad_with_result(
    params: ParamStack,
    task: OptimizeeTask,
    theta0: np.ndarray,
    horizon: int,
    mode: str = FULL_SECOND_ORDER,
) -> tuple[np.ndarray, UnrollResult]:
    """Reverse-mode gradient of the final unrolled loss, plus the trajectory."""
    theta0 = task.check_theta(theta0)
    grads, result = meta_grad_stack(params, TaskStack([task]), theta0[None], horizon, mode)
    return grads[0], result.trajectory(0)


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
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    g, res = meta_grad_with_result(params, task, theta0, horizon, FULL_SECOND_ORDER)
    if alpha == 0.0:
        return res.final_loss
    adapted = params.with_flat(params.to_flat() - alpha * g)
    return unroll(adapted, task, theta0, horizon).final_loss


def maml_parts_stack(
    params: ParamStack,
    tasks: TaskStack,
    theta0: np.ndarray,
    horizon: int,
    alpha: float,
    mode: str,
    fd_epsilon: float | None,
    first_pass: tuple[np.ndarray, StackResult] | None = None,
) -> tuple[np.ndarray, StackResult, np.ndarray]:
    """Meta-gradients of B slices: (grads, pre-step result, post-step losses).

    The two finite-difference gradients of ``fd_hvp_meta`` run as one
    stack of 2B slices.  `first_pass` is the (grads, result) that
    ``meta_grad_stack(params, tasks, theta0, horizon, FULL_SECOND_ORDER)``
    returned, when the caller has already run it (as part of a larger
    stack); it is then not run again.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if mode not in META_MODES:
        raise ValueError(
            f"maml_grad mode must be one of {META_MODES}, got {mode!r}"
        )
    if first_pass is None:
        first_pass = meta_grad_stack(params, tasks, theta0, horizon, FULL_SECOND_ORDER)
    g0, res0 = first_pass
    if alpha == 0.0:
        return g0, res0, res0.final_losses
    flat = params.to_flat()
    adapted = params.with_flat(flat - alpha * g0)
    v, res1 = meta_grad_stack(adapted, tasks, theta0, horizon, FULL_SECOND_ORDER)
    if mode == FIRST_ORDER_META:
        return v, res0, res1.final_losses
    if fd_epsilon is not None:
        eps = np.full((params.size, 1), fd_epsilon, dtype=np.float64)
    else:
        eps = 1e-4 * (1.0 + np.max(np.abs(flat), axis=1, keepdims=True))
    pair = np.r_[0 : params.size, 0 : params.size]
    try:
        g_pm, _ = meta_grad_stack(
            params.take(pair).with_flat(np.concatenate([flat + eps * v, flat - eps * v])),
            tasks.take(pair),
            np.asarray(theta0, dtype=np.float64)[pair],
            horizon,
            FULL_SECOND_ORDER,
        )
    except (UnrollDivergedError, NonFiniteGradientError) as exc:
        # slice B + i of the pair is the minus half of input slice i
        exc.index %= params.size
        raise
    gp, gm = g_pm[: params.size], g_pm[params.size :]
    hv = (gp - gm) / (2.0 * eps)
    return v - alpha * hv, res0, res1.final_losses


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
    layout = ParamLayout(hid)
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
        j_g = task.hessian_matmul(theta, j_theta)
        update, h, c, m, v, cache = step(params, grad.reshape(1, d, 1), h, c, m, v)
        x, gi, gf, go, gq, c_prev, tau = (a[0] for a in cache)
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
