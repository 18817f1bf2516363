"""The learned update rule: a coordinate-wise recurrent cell with shared weights.

Every optimizee coordinate runs the same single-layer LSTM-style cell on its
own hidden state, reading a two-entry feature vector (raw gradient and
Adam-normalized momentum) and emitting a scalar update.  Because weights are
shared across coordinates the optimizer is dimension-agnostic: the same
parameters drive a 2-d Rosenbrock task and a 100-d regression task.

Flat parameter layout (the order used for gradients and checkpoints):

    W_in, W_forget, W_out_gate, W_cand   each (feature_dim+hidden, hidden), row-major
    b_in, b_forget, b_out_gate, b_cand   each (hidden,)
    w_proj (hidden,), b_proj (scalar)

The output projection starts at zero so an untrained optimizer proposes the
zero update; `output_scale` is a fixed architectural constant, not trained.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from .numeric import RngStream

__all__ = [
    "OptimizerParams",
    "ParamLayout",
    "ParamStack",
    "UnrollState",
    "param_count",
    "init_params",
    "random_params",
    "compute_features",
    "step",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]

# Momentum feature constants (Adam-style normalization).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

FEATURE_DIM_DEFAULT = 2
HIDDEN_DEFAULT = 20
OUTPUT_SCALE_DEFAULT = 0.01

CHECKPOINT_MAGIC = b"ML2O"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Raised for unreadable, corrupt or incompatible checkpoint files."""


@dataclass(frozen=True)
class OptimizerParams:
    """All trainable weights of the update rule, plus the fixed output scale.

    `w` holds the four gate weight matrices side by side, columns ordered
    [input | forget | output-gate | candidate]; `b` holds the biases in the
    same order.
    """

    w: np.ndarray  # (feature_dim + hidden, 4*hidden)
    b: np.ndarray  # (4*hidden,)
    w_proj: np.ndarray  # (hidden,)
    b_proj: float
    output_scale: float = OUTPUT_SCALE_DEFAULT

    @property
    def hidden(self) -> int:
        return self.w_proj.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w.shape[0] - self.hidden

    @property
    def layout(self) -> "ParamLayout":
        return ParamLayout(self.hidden, self.feature_dim)

    @property
    def n_params(self) -> int:
        """Length of the flat trainable vector (excludes output_scale)."""
        return self.layout.size

    def to_flat(self) -> np.ndarray:
        return self.layout.pack(self.w, self.b, self.w_proj, np.float64(self.b_proj))

    @classmethod
    def from_flat(
        cls,
        flat: np.ndarray,
        hidden: int,
        feature_dim: int,
        output_scale: float = OUTPUT_SCALE_DEFAULT,
    ) -> "OptimizerParams":
        layout = ParamLayout(hidden, feature_dim)
        w, b, w_proj, b_proj = layout.unpack(flat, ())
        return cls(w=w, b=b, w_proj=w_proj, b_proj=float(b_proj), output_scale=output_scale)

    def with_flat(self, flat: np.ndarray) -> "OptimizerParams":
        return OptimizerParams.from_flat(
            flat, self.hidden, self.feature_dim, self.output_scale
        )

    def digest(self) -> str:
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        h.update(struct.pack("<IId", self.hidden, self.feature_dim, self.output_scale))
        h.update(np.ascontiguousarray(self.to_flat()).tobytes())
        return h.hexdigest()


def param_count(hidden: int, feature_dim: int) -> int:
    """Total real-valued entries defining an optimizer, output_scale included."""
    return ParamLayout(hidden, feature_dim).size + 1


@dataclass(frozen=True)
class ParamLayout:
    """Index arithmetic for the flat parameter vector, and packing to and from it.

    `pack` and `unpack` work on any number of leading (stack) axes; they only
    move values, so a round trip is bit-exact.
    """

    hidden: int
    feature_dim: int

    @property
    def rows(self) -> int:
        return self.feature_dim + self.hidden

    @property
    def gate_block(self) -> int:
        return self.rows * self.hidden

    def w_index(self, gate: int, row: int, col: int) -> int:
        return gate * self.gate_block + row * self.hidden + col

    @property
    def bias_base(self) -> int:
        return 4 * self.gate_block

    @property
    def proj_base(self) -> int:
        return self.bias_base + 4 * self.hidden

    @property
    def b_proj_index(self) -> int:
        return self.proj_base + self.hidden

    @property
    def size(self) -> int:
        return self.b_proj_index + 1

    def pack(self, w, b, w_proj, b_proj) -> np.ndarray:
        """Blocks with leading axes `lead` -> flat vectors of shape lead + (size,)."""
        lead = w.shape[:-2]
        gates = w.reshape(*lead, self.rows, 4, self.hidden).swapaxes(-3, -2)
        return np.concatenate(
            [gates.reshape(*lead, self.bias_base), b, w_proj, np.asarray(b_proj)[..., None]],
            axis=-1,
        )

    def unpack(self, flat, lead: tuple[int, ...]):
        """Flat vectors of shape lead + (size,) -> (w, b, w_proj, b_proj) copies."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (*lead, self.size):
            raise ValueError(
                f"flat vector has shape {flat.shape}, expected {(*lead, self.size)} "
                f"for hidden={self.hidden}, feature_dim={self.feature_dim}"
            )
        hid = self.hidden
        gates = flat[..., : self.bias_base].reshape(*lead, 4, self.rows, hid)
        w = gates.swapaxes(-3, -2).reshape(*lead, self.rows, 4 * hid)
        b = flat[..., self.bias_base : self.proj_base].copy()
        w_proj = flat[..., self.proj_base : self.b_proj_index].copy()
        return w, b, w_proj, flat[..., self.b_proj_index].copy()


def init_params(hidden: int, feature_dim: int, rng: RngStream) -> OptimizerParams:
    """Fresh optimizer weights.

    Gate weights are U(-s, s) with s = 1/sqrt(hidden + feature_dim); the
    forget-gate bias starts at 1 so cell memory survives early unrolls; the
    output projection starts at zero so the initial update rule is a no-op.
    """
    if hidden < 1 or feature_dim < 1:
        raise ValueError("hidden and feature_dim must be >= 1")
    rows = feature_dim + hidden
    s = 1.0 / np.sqrt(rows)
    w = np.empty((rows, 4 * hidden))
    for gate in range(4):
        w[:, gate * hidden : (gate + 1) * hidden] = rng.gen.uniform(
            -s, s, size=(rows, hidden)
        )
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0  # forget gate
    return OptimizerParams(
        w=w,
        b=b,
        w_proj=np.zeros(hidden),
        b_proj=0.0,
        output_scale=OUTPUT_SCALE_DEFAULT,
    )


def random_params(hidden: int, feature_dim: int, rng: RngStream, proj_scale: float = 0.5) -> OptimizerParams:
    """Generic non-degenerate weights for probing and gradient checks.

    Unlike `init_params` the output projection is nonzero, so every
    parameter block influences the unrolled loss.
    """
    base = init_params(hidden, feature_dim, rng)
    s = proj_scale / np.sqrt(hidden)
    w_proj = rng.gen.uniform(-s, s, size=hidden)
    b_proj = float(rng.gen.uniform(-s, s))
    return replace(base, w_proj=w_proj, b_proj=b_proj)


@dataclass
class UnrollState:
    """Per-trajectory state: iterate, recurrent state and moment accumulators."""

    theta: np.ndarray  # (dim,)
    h: np.ndarray  # (dim, hidden)
    c: np.ndarray  # (dim, hidden)
    m: np.ndarray  # (dim,)
    v: np.ndarray  # (dim,)
    t: int = 0

    @classmethod
    def fresh(cls, theta0: np.ndarray, hidden: int) -> "UnrollState":
        theta0 = np.asarray(theta0, dtype=np.float64)
        d = theta0.shape[0]
        return cls(
            theta=theta0.copy(),
            h=np.zeros((d, hidden)),
            c=np.zeros((d, hidden)),
            m=np.zeros(d),
            v=np.zeros(d),
            t=0,
        )


def moment_update(
    m: np.ndarray, v: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One accumulator step; returns (m', v', normalized momentum)."""
    m2 = BETA1 * m + (1.0 - BETA1) * grad
    v2 = BETA2 * v + (1.0 - BETA2) * grad * grad
    nm = m2 / (np.sqrt(v2) + EPS)
    return m2, v2, nm


def compute_features(
    grad: np.ndarray, state: UnrollState
) -> tuple[np.ndarray, UnrollState]:
    """Per-coordinate feature rows [raw gradient, normalized momentum].

    Returns the features and the state with advanced accumulators; the
    recurrent state and iterate are untouched.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != state.theta.shape:
        raise ValueError(
            f"grad has shape {grad.shape}, expected {state.theta.shape}"
        )
    m2, v2, nm = moment_update(state.m, state.v, grad)
    features = np.stack([grad, nm], axis=1)
    return features, replace(state, m=m2, v=v2)


@dataclass(frozen=True)
class ParamStack:
    """The weights of B optimizers stacked on a leading axis.

    Slice i runs trajectory i of a lockstep unroll.  Every stacked operation
    on it computes each slice with exactly the floating-point operations of a
    lone optimizer, so a slice's results do not depend on its neighbours.
    The blocks carry singleton axes so that they broadcast against the
    kernel's (B, dim, ...) arrays as they are.
    """

    w: np.ndarray  # (B, feature_dim + hidden, 4*hidden)
    b: np.ndarray  # (B, 1, 4*hidden)
    w_proj: np.ndarray  # (B, hidden, 1)
    b_proj: np.ndarray  # (B, 1, 1)
    output_scale: np.ndarray  # (B, 1, 1)

    @property
    def size(self) -> int:
        return self.w.shape[0]

    @property
    def hidden(self) -> int:
        return self.w_proj.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.w.shape[1] - self.hidden

    @property
    def layout(self) -> ParamLayout:
        return ParamLayout(self.hidden, self.feature_dim)

    @classmethod
    def of(cls, params: list[OptimizerParams]) -> "ParamStack":
        if len({(p.hidden, p.feature_dim) for p in params}) != 1:
            raise ValueError("stacked optimizers must share hidden and feature_dim")
        return cls._from_blocks(
            np.stack([p.w for p in params]),
            np.stack([p.b for p in params]),
            np.stack([p.w_proj for p in params]),
            np.array([p.b_proj for p in params], dtype=np.float64),
            np.array([p.output_scale for p in params], dtype=np.float64),
        )

    @classmethod
    def _from_blocks(cls, w, b, w_proj, b_proj, output_scale) -> "ParamStack":
        n = w.shape[0]
        return cls(
            w=w,
            b=b.reshape(n, 1, -1),
            w_proj=w_proj.reshape(n, -1, 1),
            b_proj=b_proj.reshape(n, 1, 1),
            output_scale=np.broadcast_to(output_scale, (n,)).reshape(n, 1, 1),
        )

    @classmethod
    def from_flat(cls, flat: np.ndarray, layout: ParamLayout, output_scale) -> "ParamStack":
        """Stack from flat vectors (B, |weights|); output_scale is a scalar or (B,)."""
        flat = np.asarray(flat, dtype=np.float64)
        return cls._from_blocks(
            *layout.unpack(flat, flat.shape[:1]), np.asarray(output_scale, dtype=np.float64)
        )

    def to_flat(self) -> np.ndarray:
        n = self.size
        return self.layout.pack(
            self.w, self.b.reshape(n, -1), self.w_proj.reshape(n, -1), self.b_proj.reshape(n)
        )

    def with_flat(self, flat: np.ndarray) -> "ParamStack":
        return ParamStack.from_flat(flat, self.layout, self.output_scale.reshape(self.size))

    def take(self, index) -> "ParamStack":
        return ParamStack(
            w=self.w[index],
            b=self.b[index],
            w_proj=self.w_proj[index],
            b_proj=self.b_proj[index],
            output_scale=self.output_scale[index],
        )


def cell_forward(params: ParamStack, z: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One recurrent step for all coordinates of all B trajectories at once.

    z is (B, dim, feature_dim), h and c are (B, dim, hidden).  Returns
    (h', c', cache); the cache holds what the backward pass needs.
    """
    hid = params.hidden
    x = np.concatenate([z, h], axis=2)
    act = x @ params.w + params.b
    gi = expit(act[:, :, :hid])
    gf = expit(act[:, :, hid : 2 * hid])
    go = expit(act[:, :, 2 * hid : 3 * hid])
    gq = np.tanh(act[:, :, 3 * hid :])
    c2 = gf * c + gi * gq
    tau = np.tanh(c2)
    h2 = go * tau
    cache = (x, gi, gf, go, gq, c, tau)
    return h2, c2, cache


def predict_update(params: ParamStack, h2: np.ndarray) -> np.ndarray:
    """Per-coordinate update columns (B, dim, 1) from hidden states (B, dim, hidden)."""
    return params.output_scale * (h2 @ params.w_proj + params.b_proj)


def step(
    params: OptimizerParams, features: np.ndarray, state: UnrollState
) -> tuple[np.ndarray, UnrollState]:
    """Advance the iterate one step: theta' = theta + predicted update."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (state.theta.shape[0], params.feature_dim):
        raise ValueError(
            f"features have shape {features.shape}, expected "
            f"{(state.theta.shape[0], params.feature_dim)}"
        )
    stack = ParamStack.of([params])
    h2, c2, _ = cell_forward(stack, features[None], state.h[None], state.c[None])
    update = predict_update(stack, h2)[0, :, 0]
    new_state = replace(
        state, theta=state.theta + update, h=h2[0], c=c2[0], t=state.t + 1
    )
    return update, new_state


def save_checkpoint(params: OptimizerParams, path, metadata: str = "") -> None:
    """Write a little-endian binary checkpoint.

    Layout: magic "ML2O", u32 version, u32 hidden, u32 feature_dim,
    f64 output_scale, u32 metadata byte length, metadata (utf-8),
    u64 payload count, payload float64s in flat parameter order,
    u32 CRC-32 of the payload bytes.
    """
    payload = np.ascontiguousarray(params.to_flat(), dtype="<f8").tobytes()
    meta = metadata.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            struct.pack(
                "<IIId",
                CHECKPOINT_VERSION,
                params.hidden,
                params.feature_dim,
                params.output_scale,
            )
        )
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<Q", params.n_params))
        fh.write(payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def _read_exact(fh, n: int, what: str) -> bytes:
    """Read n bytes, refusing lengths beyond the end of the file before reading."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CheckpointError(
            f"corrupt checkpoint: truncated while reading {what} "
            f"({n} bytes needed, {max(left, 0)} left)"
        )
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError(f"corrupt checkpoint: truncated while reading {what}")
    return buf


def load_checkpoint(path) -> OptimizerParams:
    """Read a checkpoint written by `save_checkpoint`; see it for the layout."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"corrupt checkpoint: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
            )
        version, hidden, feature_dim, output_scale = struct.unpack(
            "<IIId", _read_exact(fh, 20, "header")
        )
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version}, this build reads version {CHECKPOINT_VERSION}"
            )
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
        _read_exact(fh, meta_len, "metadata")
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "payload count"))
        expected = ParamLayout(hidden, feature_dim).size
        if count != expected:
            raise CheckpointError(
                f"checkpoint header inconsistent with payload: header says "
                f"hidden={hidden}, feature_dim={feature_dim} ({expected} values) "
                f"but payload count is {count}"
            )
        payload = _read_exact(fh, 8 * count, "payload")
        (crc,) = struct.unpack("<I", _read_exact(fh, 4, "checksum"))
        if crc != zlib.crc32(payload):
            raise CheckpointError("corrupt checkpoint: payload checksum mismatch")
        flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return OptimizerParams.from_flat(flat, hidden, feature_dim, output_scale)


def load_checkpoint_metadata(path) -> str:
    """Return the metadata string stored in a checkpoint."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(
                f"corrupt checkpoint: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
            )
        _read_exact(fh, 20, "header")
        (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
        return _read_exact(fh, meta_len, "metadata").decode("utf-8")
