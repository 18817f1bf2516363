"""The learned update rule: a coordinate-wise recurrent cell with shared weights.

Every optimizee coordinate runs the same single-layer LSTM-style cell on its
own hidden state, reading a two-entry feature vector (raw gradient and
Adam-normalized momentum) and emitting a scalar update.  Because weights are
shared across coordinates the optimizer is dimension-agnostic: the same
parameters drive a 2-d Rosenbrock task and a 100-d regression task.

Flat parameter layout (the order of `ParamStack.flat`, gradients and checkpoints):

    W_in, W_forget, W_out_gate, W_cand   each (FEATURE_DIM+hidden, hidden), row-major
    b_in, b_forget, b_out_gate, b_cand   each (hidden,)
    w_proj (hidden,), b_proj (scalar)

The output projection starts at zero so an untrained optimizer proposes the
zero update; `OUTPUT_SCALE` is a fixed architectural constant, not trained.
"""

from __future__ import annotations

import hashlib
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numeric import RngStream

__all__ = [
    "ParamLayout",
    "ParamStack",
    "init_params",
    "random_params",
    "step",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]

# Momentum feature constants (Adam-style normalization).
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# `step` feeds the cell two features per coordinate and scales the cell's
# output by OUTPUT_SCALE; checkpoints record both and must match them.
FEATURE_DIM = 2
OUTPUT_SCALE = 0.01

CHECKPOINT_MAGIC = b"ML2O"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Raised for unreadable, corrupt or incompatible checkpoint files."""


@dataclass(frozen=True)
class ParamLayout:
    """Index arithmetic for the flat parameter vector.

    `pack` writes blocks into flat vectors; a `ParamStack` derives its
    blocks from its flat vectors.  Both only move values, so they are exact.
    """

    hidden: int

    @cached_property
    def rows(self) -> int:
        return FEATURE_DIM + self.hidden

    @cached_property
    def gate_block(self) -> int:
        return self.rows * self.hidden

    @cached_property
    def bias_base(self) -> int:
        return 4 * self.gate_block

    @cached_property
    def proj_base(self) -> int:
        return self.bias_base + 4 * self.hidden

    @cached_property
    def b_proj_index(self) -> int:
        return self.proj_base + self.hidden

    @cached_property
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

    def block_name(self, index: int) -> str:
        """The name of the block that holds flat entry `index`."""
        if index < self.bias_base:
            return ("W_input", "W_forget", "W_out_gate", "W_cand")[index // self.gate_block]
        if index < self.proj_base:
            gate = (index - self.bias_base) // self.hidden
            return ("b_input", "b_forget", "b_out_gate", "b_cand")[gate]
        return "w_proj" if index < self.b_proj_index else "b_proj"


def init_params(hidden: int, rng: RngStream) -> ParamStack:
    """Fresh weights of one optimizer.

    Gate weights are U(-s, s) with s = 1/sqrt(hidden + FEATURE_DIM); the
    forget-gate bias starts at 1 so cell memory survives early unrolls; the
    output projection starts at zero so the initial update rule is a no-op.
    """
    if hidden < 1:
        raise ValueError(f"hidden must be >= 1, got {hidden}")
    layout = ParamLayout(hidden)
    s = 1.0 / np.sqrt(layout.rows)
    flat = np.zeros((1, layout.size))
    # the four gates' (rows, hidden) matrices in flat order, drawn as one
    flat[0, : layout.bias_base] = rng.gen.uniform(-s, s, size=layout.bias_base)
    flat[0, layout.bias_base + hidden : layout.bias_base + 2 * hidden] = 1.0  # forget gate
    return ParamStack(flat, hidden)


def random_params(hidden: int, rng: RngStream, proj_scale: float = 0.5) -> ParamStack:
    """Generic non-degenerate weights of one optimizer, for probing and gradient checks.

    Unlike `init_params` the output projection is nonzero, so every
    parameter block influences the unrolled loss.
    """
    flat = init_params(hidden, rng).flat.copy()
    s = proj_scale / np.sqrt(hidden)
    flat[0, ParamLayout(hidden).proj_base :] = rng.gen.uniform(-s, s, size=hidden + 1)
    return ParamStack(flat, hidden)


def moment_update(m: np.ndarray, v: np.ndarray, grad: np.ndarray, out=None):
    """One accumulator step; returns (m', v', normalized momentum), written into `out` if given."""
    m2, v2, nm = (None,) * 3 if out is None else out
    m2 = np.multiply(m, BETA1, out=m2)
    term = grad * (1.0 - BETA1)
    m2 += term
    np.multiply(grad, 1.0 - BETA2, out=term)
    term *= grad
    v2 = np.multiply(v, BETA2, out=v2)
    v2 += term
    np.sqrt(v2, out=term)
    term += EPS
    return m2, v2, np.divide(m2, term, out=nm)


@dataclass(frozen=True)
class ParamStack:
    """All trainable weights of B optimizers: their flat vectors, one row each.

    A lone optimizer is a stack of size 1.  `flat` (B, |weights|) is the
    only store, in the flat parameter order; the kernel's blocks are derived
    from it on first read and cached, as C-contiguous copies.  `w` holds the
    four gate weight matrices side by side, columns ordered [input | forget |
    output-gate | candidate]; `b` holds the biases in the same order.  The
    blocks carry singleton axes so that they broadcast against the kernel's
    (B, dim, ...) arrays as they are.  Slice i runs trajectory i of a
    lockstep unroll.  Every stacked operation on it computes each slice with
    exactly the floating-point operations of a lone optimizer, so a slice's
    results do not depend on its neighbours.
    """

    flat: np.ndarray  # (B, |weights|)
    hidden: int

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.float64).view()
        flat.flags.writeable = False  # the cached blocks must stay what `flat` holds
        size = self.layout.size
        if flat.ndim != 2 or flat.shape[1] != size:
            raise ValueError(
                f"flat vectors have shape {flat.shape}, expected (B, {size}) "
                f"for hidden={self.hidden}"
            )
        object.__setattr__(self, "flat", flat)

    @property
    def size(self) -> int:
        return self.flat.shape[0]

    @cached_property
    def layout(self) -> ParamLayout:
        return ParamLayout(self.hidden)

    @cached_property
    def w(self) -> np.ndarray:  # (B, FEATURE_DIM + hidden, 4*hidden)
        n, rows, hid = self.size, self.layout.rows, self.hidden
        gates = self.flat[:, : self.layout.bias_base].reshape(n, 4, rows, hid)
        return gates.swapaxes(1, 2).reshape(n, rows, 4 * hid)

    @cached_property
    def b(self) -> np.ndarray:  # (B, 1, 4*hidden)
        return self.flat[:, None, self.layout.bias_base : self.layout.proj_base].copy()

    @cached_property
    def w_proj(self) -> np.ndarray:  # (B, hidden, 1)
        return self.flat[:, self.layout.proj_base : self.layout.b_proj_index, None].copy()

    @cached_property
    def b_proj(self) -> np.ndarray:  # (B, 1, 1)
        return self.flat[:, None, self.layout.b_proj_index :].copy()

    @classmethod
    def of(cls, stacks: list["ParamStack"]) -> "ParamStack":
        """The slices of `stacks`, in order, as one stack."""
        if len({s.hidden for s in stacks}) != 1:
            raise ValueError("stacked optimizers must share hidden")
        return cls(np.concatenate([s.flat for s in stacks]), stacks[0].hidden)

    def check_single(self, what: str) -> None:
        """Refuse a stack that is not one optimizer, for `what` that reads only one."""
        if self.size != 1:
            raise ValueError(f"{what} needs a stack of one optimizer, got {self.size}")

    def digest(self) -> str:
        """Digest of a lone optimizer: the checkpoint header's sizes and the flat weights."""
        self.check_single("digest")
        h = hashlib.blake2b(digest_size=16)
        h.update(struct.pack("<IId", self.hidden, FEATURE_DIM, OUTPUT_SCALE))
        h.update(np.ascontiguousarray(self.flat).tobytes())
        return h.hexdigest()


def logistic_gates(act: np.ndarray, hidden: int, out: np.ndarray | None = None) -> np.ndarray:
    """The input, forget and output gates of activations act (B, dim, 4*hidden).

    Returns them gate-major, (3, B, dim, hidden), so that each gate is
    contiguous: 1/(1+exp(-a)) of the first three hidden-wide blocks, bit for
    bit scipy's `expit`.  numpy runs `exp` through its scalar libm loop only
    for a reversed 1-D input written to a fresh array; a forward input, a
    reversed output or a reversed view of more dimensions (which numpy flips
    back) takes SIMD loops whose bits change with the CPU.  Overflow is not
    reported, as `expit` never reported it.  `out`, if given, is the
    C-contiguous (3, B, dim, hidden) array to write the gates into.  Guarded
    by tests/test_cell.py::test_gates_are_expit_bit_for_bit.
    """
    b, d = act.shape[:2]
    if out is None:
        out = np.empty((3, b, d, hidden))
    elif not out.flags.c_contiguous:
        raise ValueError("logistic_gates writes its gates through a C-contiguous out")
    np.negative(act[:, :, : 3 * hidden].reshape(b, d, 3, hidden).transpose(2, 0, 1, 3), out=out)
    flat = out.reshape(-1)
    with np.errstate(over="ignore"):
        e = np.exp(flat[::-1])
    e += 1.0
    np.divide(1.0, e[::-1], out=flat)
    return out


def cell_forward(
    params: ParamStack, x: np.ndarray, c: np.ndarray, bias: np.ndarray | None = None, out=None
):
    """One recurrent step for all coordinates of all B trajectories at once.

    x holds the features and the hidden state side by side, (B, dim,
    FEATURE_DIM + hidden); c is (B, dim, hidden).  `bias` is params.b, or the
    same spread over the dim axis, (B, dim, 4*hidden), by a caller that steps
    many times (the sum is the same; a spread bias adds without broadcasting).
    Returns (h', c', cache); the cache (x, gates, gq, c, tau) holds what the
    backward pass needs, with the input, forget and output gates as one
    gate-major (3, B, dim, hidden) array.  `out`, if given, is the arrays
    (h', c', gates, gq, tau, act) to write into, act (B, dim, 4*hidden) being
    scratch; gates, gq and tau must be C-contiguous.
    """
    hid = params.hidden
    h2, c2, gates, gq, tau, act = (None,) * 6 if out is None else out
    act = np.matmul(x, params.w, out=act)
    act += params.b if bias is None else bias
    gates = logistic_gates(act, hid, gates)
    gi, gf, go = gates
    gq = np.tanh(act[:, :, 3 * hid :], out=gq)
    c2 = np.multiply(gf, c, out=c2)
    tau = np.multiply(gi, gq, out=tau)  # scratch until tanh(c')
    c2 += tau
    np.tanh(c2, out=tau)
    h2 = np.multiply(go, tau, out=h2)
    return h2, c2, (x, gates, gq, c, tau)


def predict_update(params: ParamStack, h2: np.ndarray, out: np.ndarray | None = None):
    """Per-coordinate update columns (B, dim, 1) from hidden states (B, dim, hidden).

    They are written into `out` if given.
    """
    update = np.matmul(h2, params.w_proj, out=out)
    update += params.b_proj
    update *= OUTPUT_SCALE
    return update


def step(
    params: ParamStack,
    grad: np.ndarray,
    h: np.ndarray,
    c: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    bias: np.ndarray | None = None,
    out=None,
):
    """One update-rule step of B trajectories: features -> cell -> update.

    grad, m and v are columns (B, dim, 1), h and c are (B, dim, hidden); see
    `cell_forward` for `bias`.  The features are [raw gradient | normalized
    momentum].  Returns (update, h', c', m', v', cache): the update columns to
    add to the iterates, the advanced state, and the cell's cache, whose
    first entry holds the features and h side by side.

    `out`, if given, is the views the step writes its values into, and it
    allocates only temporaries: (x, m', v', update, cell), with x (B, dim,
    FEATURE_DIM + hidden) the features and h side by side and `cell` the
    `out` of `cell_forward`.  x's hidden columns must already hold h, as
    they do when the previous step wrote its h' there, so h is not read.
    """
    if out is None:
        x = np.empty(grad.shape[:2] + (FEATURE_DIM + h.shape[2],))
        x[..., FEATURE_DIM:] = h
        out = (x, None, None, None, None)
    x, m2, v2, update, cell = out
    x[..., :1] = grad
    m2, v2, _ = moment_update(m, v, grad, (m2, v2, x[..., 1:2]))
    h2, c2, cache = cell_forward(params, x, c, bias, cell)
    return predict_update(params, h2, update), h2, c2, m2, v2, cache


def save_checkpoint(params: ParamStack, path, metadata: str = "") -> None:
    """Write a little-endian binary checkpoint of a stack of one optimizer.

    Layout: magic "ML2O", u32 version, u32 hidden, u32 FEATURE_DIM,
    f64 OUTPUT_SCALE, u32 metadata byte length, metadata (utf-8),
    u64 payload count, payload float64s in flat parameter order,
    u32 CRC-32 of the payload bytes.
    """
    params.check_single("save_checkpoint")
    payload = np.ascontiguousarray(params.flat, dtype="<f8").tobytes()
    meta = metadata.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(
            struct.pack("<IIId", CHECKPOINT_VERSION, params.hidden, FEATURE_DIM, OUTPUT_SCALE)
        )
        fh.write(struct.pack("<I", len(meta)))
        fh.write(meta)
        fh.write(struct.pack("<Q", params.layout.size))
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


def _read_header(fh) -> tuple[int, str]:
    """Check and read a checkpoint's header: (hidden, metadata)."""
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
    if hidden < 1 or feature_dim < 1:
        raise CheckpointError(
            f"corrupt checkpoint: hidden={hidden}, feature_dim={feature_dim}; both must be >= 1"
        )
    if feature_dim != FEATURE_DIM:
        raise CheckpointError(
            f"corrupt checkpoint: feature_dim={feature_dim}, this build reads {FEATURE_DIM}"
        )
    if output_scale != OUTPUT_SCALE:
        raise CheckpointError(
            f"corrupt checkpoint: output_scale={output_scale!r}, this build reads {OUTPUT_SCALE!r}"
        )
    (meta_len,) = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))
    try:
        metadata = _read_exact(fh, meta_len, "metadata").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint: metadata is not UTF-8 ({exc})") from exc
    return hidden, metadata


@contextmanager
def _checkpoint_file(path):
    """The checkpoint at `path`, open for reading; every `CheckpointError` names `path`."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"{os.fspath(path)}: cannot open: {exc.strerror}") from exc
    with fh:
        try:
            yield fh
        except CheckpointError as exc:
            raise CheckpointError(f"{os.fspath(path)}: {exc}") from exc


def load_checkpoint(path) -> ParamStack:
    """Read a checkpoint written by `save_checkpoint` as a stack of one; see it for the layout."""
    with _checkpoint_file(path) as fh:
        hidden, _ = _read_header(fh)
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, "payload count"))
        expected = ParamLayout(hidden).size
        if count != expected:
            raise CheckpointError(
                f"checkpoint header inconsistent with payload: header says "
                f"hidden={hidden} ({expected} values) but payload count is {count}"
            )
        payload = _read_exact(fh, 8 * count, "payload")
        (crc,) = struct.unpack("<I", _read_exact(fh, 4, "checksum"))
        if crc != zlib.crc32(payload):
            raise CheckpointError("corrupt checkpoint: payload checksum mismatch")
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left:
            raise CheckpointError(f"corrupt checkpoint: {left} bytes after the checksum")
        flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return ParamStack(flat[None], hidden)


def load_checkpoint_metadata(path) -> str:
    """Return the metadata string stored in a checkpoint."""
    with _checkpoint_file(path) as fh:
        return _read_header(fh)[1]
