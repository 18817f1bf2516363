import hashlib
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.special import expit

import pins
from conftest import child_env, make_quadratic, write_checkpoint
from ml2o.cell import (
    FEATURE_DIM,
    OUTPUT_SCALE,
    CheckpointError,
    ParamLayout,
    ParamStack,
    cell_forward,
    init_params,
    load_checkpoint,
    load_checkpoint_metadata,
    logistic_gates,
    random_params,
    save_checkpoint,
    step,
)
from ml2o.numeric import RngStream
from ml2o.theory import input_sensitivity
from ml2o.unroll import jacobian_recursive, unroll


def step_one(params, grad, h=None, c=None, m=None, v=None):
    """`step` at B=1 on one trajectory's vectors; missing state starts at zero.

    Returns (update, h', c', m', v', features) with the stack axis dropped.
    """
    d, hid = len(grad), params.hidden
    h = np.zeros((d, hid)) if h is None else h
    c = np.zeros((d, hid)) if c is None else c
    m = np.zeros(d) if m is None else m
    v = np.zeros(d) if v is None else v
    col = lambda a: np.asarray(a, dtype=np.float64).reshape(1, d, 1)
    update, h2, c2, m2, v2, cache = step(params, col(grad), h[None], c[None], col(m), col(v))
    feats = cache[0][0, :, :FEATURE_DIM]
    return update[0, :, 0], h2[0], c2[0], m2[0, :, 0], v2[0, :, 0], feats


def test_param_layout_size_and_serialized_entries(rng, tmp_path):
    # 4 gates of (22x20 weights + 20 biases), 20 projection weights and its
    # bias; the output scale is stored in the header, outside the payload.
    assert ParamLayout(20).size == 4 * (22 * 20 + 20) + 20 + 1
    assert ParamLayout(20).size == 1861
    params = init_params(20, rng)
    assert params.size == 1 and params.layout.size == 1861
    path = tmp_path / "c.ckpt"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    (output_scale,) = struct.unpack("<d", raw[16:24])
    (meta_len,) = struct.unpack("<I", raw[24:28])
    (count,) = struct.unpack("<Q", raw[28 + meta_len : 36 + meta_len])
    assert count == ParamLayout(20).size
    assert output_scale == OUTPUT_SCALE == 0.01
    assert len(raw) == 36 + meta_len + 8 * count + 4
    # the block of every flat entry, as gradient errors name it
    layout = ParamLayout(3)  # each gate 5 x 3 weights and 3 biases
    gates = ("input", "forget", "out_gate", "cand")
    assert [layout.block_name(j) for j in range(layout.size)] == (
        [f"W_{g}" for g in gates for _ in range(15)] + [f"b_{g}" for g in gates for _ in range(3)]
        + ["w_proj"] * 3 + ["b_proj"]
    )


def test_init_zero_projection_means_zero_update(rng):
    params = init_params(6, rng)
    theta = rng.gen.normal(size=4)
    update, *_ = step_one(params, rng.gen.normal(size=4))
    assert np.array_equal(update, np.zeros(4))
    assert np.array_equal(theta + update, theta)


def test_init_is_seed_deterministic():
    a = init_params(5, RngStream(3).child("i"))
    b = init_params(5, RngStream(3).child("i"))
    assert np.array_equal(a.flat, b.flat)


def test_init_bias_and_range():
    params = init_params(8, RngStream(1))
    h = 8
    b = params.b[0, 0]
    assert np.all(b[h : 2 * h] == 1.0)  # forget gate
    assert np.all(b[:h] == 0.0) and np.all(b[2 * h :] == 0.0)
    s = 1.0 / np.sqrt(10)
    assert np.all(np.abs(params.w) <= s)
    assert np.all(params.w_proj == 0.0) and params.b_proj == 0.0


def test_features_first_step_closed_form(rng):
    g = np.array([2.0, -3.0, 0.5])
    _, _, _, m, v, feats = step_one(init_params(4, rng), g)
    assert np.allclose(m, 0.1 * g)
    assert np.allclose(v, 0.001 * g * g)
    expected = 0.1 * g / (np.sqrt(0.001 * g * g) + 1e-8)
    assert np.allclose(feats[:, 1], expected)
    assert np.allclose(np.abs(feats[:, 1]), 3.1623, atol=1e-3)
    assert np.array_equal(feats[:, 0], g)


def test_features_zero_gradients_stay_zero():
    params = init_params(4, RngStream(0))
    state = ()
    for _ in range(5):
        _, *state, feats = step_one(params, np.zeros(3), *state)
        assert np.array_equal(feats, np.zeros((3, 2)))


def test_momentum_feature_scale_invariance():
    params = init_params(4, RngStream(0))
    for g in (1.0, 4.0, 100.0):
        f1 = step_one(params, np.array([g]))[-1]
        f2 = step_one(params, np.array([2 * g]))[-1]
        assert abs(f1[0, 1] - f2[0, 1]) < 1e-6


def test_step_closed_form_gates():
    # all gate weights zero, forget bias 1, fresh state: the cell emits zero
    # hidden state, so the update is exactly OUTPUT_SCALE * b_proj
    h = 4
    layout = ParamLayout(h)
    flat = np.zeros((1, layout.size))
    flat[0, layout.bias_base + h : layout.bias_base + 2 * h] = 1.0
    flat[0, layout.b_proj_index] = 0.25
    params = ParamStack(flat, h)
    update, h2, c2, *_ = step_one(params, np.array([1.0, -2.0, 3.0]))
    assert np.allclose(update, 0.01 * 0.25)
    assert np.array_equal(h2, np.zeros((3, h)))
    assert np.array_equal(c2, np.zeros((3, h)))


# The gates' edge cases: signed zero and infinity, NaN, the smallest and the
# largest subnormal, the last finite and the first infinite exp(-a) (709.78,
# 709.79), and an exp(-a) that underflows to zero (745.2), of either sign.
GATE_EDGES = (0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
              -2.2250738585072009e-308, 709.78, -709.78, 709.79, -709.79, 745.2, -745.2)


def wide_activations(b, d, hid, seed=0):
    """Activations (b, d, 4*hid): the gate edge cases, then normals of widths 1 to 800."""
    gen = np.random.default_rng(seed)
    size = b * d * 4 * hid
    act = gen.normal(size=size) * gen.choice([1.0, 10.0, 100.0, 800.0], size=size)
    n = min(len(GATE_EDGES), size)
    act[gen.permutation(size)[:n]] = GATE_EDGES[:n]
    return act.reshape(b, d, 4 * hid)


def expit_gates(act, hid):
    return [expit(act[:, :, k * hid : (k + 1) * hid]) for k in range(3)]


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 2, 10])
@pytest.mark.parametrize("b", [1, 4, 12, 64])
def test_gates_are_expit_bit_for_bit(b, d):
    hid = 20
    act = wide_activations(b, d, hid)
    gates = logistic_gates(act, hid)
    for got, want in zip(gates, expit_gates(act, hid)):
        assert got.flags.c_contiguous
        assert same_bits(got, want)
    # the same into a given array; one that a flat write would copy is refused
    out = np.empty((2, 3, b, d, hid))[1]
    assert logistic_gates(act, hid, out) is out and same_bits(out, gates)
    with pytest.raises(ValueError, match="C-contiguous"):
        logistic_gates(act, hid, np.empty((3, b, d, 2 * hid))[..., ::2])
    # the same through the cell, on the activations its cache implies
    params = ParamStack.of([random_params(hid, RngStream(s)) for s in range(b)])
    gen = np.random.default_rng(1)
    z = gen.normal(scale=300.0, size=(b, d, FEATURE_DIM))
    h, c = gen.uniform(-1, 1, size=(2, b, d, hid))
    _, _, (x, gates, *_) = cell_forward(params, np.concatenate([z, h], axis=2), c)
    for got, want in zip(gates, expit_gates(x @ params.w + params.b, hid)):
        assert got.flags.c_contiguous
        assert same_bits(got, want)


GATES_IN_CHILD = """
import hashlib, sys
import numpy as np
from ml2o.cell import logistic_gates
act = np.frombuffer(sys.stdin.buffer.read()).reshape(12, 10, 80)
print(hashlib.blake2b(logistic_gates(act, 20).tobytes()).hexdigest())
"""


@pytest.mark.parametrize("features", ["X86_V4", "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"])
def test_gates_do_not_depend_on_simd_dispatch(features):
    # np.exp on a contiguous array changes bits when these targets are
    # disabled; the gates must not, as scipy's expit does not
    act = wide_activations(12, 10, 20)
    want = pins.digest(np.stack(expit_gates(act, 20)), size=64)
    child = subprocess.run(
        [sys.executable, "-c", GATES_IN_CHILD], input=act.tobytes(),
        env=child_env(NPY_DISABLE_CPU_FEATURES=features),
        capture_output=True, timeout=60, check=True,
    )
    assert child.stdout.decode().split() == [want]


def test_gates_raise_no_overflow_warning(rng):
    # np.exp warns on overflow, expit never did; nothing here sets errstate,
    # and the zero features and state make the activations the biases
    hid = 4
    params = random_params(hid, rng)
    params.b[0, 0, : 3 * hid] = np.tile([800.0, -800.0], 3 * hid // 2)
    zeros = np.zeros((1, 2, FEATURE_DIM + hid))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, (_, gates, *_) = cell_forward(params, zeros, zeros[..., :hid])
        logistic_gates(np.full((1, 2, 4 * hid), -800.0), hid, np.empty((3, 1, 2, hid)))
    assert np.array_equal(np.concatenate(gates, axis=2), np.tile([1.0, 0.0], (1, 2, 3 * hid // 2)))


def test_shared_weights_give_identical_updates_for_identical_histories(rng):
    params = random_params(5, rng)
    update, *_ = step_one(params, np.array([1.5, 1.5, -0.2, 1.5]))
    assert update[0] == update[1] == update[3]


def test_update_magnitude_bound(rng):
    params = random_params(6, rng, proj_scale=2.0)
    bound = OUTPUT_SCALE * (np.abs(params.w_proj).sum() + abs(params.b_proj))
    for _ in range(50):
        h = rng.gen.uniform(-1, 1, size=(5, 6))
        c = rng.gen.normal(size=(5, 6))
        update, *_ = step_one(params, rng.gen.normal(size=5) * 100, h, c)
        assert np.all(np.abs(update) <= bound + 1e-15)


def test_coordinate_permutation_equivariance(rng):
    d = 6
    task = make_quadratic(rng, d)
    params = random_params(5, rng)
    theta0 = rng.gen.normal(size=d)
    perm = rng.gen.permutation(d)
    p = np.eye(d)[perm]
    task_p = type(task)(kind=task.kind, dim=d, a=p @ task.a @ p.T, b=p @ task.b, lam=task.lam)
    res = unroll(params, task, theta0, 5)
    res_p = unroll(params, task_p, p @ theta0, 5)
    assert np.allclose(res_p.theta_final, p @ res.theta_final, rtol=1e-12, atol=1e-12)


def test_flat_round_trip(rng):
    params = random_params(7, rng)
    back = ParamStack(params.flat, 7)
    assert np.array_equal(back.flat, params.flat)
    assert np.array_equal(back.w, params.w)
    # packing the derived blocks gives the flat vectors back
    n = params.size
    packed = params.layout.pack(
        params.w, params.b.reshape(n, -1), params.w_proj.reshape(n, -1), params.b_proj.reshape(n)
    )
    assert np.array_equal(packed, params.flat)
    with pytest.raises(ValueError, match=r"expected \(B, 288\) for hidden=7"):
        ParamStack(params.flat[:, :-1], 7)
    with pytest.raises(ValueError, match="expected"):
        ParamStack(params.flat[0], 7)
    with pytest.raises(ValueError, match="read-only"):
        back.flat[0, 0] = 1.0  # the blocks are cached, so the store cannot change


def test_stack_of_lone_optimizers_matches_per_optimizer_blocks(rng):
    lone = [random_params(5, rng.child(f"p/{i}")) for i in range(3)]
    stack = ParamStack.of(lone)
    assert stack.size == 3 and stack.hidden == 5
    # the blocks of a stack built by stacking each optimizer's own blocks
    blocks = {
        "w": np.stack([p.w[0] for p in lone]),
        "b": np.stack([p.b[0, 0] for p in lone])[:, None, :],
        "w_proj": np.stack([p.w_proj[0, :, 0] for p in lone])[:, :, None],
        "b_proj": np.array([float(p.b_proj[0, 0, 0]) for p in lone]).reshape(3, 1, 1),
    }
    for name, want in blocks.items():
        got = getattr(stack, name)
        assert got.shape == want.shape and np.array_equal(got, want), name
    assert np.array_equal(stack.flat, np.concatenate([p.flat for p in lone]))
    # a stack built from flat vectors: each gate's (rows, hidden) matrix, the
    # biases and the projection, read at their places in the flat order
    layout = ParamLayout(5)
    flat = RngStream(11).gen.normal(size=(3, layout.size))
    built = ParamStack(flat, 5)
    g = layout.gate_block
    want = {
        "w": np.concatenate(
            [flat[:, k * g : (k + 1) * g].reshape(3, layout.rows, 5) for k in range(4)], axis=2
        ),
        "b": flat[:, None, layout.bias_base : layout.proj_base],
        "w_proj": flat[:, layout.proj_base : layout.b_proj_index, None],
        "b_proj": flat[:, None, layout.b_proj_index :],
    }
    for name, block in want.items():
        got = getattr(built, name)
        assert got.shape == block.shape and got.tobytes() == block.tobytes(), name
        assert got.flags.c_contiguous and not np.shares_memory(got, flat), name
    # slices keep the stack axis and concatenate back in any order
    again = ParamStack.of([ParamStack(stack.flat[[2]], 5), ParamStack(stack.flat[0:2], 5)])
    assert np.array_equal(again.flat, stack.flat[[2, 0, 1]])
    with pytest.raises(ValueError, match="share hidden"):
        ParamStack.of([lone[0], random_params(4, rng)])


def test_lone_optimizer_readers_refuse_larger_stacks(rng, tmp_path):
    pair = ParamStack.of([random_params(3, rng), random_params(3, rng)])
    with pytest.raises(ValueError, match="stack of one optimizer, got 2"):
        save_checkpoint(pair, tmp_path / "pair.ckpt")
    assert not (tmp_path / "pair.ckpt").exists()
    with pytest.raises(ValueError, match="stack of one optimizer, got 2"):
        pair.digest()
    task = make_quadratic(rng, 2)
    with pytest.raises(ValueError, match="stack of one optimizer, got 2"):
        jacobian_recursive(pair, task, np.zeros(2), 1)
    with pytest.raises(ValueError, match="stack of one optimizer, got 2"):
        input_sensitivity(pair)
    with pytest.raises(ValueError, match="2 optimizers but 1 tasks"):
        unroll(pair, task, np.zeros(2), 1)
    # a slice of one is a lone optimizer again
    save_checkpoint(ParamStack(pair.flat[[1]], 3), tmp_path / "one.ckpt")
    assert load_checkpoint(tmp_path / "one.ckpt").digest() == ParamStack(pair.flat[1:2], 3).digest()


def test_checkpoint_round_trip_bit_exact(rng, tmp_path):
    params = random_params(6, rng)
    path = tmp_path / "w.ckpt"
    save_checkpoint(params, path, metadata="unit-test")
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.flat, params.flat)
    assert load_checkpoint_metadata(path) == "unit-test"


def test_checkpoint_truncation_detected(rng, tmp_path):
    params = random_params(6, rng)
    path = tmp_path / "w.ckpt"
    save_checkpoint(params, path)
    raw = path.read_bytes()
    (tmp_path / "t.ckpt").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(tmp_path / "t.ckpt")


def test_checkpoint_bad_magic(tmp_path):
    (tmp_path / "x.ckpt").write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(tmp_path / "x.ckpt")


def test_checkpoint_version_mismatch_names_versions(rng, tmp_path):
    params = random_params(4, rng)
    path = tmp_path / "w.ckpt"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    (tmp_path / "v.ckpt").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 9.*version 1"):
        load_checkpoint(tmp_path / "v.ckpt")


def test_checkpoint_header_payload_mismatch(rng, tmp_path):
    params = random_params(4, rng)
    path = tmp_path / "w.ckpt"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = struct.pack("<I", 11)  # claim a different hidden size
    (tmp_path / "h.ckpt").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="inconsistent"):
        load_checkpoint(tmp_path / "h.ckpt")


def test_checkpoint_corrupt_payload(rng, tmp_path):
    params = random_params(4, rng)
    path = tmp_path / "w.ckpt"
    save_checkpoint(params, path)
    raw = bytearray(path.read_bytes())
    raw[60] ^= 0xFF
    (tmp_path / "c.ckpt").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum|truncated|inconsistent"):
        load_checkpoint(tmp_path / "c.ckpt")


@pytest.mark.parametrize("hidden, feature_dim", [(0, 0), (0, 2), (4, 0)])
def test_checkpoint_zero_sizes_rejected(tmp_path, hidden, feature_dim):
    path = write_checkpoint(tmp_path / "z.ckpt", hidden, feature_dim)
    if hidden == feature_dim == 0:
        assert path.stat().st_size == 48
    with pytest.raises(CheckpointError, match="must be >= 1"):
        load_checkpoint(path)


def test_checkpoint_other_feature_dim_rejected(tmp_path):
    # a consistent, CRC-valid file whose cell reads three features
    path = write_checkpoint(tmp_path / "f3.ckpt", 4, 3)
    for loader in (load_checkpoint, load_checkpoint_metadata):
        with pytest.raises(CheckpointError, match="feature_dim=3"):
            loader(path)


def test_checkpoint_other_output_scale_rejected(tmp_path):
    # a consistent, CRC-valid file whose update rule scales by 0.02
    path = write_checkpoint(tmp_path / "s.ckpt", 4, 2, output_scale=0.02)
    for loader in (load_checkpoint, load_checkpoint_metadata):
        with pytest.raises(CheckpointError, match="output_scale=0.02"):
            loader(path)


@pytest.mark.pinned
def test_checkpoint_bytes_and_digest_are_pinned(tmp_path):
    # both fixed sizes stay in the header and the digest, so files and
    # digests written before they became constants are unchanged
    params = init_params(3, RngStream(7))
    path = tmp_path / "p.ckpt"
    save_checkpoint(params, path, metadata="trainer=plain key=fixed")
    assert pins.digest(path.read_bytes()) == pins.CHECKPOINT_FILE_DIGEST
    assert params.digest() == pins.CHECKPOINT_PARAMS_DIGEST


@pytest.mark.pinned
def test_random_params_bytes_and_digest_are_pinned():
    # the order in which init_params and random_params draw into the flat vector
    params = random_params(4, RngStream(7))
    assert params.flat.shape == (1, ParamLayout(4).size) == (1, 117)
    sha256 = hashlib.sha256(params.flat.astype("<f8").tobytes()).hexdigest()
    assert sha256 == pins.RANDOM_PARAMS_SHA256
    assert params.digest() == pins.RANDOM_PARAMS_DIGEST


def test_checkpoint_metadata_must_be_utf8(rng, tmp_path):
    path = tmp_path / "w.ckpt"
    save_checkpoint(random_params(4, rng), path, metadata="ab")
    raw = bytearray(path.read_bytes())
    raw[28] = 0xFF  # first metadata byte, after magic, header and length
    (tmp_path / "m.ckpt").write_bytes(bytes(raw))
    for loader in (load_checkpoint, load_checkpoint_metadata):
        with pytest.raises(CheckpointError, match="UTF-8"):
            loader(tmp_path / "m.ckpt")


def test_checkpoint_metadata_reader_checks_the_header(rng, tmp_path):
    path = tmp_path / "w.ckpt"
    save_checkpoint(random_params(4, rng), path, metadata="m")
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    (tmp_path / "v.ckpt").write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 9"):
        load_checkpoint_metadata(tmp_path / "v.ckpt")
    with pytest.raises(CheckpointError, match="must be >= 1"):
        load_checkpoint_metadata(write_checkpoint(tmp_path / "z.ckpt", 0, 2))
