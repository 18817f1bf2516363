"""Seeded fuzzing of the three input parsers: checkpoints, config files and
the cached curves entries of `--cache-dir`.

Every mutated input must either load or fail with the parser's own error
(`CheckpointError`, `ConfigError`); any other exception is a hole.  A
checkpoint or config that loads must also build an optimizer that runs a
cell step; curves that load must agree with themselves: each text holds one
row per loss, and each cut is None or its curve's length.
"""

import random
import struct

import numpy as np
import pytest

from ml2o.cell import (
    CheckpointError,
    init_params,
    load_checkpoint,
    load_checkpoint_metadata,
    random_params,
    save_checkpoint,
    step,
)
from ml2o.config import ConfigError, load_config
from ml2o.evaluation import CURVE_HEADER, render_curve
from ml2o.numeric import RngStream
from ml2o.store import load_curves, save_curves
from conftest import set_curves_head
from test_cli import TINY


def run_step(params) -> None:
    h = np.zeros((1, 3, params.hidden))
    col = np.zeros((1, 3, 1))
    step(params, col, h, h, col, col)


def loads_or_checkpoint_error(path) -> bool:
    """Read `path` with both loaders; True if `load_checkpoint` accepted it."""
    try:
        load_checkpoint_metadata(path)
    except CheckpointError:
        pass
    try:
        params = load_checkpoint(path)
    except CheckpointError:
        return False
    run_step(params)
    return True


@pytest.fixture
def checkpoint_bytes(tmp_path):
    path = tmp_path / "good.ckpt"
    save_checkpoint(random_params(3, RngStream(11)), path, metadata="trainer=plain key=é")
    return path.read_bytes()


def test_fuzz_checkpoint_truncations(checkpoint_bytes, tmp_path):
    path = tmp_path / "t.ckpt"
    for n in range(len(checkpoint_bytes)):
        path.write_bytes(checkpoint_bytes[:n])
        assert not loads_or_checkpoint_error(path), n
    path.write_bytes(checkpoint_bytes)
    assert loads_or_checkpoint_error(path)


def test_fuzz_checkpoint_byte_flips(checkpoint_bytes, tmp_path):
    rnd = random.Random(20241018)
    path = tmp_path / "f.ckpt"
    for _ in range(400):
        raw = bytearray(checkpoint_bytes)
        for _ in range(rnd.choice((1, 1, 2, 3))):
            raw[rnd.randrange(len(raw))] ^= rnd.randrange(1, 256)
        path.write_bytes(bytes(raw))
        loads_or_checkpoint_error(path)


def test_fuzz_checkpoint_absurd_headers(checkpoint_bytes, tmp_path):
    # hidden at offset 8, the metadata length at 24 and the payload count
    # right after the metadata
    meta_len = struct.unpack_from("<I", checkpoint_bytes, 24)[0]
    count_at = 28 + meta_len
    fields = [(8, "<I", v) for v in (2, 2**20, 2**31, 2**32 - 1)]
    fields += [(24, "<I", v) for v in (0, meta_len + 1, 2**31, 2**32 - 1)]
    fields += [(count_at, "<Q", v) for v in (0, 1, 2**40, 2**63, 2**64 - 1)]
    path = tmp_path / "h.ckpt"
    for offset, fmt, value in fields:
        raw = bytearray(checkpoint_bytes)
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        assert not loads_or_checkpoint_error(path), (offset, value)


def test_fuzz_checkpoint_appended_bytes(checkpoint_bytes, tmp_path):
    # whatever follows the checksum is refused, not ignored
    rnd = random.Random(20261019)
    path = tmp_path / "a.ckpt"
    for n in (1, 4, 16, 4096):
        path.write_bytes(checkpoint_bytes + bytes(rnd.randrange(256) for _ in range(n)))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: corrupt checkpoint: {n} bytes after the checksum"


def config_mutants(rnd: random.Random, n: int):
    """Mutated copies of the tiny test config, as bytes."""
    lines = TINY.strip("\n").split("\n")
    junk_values = ["abc", "1.5", "", "nan", "-1", "0", "1e400", "true", "10,x", "é"]
    junk_lines = [
        "[DEFAULT]", "[bogus]", "bogus = 1", "[meta]", "seed", "= 3", "  indented = 1",
        "feature_dim = 3", "curriculum = doubling", "hidden = 0", "%(seed)s = 1", "[]", "[meta",
    ]
    for _ in range(n):
        mutant = list(lines)
        for _ in range(rnd.randint(1, 3)):
            i = rnd.randrange(len(mutant))
            op = rnd.randrange(5)
            if op == 0:
                del mutant[i]
            elif op == 1:
                mutant.insert(i, mutant[i])
            elif op == 2:
                mutant.insert(i, rnd.choice(junk_lines))
            elif op == 3 and "=" in mutant[i]:
                key = mutant[i].split("=")[0]
                mutant[i] = f"{key}= {rnd.choice(junk_values)}"
            else:
                j = rnd.randrange(len(mutant))
                mutant[i], mutant[j] = mutant[j], mutant[i]
        data = ("\n".join(mutant) + "\n").encode("utf-8")
        if rnd.random() < 0.1:
            at = rnd.randrange(len(data))
            data = data[:at] + bytes([rnd.randrange(0x80, 0x100)]) + data[at:]
        yield data


def test_fuzz_config_mutants(tmp_path):
    path = tmp_path / "m.ini"
    loaded = refused = 0
    for data in config_mutants(random.Random(7), 400):
        path.write_bytes(data)
        try:
            meta = load_config(str(path)).meta
        except ConfigError:
            refused += 1
            continue
        run_step(init_params(meta.hidden, RngStream(meta.seed)))
        loaded += 1
    assert loaded and refused  # the mutants reach both outcomes


# three curves (n = 3): one whole, one cut at its end, one cut before its first step
CURVES = [(np.array([1.5, -0.0, 5e-324]), None), (np.array([0.25, 3.0]), 2), (np.empty(0), 0)]


@pytest.fixture
def curves_path(tmp_path):
    path = tmp_path / "good.crv"
    save_curves([(losses, cut, render_curve(losses)) for losses, cut in CURVES], path)
    return path


def loads_curves_or_checkpoint_error(path) -> bool:
    """Read `path` with `load_curves`; True if it loaded, and then consistently."""
    try:
        curves = load_curves(path)
    except CheckpointError as exc:
        assert str(exc).startswith(f"{path}: ")
        return False
    for losses, cut, text in curves:
        assert text.startswith(CURVE_HEADER)
        assert len(text.splitlines()) - 1 == len(losses)
        assert cut is None or cut == len(losses)
    return True


def test_fuzz_curves_truncations(curves_path):
    blob = curves_path.read_bytes()
    for n in range(len(blob)):
        curves_path.write_bytes(blob[:n])
        assert not loads_curves_or_checkpoint_error(curves_path), n
    curves_path.write_bytes(blob)
    assert loads_curves_or_checkpoint_error(curves_path)


def test_fuzz_curves_byte_flips(curves_path):
    rnd = random.Random(20261020)
    blob = curves_path.read_bytes()
    for _ in range(400):
        raw = bytearray(blob)
        for _ in range(rnd.choice((1, 1, 2, 3))):
            raw[rnd.randrange(len(raw))] ^= rnd.randrange(1, 256)
        curves_path.write_bytes(bytes(raw))
        loads_curves_or_checkpoint_error(curves_path)


def test_fuzz_curves_appended_bytes(curves_path):
    # whatever follows the checksum is refused, not ignored
    rnd = random.Random(20261021)
    blob = curves_path.read_bytes()
    for n in (1, 4, 16, 4096):
        curves_path.write_bytes(blob + bytes(rnd.randrange(256) for _ in range(n)))
        assert not loads_curves_or_checkpoint_error(curves_path), n


def test_fuzz_curves_absurd_heads(curves_path):
    # each head field (n, 3 cuts, 3 curve lengths, 3 text lengths) set to an absurd
    # value under a recomputed checksum, so that the mutant reaches the length checks
    blob = curves_path.read_bytes()
    absurd = (-2**63, -7, -1, 0, 1, 2, 3, 5, 2**31, 2**62, 2**63 - 1)
    mutants = [(at, (value,)) for at in range(10) for value in absurd]
    # int64 sums that wrap to the true totals, and lengths moved between curves
    mutants += [(1, (-7, -1, -1, 2**63 - 1, 2**63 - 1, 7)), (4, (2**63 - 1, 2**63 - 1, 7)),
                (4, (2, 3, 0)), (4, (3, 1, 1)), (7, (48, 20)), (8, (10, 21))]
    loaded = 0
    for at, values in mutants:
        curves_path.write_bytes(blob)
        set_curves_head(curves_path, at, *values)
        loaded += loads_curves_or_checkpoint_error(curves_path)
    assert 0 < loaded < len(mutants)  # the mutants reach both outcomes
