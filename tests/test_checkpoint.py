import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuselab.checkpoint import (Checkpoint, CheckpointError,
                                generator_state_from_array,
                                generator_state_to_array, load_checkpoint,
                                save_checkpoint)


def sample_checkpoint(rng):
    return Checkpoint(
        tensors={"enc.W": rng.normal(size=(4, 3)), "enc.b": rng.normal(size=3),
                 "scalar": np.array(2.5)},
        optimizer={"adam.step": np.array(17.0),
                   "adam.m.enc.W": rng.normal(size=(4, 3))},
        rng={"noise": generator_state_to_array(np.random.default_rng(5))},
        config_text="lr = 0.001\ntask = classification\n",
    )


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ckpt = sample_checkpoint(rng)
    path = tmp_path / "c.bin"
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert back.config_text == ckpt.config_text
    for block_a, block_b in ((ckpt.tensors, back.tensors),
                             (ckpt.optimizer, back.optimizer),
                             (ckpt.rng, back.rng)):
        assert set(block_a) == set(block_b)
        for name in block_a:
            assert np.asarray(block_a[name]).shape == block_b[name].shape
            assert np.array_equal(np.asarray(block_a[name], dtype=np.float64),
                                  block_b[name])


def test_save_is_deterministic(tmp_path):
    ckpt = sample_checkpoint(np.random.default_rng(1))
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(a, ckpt)
    save_checkpoint(b, ckpt)
    assert a.read_bytes() == b.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "c.bin"
    save_checkpoint(path, sample_checkpoint(np.random.default_rng(2)))
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "c.bin"
    save_checkpoint(path, sample_checkpoint(np.random.default_rng(3)))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "c.bin"
    save_checkpoint(path, sample_checkpoint(np.random.default_rng(4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_duplicate_name_rejected(tmp_path):
    path = tmp_path / "c.bin"
    with open(path, "wb") as fh:
        fh.write(b"FUSE")
        fh.write(struct.pack("<I", 1))
        fh.write(struct.pack("<I", 2))  # two entries, same name
        for _ in range(2):
            fh.write(struct.pack("<H", 1) + b"w")
            fh.write(struct.pack("<B", 0))
            fh.write(struct.pack("<d", 1.0))
        for _ in range(2):  # empty optimizer and rng blocks
            fh.write(struct.pack("<I", 0))
        fh.write(struct.pack("<I", 0))
    with pytest.raises(CheckpointError, match="duplicate"):
        load_checkpoint(path)


def write_hostile_header(path, dims):
    """A checkpoint whose one tensor claims `dims` but carries 8 bytes."""
    with open(path, "wb") as fh:
        fh.write(b"FUSE" + struct.pack("<I", 1) + struct.pack("<I", 1))
        fh.write(struct.pack("<H", 1) + b"w" + struct.pack("<B", len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(struct.pack("<d", 1.0))
        fh.write(struct.pack("<III", 0, 0, 0))


HOSTILE_DIMS = [(2**20, 2**20), (2**32 - 1,) * 3, (2**31, 2**31, 4)]


@pytest.mark.parametrize("dims", HOSTILE_DIMS)
def test_hostile_dims_rejected_before_reading(tmp_path, dims):
    path = tmp_path / "c.bin"
    write_hostile_header(path, dims)
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_empty_checkpoint_round_trip(tmp_path):
    path = tmp_path / "c.bin"
    save_checkpoint(path, Checkpoint())
    back = load_checkpoint(path)
    assert back.tensors == {} and back.optimizer == {} and back.rng == {}
    assert back.config_text == ""


def test_generator_state_round_trip():
    gen = np.random.default_rng(123)
    gen.normal(size=100)  # advance the stream
    arr = generator_state_to_array(gen)
    clone = generator_state_from_array(arr)
    assert np.array_equal(gen.normal(size=50), clone.normal(size=50))


def test_generator_state_survives_f64_file(tmp_path):
    gen = np.random.default_rng(999)
    gen.integers(0, 1000, size=37)
    path = tmp_path / "c.bin"
    save_checkpoint(path, Checkpoint(rng={"g": generator_state_to_array(gen)}))
    clone = generator_state_from_array(load_checkpoint(path).rng["g"])
    assert np.array_equal(gen.integers(0, 10, size=20),
                          clone.integers(0, 10, size=20))


def test_unicode_names_and_config(tmp_path):
    path = tmp_path / "c.bin"
    ckpt = Checkpoint(tensors={"enc.é": np.array([1.0])},
                      config_text="note = café\n")
    save_checkpoint(path, ckpt)
    back = load_checkpoint(path)
    assert "enc.é" in back.tensors
    assert back.config_text == ckpt.config_text


def corrupt_name(raw):      # the first tensor name starts at byte 14
    return raw[:14] + b"\xff" + raw[15:]


def corrupt_config(raw):
    return raw[:-2] + b"\xc3" + raw[-1:]


@pytest.mark.parametrize("edit, message", [
    (corrupt_name, "tensor name is not UTF-8"),
    (corrupt_config, "config block is not UTF-8"),
    (lambda raw: raw + b"\x00", "1 trailing bytes after the config block"),
])
def test_corrupt_bytes_rejected(tmp_path, edit, message):
    path = tmp_path / "c.bin"
    save_checkpoint(path, sample_checkpoint(np.random.default_rng(5)))
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_rank_above_numpy_limit_rejected(tmp_path):
    path = tmp_path / "c.bin"
    write_hostile_header(path, (1,) * 65)
    with pytest.raises(CheckpointError, match="maximum supported dimension"):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "c.bin"
    save_checkpoint(path, sample_checkpoint(np.random.default_rng(6)))
    return path, path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(edits=st.lists(st.tuples(st.integers(0, 2**20), st.integers(0, 255)), max_size=6),
       cut=st.none() | st.integers(0, 2**20), tail=st.binary(max_size=4))
@example(edits=[(14, 0xff)], cut=None, tail=b"")
@example(edits=[], cut=None, tail=b"\x00")
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(fuzz_file, edits, cut, tail):
    """Byte edits, a cut and appended bytes: the reader returns a checkpoint
    or raises CheckpointError, and raises nothing else."""
    path, original = fuzz_file
    raw = bytearray(original)
    for pos, byte in edits:
        raw[pos % len(raw)] = byte
    if cut is not None:
        raw = raw[:cut % (len(raw) + 1)]
    path.write_bytes(bytes(raw) + tail)
    try:
        assert isinstance(load_checkpoint(path), Checkpoint)
    except CheckpointError:
        pass
