"""Binary checkpoint format.

Layout (little-endian): magic ``FUSE``, version u32; then three framed
blocks (model tensors, optimizer tensors, RNG-state tensors), each a u32
entry count followed by entries of: name length u16 + UTF-8 name, rank u8,
dims as u32s, payload as f64; finally a u32-length-prefixed UTF-8 text block
echoing the configuration.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"FUSE"
VERSION = 1


class CheckpointError(Exception):
    """Bad magic, unsupported version, truncation, trailing bytes, text that
    is not UTF-8, a shape numpy cannot hold, or a name collision."""


@dataclass
class Checkpoint:
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    optimizer: dict[str, np.ndarray] = field(default_factory=dict)
    rng: dict[str, np.ndarray] = field(default_factory=dict)
    config_text: str = ""


def _write_block(fh, entries: dict[str, np.ndarray]) -> None:
    fh.write(struct.pack("<I", len(entries)))
    for name, arr in entries.items():
        # note: ascontiguousarray would promote 0-d arrays to 1-d
        arr = np.asarray(arr, dtype=np.float64, order="C")
        encoded = name.encode("utf-8")
        fh.write(struct.pack("<H", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            fh.write(struct.pack("<I", d))
        fh.write(arr.tobytes())


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CheckpointError("truncated checkpoint file")
    return buf


def _read_block(fh, file_size: int) -> dict[str, np.ndarray]:
    (count,) = struct.unpack("<I", _read_exact(fh, 4))
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
        name = _decode(_read_exact(fh, name_len), "tensor name")
        if name in out:
            raise CheckpointError(f"duplicate tensor name {name!r}")
        (rank,) = struct.unpack("<B", _read_exact(fh, 1))
        shape = tuple(struct.unpack("<I", _read_exact(fh, 4))[0] for _ in range(rank))
        # Python ints cannot overflow; a corrupt header must not size the read
        n_bytes = 8 * math.prod(shape)
        left = file_size - fh.tell()
        if n_bytes > left:
            raise CheckpointError(
                f"truncated checkpoint file: tensor {name!r} of shape {shape} "
                f"needs {n_bytes} bytes, {left} remain")
        payload = _read_exact(fh, n_bytes)
        try:
            out[name] = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        except ValueError as exc:      # rank above 64, or a size numpy cannot index
            raise CheckpointError(f"tensor {name!r} of shape {str(shape):.60}: {exc}") from None
    return out


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{what} is not UTF-8: {exc}") from None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        _write_block(fh, ckpt.tensors)
        _write_block(fh, ckpt.optimizer)
        _write_block(fh, ckpt.rng)
        text = ckpt.config_text.encode("utf-8")
        fh.write(struct.pack("<I", len(text)))
        fh.write(text)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if _read_exact(fh, 4) != MAGIC:
            raise CheckpointError(f"bad magic in {path}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        tensors = _read_block(fh, size)
        optimizer = _read_block(fh, size)
        rng = _read_block(fh, size)
        (text_len,) = struct.unpack("<I", _read_exact(fh, 4))
        text = _decode(_read_exact(fh, text_len), "config block")
        if fh.tell() != size:
            raise CheckpointError(
                f"{size - fh.tell()} trailing bytes after the config block")
    return Checkpoint(tensors=tensors, optimizer=optimizer, rng=rng,
                      config_text=text)


# -- RNG state <-> f64 limbs -------------------------------------------------

def generator_state_to_array(gen: np.random.Generator) -> np.ndarray:
    """PCG64 state packed as exactly representable 32-bit limbs."""
    st = gen.bit_generator.state
    limbs: list[float] = []
    for v in (st["state"]["state"], st["state"]["inc"]):
        for i in range(4):  # 128-bit integers
            limbs.append(float((v >> (32 * i)) & 0xFFFFFFFF))
    limbs.append(float(st["has_uint32"]))
    limbs.append(float(st["uinteger"]))
    return np.array(limbs)


def generator_state_from_array(arr: np.ndarray) -> np.random.Generator:
    limbs = [int(x) for x in arr]
    state = sum(limbs[i] << (32 * i) for i in range(4))
    inc = sum(limbs[4 + i] << (32 * i) for i in range(4))
    gen = np.random.default_rng(0)
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": limbs[8],
        "uinteger": limbs[9],
    }
    return gen
