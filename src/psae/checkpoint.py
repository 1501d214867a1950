"""Bit-exact checkpoint files: "PSAE" magic, format version, field-tagged
config, named float32 tensors, trailing CRC-32 of everything before it.

All integers are unsigned 32-bit little-endian except config values, which
are signed 64-bit; tensor data is row-major little-endian float32.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import nn
from .errors import PsaeError
from .model import Checkpoint, ModelConfig, ModelParams, param_shapes

MAGIC = b"PSAE"
FORMAT_VERSION = 1


class CheckpointFormatError(PsaeError):
    pass


class ChecksumError(PsaeError):
    pass


def save_checkpoint_bytes(checkpoint: Checkpoint) -> bytes:
    config = checkpoint.config
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", FORMAT_VERSION)
    config_fields = fields(config)
    out += struct.pack("<I", len(config_fields))
    for f in config_fields:
        name = f.name.encode()
        out += struct.pack("<I", len(name)) + name
        out += struct.pack("<q", int(getattr(config, f.name)))
    for name, tensor in checkpoint.params.tensors.items():
        raw = name.encode()
        out += struct.pack("<I", len(raw)) + raw
        out += struct.pack("<I", tensor.ndim)
        out += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
        data = np.ascontiguousarray(tensor.data, dtype="<f4")
        out += data.tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes, limit: int):
        self.data = data
        self.pos = 0
        self.limit = limit

    def take(self, n: int) -> bytes:
        if self.pos + n > self.limit:
            raise CheckpointFormatError("checkpoint truncated")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def name(self) -> str:
        length = self.u32()
        if length > 4096:
            raise CheckpointFormatError(f"implausible name length {length}")
        try:
            return self.take(length).decode()
        except UnicodeDecodeError:
            raise CheckpointFormatError("name is not valid UTF-8")


def load_checkpoint_bytes(data: bytes) -> Checkpoint:
    if len(data) < len(MAGIC) + 8 or data[:4] != MAGIC:
        raise CheckpointFormatError("not a checkpoint: bad magic")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ChecksumError("checkpoint CRC-32 mismatch (corrupt file)")
    reader = _Reader(data, limit=len(data) - 4)
    reader.take(4)  # magic
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    known = {f.name for f in fields(ModelConfig)}
    config_values: dict[str, int] = {}
    for _ in range(reader.u32()):
        key = reader.name()
        if key not in known:
            raise CheckpointFormatError(f"unknown config field {key!r}")
        if key in config_values:
            raise CheckpointFormatError(f"config field {key!r} repeated")
        config_values[key] = reader.i64()
    if set(config_values) != known:
        missing = sorted(known - set(config_values))
        raise CheckpointFormatError(f"config fields missing: {missing}")
    config = ModelConfig(**config_values)
    config.validate()

    tensors: dict[str, nn.Tensor] = {}
    while reader.pos < reader.limit:
        name = reader.name()
        if name in tensors:
            raise CheckpointFormatError(f"tensor {name!r} repeated")
        rank = reader.u32()
        if rank > 8:
            raise CheckpointFormatError(f"implausible tensor rank {rank}")
        shape = struct.unpack(f"<{rank}I", reader.take(4 * rank))
        count = math.prod(shape)   # cannot wrap, so take rejects a tensor past the end
        buf = reader.take(4 * count)
        data_arr = np.frombuffer(buf, dtype="<f4").reshape(shape).copy()
        tensors[name] = nn.Tensor(data_arr, requires_grad=True)

    expected = param_shapes(config)
    if list(tensors) != list(expected):
        raise CheckpointFormatError("tensor names do not match the config's parameter set")
    for name, shape in expected.items():
        if tensors[name].shape != shape:
            raise CheckpointFormatError(
                f"tensor {name!r} has shape {tensors[name].shape}, expected {shape}")
    return Checkpoint(params=ModelParams(config, tensors), metadata={})


def save_checkpoint(checkpoint: Checkpoint, path: str | Path) -> None:
    Path(path).write_bytes(save_checkpoint_bytes(checkpoint))


def load_checkpoint(path: str | Path) -> Checkpoint:
    return load_checkpoint_bytes(Path(path).read_bytes())
