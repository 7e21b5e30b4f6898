"""Binary model checkpoints with a CRC-32 trailer.

Layout, all multi-byte values little-endian:

    magic "SATN" | u32 version=1 | u32 h, c, v_buckets, t_max, f
    | u8 encoder kind (0=meanpool, 1=minitransformer)
    | u32 vocab count, then per code u16 byte-length + UTF-8 bytes
    | tensors as raw float32, row-major, pinned order:
      E, P, kind-specific encoder tensors in declaration order, then S, W, b
    | u32 CRC-32 of all preceding bytes

The tensor shapes come from each kind's spec (`MeanPoolParams.spec`,
`MiniTransformerParams.spec`, `HeadParams.spec`). Loading checks the file
length and the CRC before it decodes any code or builds any array, so a
corrupted file ends in a CheckpointError, never a decoding error; so does
a file whose CRC matches but whose codes are not distinct UTF-8 strings,
or not c of them (saving refuses such a checkpoint too). It reproduces
every tensor bit-exactly. Training metadata (epochs run, best validation
micro-F1, seed) lives only on the in-memory object; the byte layout above
is the whole on-disk contract.

Saving streams the header and then each tensor's own buffer into the file
that `output_file` opens, folding each part into a running CRC, so it
builds no file-sized copy. Loading reads the file into one bytes object
and walks one `memoryview` of it, so the only other copy is each tensor's
aligned, writable float32 array.
"""

from __future__ import annotations

import math
import os
import stat
import struct
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .corpus import LabelVocabulary
from .encoder import ENCODER_PARAMS, MEANPOOL, MINITRANSFORMER, EncoderParams, ModelDims
from .head import HeadParams

MAGIC = b"SATN"
VERSION = 1
_KIND_CODES = {MEANPOOL: 0, MINITRANSFORMER: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


class CheckpointError(Exception):
    """Base class for checkpoint file failures."""


class BadMagic(CheckpointError):
    pass


class UnsupportedVersion(CheckpointError):
    pass


class ChecksumMismatch(CheckpointError):
    pass


class TruncatedFile(CheckpointError):
    pass


@dataclass
class TrainMeta:
    epochs_run: int
    best_val_micro_f1: float
    seed: int


@dataclass
class Checkpoint:
    dims: ModelDims
    vocab: LabelVocabulary
    encoder_params: EncoderParams
    head_params: HeadParams
    version: int = VERSION
    meta: TrainMeta | None = None

    @property
    def kind(self) -> str:
        return self.encoder_params.kind

    def tensors(self) -> list[tuple[str, np.ndarray]]:
        return model_tensors(self.encoder_params, self.head_params)


def model_tensors(encoder_params: EncoderParams, head_params: HeadParams) -> list[tuple[str, np.ndarray]]:
    """A model's named tensors in file order: the encoder's, then S, W, b."""
    return encoder_params.named_tensors() + head_params.named_tensors()


@contextmanager
def output_file(path: str | Path) -> Iterator[BinaryIO]:
    """`path` opened for writing in binary: the package's one rule for replacing an output file.

    Symlinks are followed. A regular or missing target is written to a temp
    file beside it, synced, given the previous file's mode and renamed over
    it; on any exception the temp file is removed and the target left whole.
    A device or pipe is written through; a directory fails to open.
    """
    path = Path(os.path.realpath(path))
    previous = path.stat() if path.exists() else None
    if previous is not None and not stat.S_ISREG(previous.st_mode):
        with path.open("wb") as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        if previous is not None:
            os.chmod(tmp, stat.S_IMODE(previous.st_mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_checkpoint(ckpt: Checkpoint, fh: BinaryIO) -> None:
    """Write the pinned byte layout and its CRC-32 trailer into the binary file `fh`."""
    d = ckpt.dims
    if len(ckpt.vocab) != d.c:
        raise CheckpointError(f"{len(ckpt.vocab)} label codes for c = {d.c}")
    parts = [MAGIC]
    parts.append(struct.pack("<6I", VERSION, d.h, d.c, d.v_buckets, d.t_max, d.f))
    parts.append(struct.pack("<B", _KIND_CODES[ckpt.kind]))
    parts.append(struct.pack("<I", len(ckpt.vocab)))
    for code in ckpt.vocab.codes:
        raw = code.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)) + raw)
    tensors = dict(ckpt.tensors())
    for name, shape in ENCODER_PARAMS[ckpt.kind].spec(d) + HeadParams.spec(d.c, d.h):
        t = tensors[name]
        if t.shape != shape:
            raise CheckpointError(f"tensor {name} has shape {t.shape}, expected {shape}")
        parts.append(np.ascontiguousarray(t, dtype="<f4"))
    crc = 0
    for part in parts:
        fh.write(part)
        crc = zlib.crc32(part, crc)
    fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write the checkpoint to `path` through `output_file`, so a failed save leaves the previous file whole."""
    with output_file(path) as fh:
        write_checkpoint(ckpt, fh)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = memoryview(blob)
        self.pos = 0

    def take(self, n: int) -> memoryview:
        if self.pos + n > len(self.blob):
            raise TruncatedFile(f"needed {n} bytes at offset {self.pos}, file ends at {len(self.blob)}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Parse and verify a checkpoint file; every tensor comes back bit-exact.

    The layout is walked as raw bytes first; the length and the CRC are
    checked before any code is decoded or any array is built.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read {path}: {exc}") from exc
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise BadMagic(f"{path} is not a checkpoint file")
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise UnsupportedVersion(f"version {version}, supported: {VERSION}")
    h, c, v_buckets, t_max, f, kind_code = r.unpack("<5IB")
    if kind_code not in _KIND_NAMES:
        raise CheckpointError(f"unknown encoder kind code {kind_code}")
    kind = _KIND_NAMES[kind_code]
    try:
        dims = ModelDims(h=h, c=c, v_buckets=v_buckets, t_max=t_max, f=f)
    except ValueError as exc:
        raise CheckpointError(f"bad dimensions in header: {exc}") from exc
    raw_codes = [r.take(r.unpack("<H")[0]) for _ in range(r.unpack("<I")[0])]
    cls = ENCODER_PARAMS[kind]
    enc_spec, head_spec = cls.spec(dims), HeadParams.spec(dims.c, dims.h)
    raw = {name: r.take(4 * math.prod(shape)) for name, shape in enc_spec + head_spec}
    (stored,) = r.unpack("<I")
    if r.pos != len(blob):
        raise CheckpointError(f"{len(blob) - r.pos} unexpected trailing bytes")
    if stored != zlib.crc32(r.blob[: r.pos - 4]) & 0xFFFFFFFF:
        raise ChecksumMismatch("stored CRC-32 does not match file contents")
    if len(raw_codes) != c:
        raise CheckpointError(f"{len(raw_codes)} label codes for c = {c}")

    def arrays(spec):
        return {name: np.frombuffer(raw[name], dtype="<f4").reshape(shape).astype(np.float32)
                for name, shape in spec}

    try:
        vocab = LabelVocabulary(codes=[str(code, "utf-8") for code in raw_codes])
    except ValueError as exc:  # not UTF-8, or a repeated code
        raise CheckpointError(f"bad label vocabulary: {exc}") from exc
    return Checkpoint(dims=dims, vocab=vocab, encoder_params=cls(**arrays(enc_spec)),
                      head_params=HeadParams(**arrays(head_spec)), version=version)
