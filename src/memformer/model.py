"""The assembled classifier and its checkpoint format.

A batch of W_s x W_s x S windows is tokenized and projected; each token row
gets its positional row, then a CLS row, which carries no positional row, is
prepended. The N+1 rows run through L encoder layers (attention block, then
an FFN with its own residual LayerNorm), and the logits are read from the
mean of the final rows. The attention block is either the memory-enhanced
variant or plain self-attention, selected per config for ablations.

The pooled readout matters: memory attention never mixes tokens within a
pass (keys and values come only from the shared bank), so any single fixed
position, the CLS row included, carries no per-sample signal at eval time.
Averaging over all rows keeps every token's residual path in the logits and
makes the model trainable in both attention modes.

A read-only forward (eval mode under ``autodiff.no_grad``, two windows or
more) encodes the first half of its rows on the calling thread and hands
the rest to the process's one worker thread through ``autodiff._split_rows``,
then classifies all rows at once. Every logit is bitwise that of the unsplit
forward: a row's encoder output depends on its own window alone, and the
classifier's product sees the whole batch. A train step runs on the same
two threads inside ``autodiff``: each FFN splits its rows, and the backward
hands the worker the weight, bias and gain gradients.
Importing the module sets glibc's malloc, for the whole process, to one
arena and to fixed mmap and trim thresholds, so that warm forwards on
either thread and warm train steps fault in no pages.

Checkpoints (magic ``MFCK``) store the format version, the full config, and
one named record per tensor, parameters and memory banks alike, as
little-endian float64. Loading rebuilds the model from the stored config and
overwrites every tensor, so a round trip is bit identity.
"""

from __future__ import annotations

import ctypes
import math
import struct
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from ._checks import _I64_MAX, _require_float, _require_int
from .attention import MemoryAttention, StandardAttention, residual_norm
from .embedding import PE_MODES, PatchProjector, PositionalEmbedding, tokenize_batch

__all__ = [
    "ModelConfig",
    "MemFormer",
    "CheckpointError",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_VERSION",
]

ATTENTION_MODES = ("memory", "standard")
CHECKPOINT_VERSION = 1
# the sizes an MFCK config block stores as u32, and the ceilings of its fields
_CONFIG_INTS = ("window", "patch", "bands", "embed", "layers", "heads", "ffn", "memory", "classes")
_U32_MAX = 2**32 - 1
# glibc mallopt parameters: the most malloc arenas a process makes, the
# smallest block mmapped on its own, and the free top of the heap that
# malloc gives back to the kernel
_M_ARENA_MAX, _M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD = -8, -3, -1
# By default glibc gives each thread that allocates an arena of its own, and
# both thresholds follow the largest block freed so far. The encoder
# worker's arena then gives each half's pages back to the kernel as the
# half frees them, and the next half faults them in again: 38k minor faults
# per benchmark `eval` operation. Each `train` operation after the first
# faults 107-116k times, as its train steps and evaluation free and fault
# in their pages again. What a fault costs moves with the host, and
# throughput moves with it. One arena, no mmap below 32 MiB and no trim
# below 64 MiB keep every warm forward and train step, in the whole
# process, in pages already faulted in (0 and 4-105 faults per operation).
# They are the only thing that does: every autodiff op allocates its
# output through malloc, and every train step frees its graph through it.
# Without glibc's mallopt (macOS, Windows) nothing changes
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(_M_ARENA_MAX, 1)
    _mallopt(_M_MMAP_THRESHOLD, 32 * 2**20)
    _mallopt(_M_TRIM_THRESHOLD, 64 * 2**20)
except (AttributeError, OSError, TypeError):
    pass


class CheckpointError(ValueError):
    """A checkpoint file is malformed or contradicts the expected config."""


@dataclass
class ModelConfig:
    window: int = 14
    patch: int = 2
    bands: int = 16
    embed: int = 64
    layers: int = 4
    heads: int = 8
    ffn: int = 256
    memory: int = 10
    classes: int = 2
    dropout: float = 0.1
    pe_mode: str = "sspe"
    attention: str = "memory"
    seed: int = 0

    def __post_init__(self):
        # fields are stored as Python ints, floats and strs that fit MFCK
        for name in _CONFIG_INTS:
            minimum = 0 if name == "layers" else 1
            setattr(self, name, _require_int(name, getattr(self, name), minimum, _U32_MAX))
        self.seed = _require_int("seed", self.seed, 0, _I64_MAX)
        if self.embed % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide embed ({self.embed})")
        if self.window % self.patch != 0:
            raise ValueError(f"patch ({self.patch}) must divide window ({self.window})")
        self.dropout = _require_float("dropout", self.dropout, 1)
        if self.pe_mode not in PE_MODES:
            raise ValueError(f"pe_mode must be one of {PE_MODES}, got {self.pe_mode!r}")
        if self.attention not in ATTENTION_MODES:
            raise ValueError(f"attention must be one of {ATTENTION_MODES}, got {self.attention!r}")
        self.pe_mode, self.attention = str(self.pe_mode), str(self.attention)


class _EncoderLayer:
    """Attention block followed by an FFN with its own residual norm."""

    def __init__(self, cfg, rng):
        if cfg.attention == "memory":
            self.attn = MemoryAttention(
                cfg.embed, cfg.heads, cfg.memory, rng, dropout_rate=cfg.dropout
            )
        else:
            self.attn = StandardAttention(cfg.embed, cfg.heads, rng, dropout_rate=cfg.dropout)
        self.ffn_w1 = ad.glorot_uniform(rng, (cfg.embed, cfg.ffn))
        self.ffn_b1 = ad.parameter(np.zeros(cfg.ffn))
        self.ffn_w2 = ad.glorot_uniform(rng, (cfg.ffn, cfg.embed))
        self.ffn_b2 = ad.parameter(np.zeros(cfg.embed))
        self.ln_gain = ad.parameter(np.ones(cfg.embed))
        self.ln_bias = ad.parameter(np.zeros(cfg.embed))
        self.dropout = cfg.dropout

    def ffn(self, x):
        return ad._mlp(x, self.ffn_w1, self.ffn_b1, self.ffn_w2, self.ffn_b2)

    def forward(self, z, train, rng):
        a, _ = self.attn.forward(z, train=train, rng=rng)
        return residual_norm(a, self.ffn(a), self.ln_gain, self.ln_bias, self.dropout, rng, train)

    def parameters(self, prefix):
        params = self.attn.parameters(f"{prefix}.attn")
        params.update(
            {
                f"{prefix}.ffn_w1": self.ffn_w1,
                f"{prefix}.ffn_b1": self.ffn_b1,
                f"{prefix}.ffn_w2": self.ffn_w2,
                f"{prefix}.ffn_b2": self.ffn_b2,
                f"{prefix}.ln_gain": self.ln_gain,
                f"{prefix}.ln_bias": self.ln_bias,
            }
        )
        return params


class MemFormer:
    """Window classifier with selectable attention and positional modes."""

    def __init__(self, config):
        self.config = config
        init_seq, drop_seq = np.random.SeedSequence(config.seed).spawn(2)
        rng = np.random.default_rng(init_seq)
        self.dropout_rng = np.random.default_rng(drop_seq)
        self.cls = ad.parameter(np.zeros(config.embed))
        self.projector = PatchProjector(config.embed, config.patch, config.bands, rng)
        self.positional = PositionalEmbedding(
            config.pe_mode, config.embed, config.window // config.patch, config.bands, rng
        )
        self.layers = [_EncoderLayer(config, rng) for _ in range(config.layers)]
        self.classifier_w = ad.glorot_uniform(rng, (config.embed, config.classes))
        self.classifier_b = ad.parameter(np.zeros(config.classes))

    # -- state access -------------------------------------------------------
    def parameters(self):
        """Ordered name -> trainable tensor map."""
        params = {"cls": self.cls}
        params.update(self.projector.parameters())
        params.update(self.positional.parameters())
        for i, layer in enumerate(self.layers):
            params.update(layer.parameters(f"layer{i}"))
        params["classifier.weight"] = self.classifier_w
        params["classifier.bias"] = self.classifier_b
        return params

    def _banks(self):
        """Record name -> memory attention block, in layer order (empty in standard mode)."""
        return {
            f"layer{i}.attn.memory": layer.attn
            for i, layer in enumerate(self.layers)
            if isinstance(layer.attn, MemoryAttention)
        }

    def buffers(self):
        """Name -> memory bank array map (empty in standard mode)."""
        return {name: attn.memory for name, attn in self._banks().items()}

    def set_buffer(self, name, values):
        """Overwrite the bank that ``buffers()`` lists under ``name``."""
        banks = self._banks()
        if name not in banks:
            raise ValueError(f"{name!r} is not a memory bank record; expected one of {list(banks)}")
        attn = banks[name]
        values = np.asarray(values, dtype=np.float64)
        if values.shape != attn.memory.shape:
            raise ValueError(f"{name}: shape {values.shape} != {attn.memory.shape}")
        attn.memory = values.copy()

    def count_params(self):
        """(trainable, non_trainable): parameter census and memory-bank sizes."""
        trainable = sum(p.data.size for p in self.parameters().values())
        non_trainable = sum(b.size for b in self.buffers().values())
        return trainable, non_trainable

    # -- forward pass -----------------------------------------------------------
    def forward(self, batch, train=False):
        """(B, W_s, W_s, S) windows -> (B, C) logits.

        A read-only forward, one in eval mode under ``autodiff.no_grad`` with
        B >= 2, splits the encoder by rows with ``autodiff._split_rows``: the
        worker thread encodes rows [ceil(B/2), B), or the calling thread if
        the worker has not started them once it has encoded the rest; each
        half in one pass. The pooled rows are joined in row order and the
        classifier runs once on all B of them, so its BLAS kernel sees the
        batch's own row count and the logits are bitwise those of the
        unsplit forward. If a half raises, the error reaches the caller once
        neither half is running. Train-mode and recording forwards never
        split the encoder, only their FFN rows (see ``autodiff._mlp``): a
        train step updates the banks from the batch mean and draws its
        dropout masks in batch order.
        """
        batch = np.asarray(batch, dtype=np.float64)
        cfg = self.config
        want = (cfg.window, cfg.window, cfg.bands)
        if batch.ndim != 4 or batch.shape[1:] != want:
            raise ValueError(f"batch must be (B, {want[0]}, {want[1]}, {want[2]}), got {batch.shape}")
        if not np.isfinite(batch).all():
            raise ValueError("batch contains non-finite values")
        b = batch.shape[0]

        if train or b < 2 or ad._recording.get():
            pooled = self._encode(batch, train)
        else:
            pooled = ad.concat(ad._split_rows(lambda rows: self._encode(batch[rows], False), b), axis=0)
        return ad.affine(pooled, self.classifier_w, self.classifier_b)

    def _encode(self, batch, train):
        """(B, W_s, W_s, S) windows -> (B, K) mean of the final encoder rows.

        In eval mode each row is a function of its own window alone,
        whatever B is."""
        cfg = self.config
        b = batch.shape[0]
        tokens = tokenize_batch(batch, cfg.patch)
        z = ad.add(self.projector.forward(tokens), self.positional.forward(tokens))
        cls_row = ad.broadcast_to(ad.reshape(self.cls, (1, 1, cfg.embed)), (b, 1, cfg.embed))
        z = ad.concat([cls_row, z], axis=1)

        for i, layer in enumerate(self.layers):
            try:
                z = layer.forward(z, train, self.dropout_rng)
            except ValueError as e:
                raise ValueError(f"layer {i}: {e}") from e
            if not np.isfinite(z.data).all():
                raise ValueError(f"layer {i}: non-finite activations")
        return ad.tensor_mean(z, axis=1)


# -- checkpoint serialization ----------------------------------------------------

_MAGIC = b"MFCK"
# the config block: the nine sizes, dropout, pe_mode and attention indices, seed
_CONFIG_BLOCK = struct.Struct("<9IdBBq")


def save_checkpoint(model, path):
    """Write config, parameters, and memory banks as one MFCK file."""
    cfg = model.config
    blob = bytearray(_MAGIC)
    blob += struct.pack("<H", CHECKPOINT_VERSION)
    modes = PE_MODES.index(cfg.pe_mode), ATTENTION_MODES.index(cfg.attention)
    blob += _CONFIG_BLOCK.pack(*(getattr(cfg, n) for n in _CONFIG_INTS), cfg.dropout, *modes, cfg.seed)
    records = {name: p.data for name, p in model.parameters().items()}
    records.update(model.buffers())
    for name, arr in records.items():
        encoded = name.encode()
        blob += struct.pack("<H", len(encoded))
        blob += encoded
        blob += struct.pack("<B", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(blob))


def _take(data, offset, size, path, what):
    if offset + size > len(data):
        raise CheckpointError(
            f"{path}: truncated at byte {len(data)} while reading {what} "
            f"(need {offset + size} bytes)"
        )
    return data[offset : offset + size], offset + size


def load_checkpoint(path, expect=None):
    """Rebuild a model from an MFCK file.

    ``expect`` is an optional ModelConfig; any stored field that differs is
    rejected by name before tensors are touched.
    """
    data = Path(path).read_bytes()
    if len(data) < 4 or data[:4] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic at byte 0: expected {_MAGIC!r}, found {bytes(data[:4])!r}")
    raw, offset = _take(data, 4, 2, path, "version")
    version = struct.unpack("<H", raw)[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: version mismatch: file has {version}, expected {CHECKPOINT_VERSION}")

    config_at = offset
    raw, offset = _take(data, offset, _CONFIG_BLOCK.size, path, "config block")
    *ints, dropout, pe_idx, attn_idx, seed = _CONFIG_BLOCK.unpack(raw)
    if pe_idx >= len(PE_MODES):
        raise CheckpointError(f"{path}: unknown pe_mode index {pe_idx}")
    if attn_idx >= len(ATTENTION_MODES):
        raise CheckpointError(f"{path}: unknown attention index {attn_idx}")
    try:
        cfg = ModelConfig(
            **dict(zip(_CONFIG_INTS, ints)),
            dropout=dropout,
            pe_mode=PE_MODES[pe_idx],
            attention=ATTENTION_MODES[attn_idx],
            seed=seed,
        )
    except ValueError as e:
        raise CheckpointError(f"{path}: invalid config block at byte {config_at}: {e}") from None

    if expect is not None:
        for f in fields(ModelConfig):
            got, want = getattr(cfg, f.name), getattr(expect, f.name)
            if got != want:
                raise CheckpointError(
                    f"{path}: config mismatch on field {f.name!r}: checkpoint has {got!r}, expected {want!r}"
                )

    records = {}
    while offset < len(data):
        start = offset
        raw, offset = _take(data, offset, 2, path, "record name length")
        name_len = struct.unpack("<H", raw)[0]
        raw, offset = _take(data, offset, name_len, path, "record name")
        try:
            name = raw.decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: record name at byte {offset - name_len} is not valid UTF-8") from None
        if name in records:
            raise CheckpointError(f"{path}: duplicate record {name!r} at byte {start}")
        raw, offset = _take(data, offset, 1, path, f"rank of {name!r}")
        rank = raw[0]
        raw, offset = _take(data, offset, 4 * rank, path, f"extents of {name!r}")
        shape = struct.unpack(f"<{rank}I", raw)
        # Python integers: a numpy product of large extents can wrap to 0
        count = math.prod(shape)
        raw, offset = _take(data, offset, 8 * count, path, f"data of {name!r}")
        try:
            values = np.frombuffer(raw, dtype="<f8").reshape(shape)
        except ValueError as e:  # numpy's rank and total-size limits
            raise CheckpointError(f"{path}: record {name!r} at byte {start} has unusable extents: {e}") from None
        if not np.isfinite(values).all():
            raise CheckpointError(f"{path}: record {name!r} at byte {start} holds non-finite values")
        records[name] = values

    model = MemFormer(cfg)
    expected = {name: p.data.shape for name, p in model.parameters().items()}
    expected.update({name: b.shape for name, b in model.buffers().items()})
    missing = sorted(set(expected) - set(records))
    unknown = sorted(set(records) - set(expected))
    if missing or unknown:
        raise CheckpointError(f"{path}: record mismatch: missing {missing}, unknown {unknown}")
    for name, arr in records.items():
        if arr.shape != expected[name]:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {arr.shape}, expected {expected[name]}"
            )
    params = model.parameters()
    for name, arr in records.items():
        if name in params:
            params[name].data = arr.astype(np.float64)
        else:
            model.set_buffer(name, arr)
    return model
