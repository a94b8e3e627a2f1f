"""Versioned binary checkpoint container.

Layout: 4 magic bytes, a uint32 format version, a uint64 header length, a
JSON header (model config echo, named tensor table, metadata), then raw
little-endian float64 tensor payloads. The named tensor table covers the
model's full parameter census (frozen towers included), so externally
converted weights can be loaded by name. Header keys the loader does not read
are ignored, so files from earlier writers, whose header had one more key,
load the same; so are the derived ``head_dim`` and ``vocab_size`` that
earlier writers put in the model config.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .perception.config import ModelConfig
from .perception.model import PerceptionModel

MAGIC = b"CFCK"
FORMAT_VERSION = 1
_DERIVED_CONFIG_KEYS = ("head_dim", "vocab_size")    # validated when saved


class CheckpointError(RuntimeError):
    pass


@dataclass
class Checkpoint:
    format_version: int
    model_config: dict
    tensors: dict[str, np.ndarray]
    metadata: dict = field(default_factory=dict)


def save_checkpoint(path, model: PerceptionModel,
                    metadata: Optional[dict] = None) -> None:
    table, payload = {}, bytearray()
    for name, tensor in sorted(model.named_parameters().items()):
        arr = np.ascontiguousarray(tensor.data, dtype="<f8")
        table[name] = {"shape": list(arr.shape), "offset": len(payload),
                       "nbytes": arr.nbytes}
        payload.extend(arr.tobytes())
    header = {
        "format_version": FORMAT_VERSION,
        "model_config": model.cfg.to_record(),
        "tensors": table,
        "metadata": metadata or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        f.write(struct.pack("<Q", len(header_bytes)))
        f.write(header_bytes)
        f.write(payload)


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    if len(blob) < 16:
        raise CheckpointError(f"{path}: truncated before the header")
    version, header_len = struct.unpack("<IQ", blob[4:16])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version}, "
                              f"expected {FORMAT_VERSION}")
    try:
        header = json.loads(blob[16:16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise CheckpointError(f"{path}: header is cut off or not UTF-8 JSON: {e}") from e
    body = blob[16 + header_len:]
    try:
        tensors = {}
        for name, rec in header["tensors"].items():
            start, nbytes = rec["offset"], rec["nbytes"]
            if start + nbytes > len(body):
                raise CheckpointError(f"{path}: truncated payload for {name!r}")
            arr = np.frombuffer(body[start:start + nbytes], dtype="<f8")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: tensor {name!r} holds NaN or infinity")
            tensors[name] = arr.reshape(rec["shape"]).copy()
        model_config = {k: v for k, v in header["model_config"].items()
                        if k not in _DERIVED_CONFIG_KEYS}
        return Checkpoint(version, model_config, tensors, header.get("metadata", {}))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        # A header record that is missing, mistyped, or a shape that does
        # not match its byte count.
        raise CheckpointError(f"{path}: malformed header: {e!r}") from e


def load_into_model(ckpt: Checkpoint, model: PerceptionModel) -> None:
    """Copy checkpoint tensors into the model, by name, shape-checked."""
    if ckpt.model_config != model.cfg.to_record():
        raise CheckpointError("checkpoint model config does not match the model; "
                              f"checkpoint: {ckpt.model_config}")
    named = model.named_parameters()
    missing = sorted(set(named) - set(ckpt.tensors))
    unknown = sorted(set(ckpt.tensors) - set(named))
    if missing or unknown:
        raise CheckpointError(f"tensor name mismatch; missing: {missing[:4]}, "
                              f"unknown: {unknown[:4]}")
    for name, tensor in named.items():
        src = ckpt.tensors[name]
        if src.shape != tensor.data.shape:
            raise CheckpointError(f"tensor {name!r}: checkpoint shape "
                                  f"{src.shape} != model shape {tensor.data.shape}")
        tensor.data[:] = src


def model_from_checkpoint(ckpt: Checkpoint) -> PerceptionModel:
    try:
        model = PerceptionModel(ModelConfig.from_record(ckpt.model_config))
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"invalid checkpoint model config: {e}") from e
    load_into_model(ckpt, model)
    return model
