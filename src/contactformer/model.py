"""Transformer encoder with contact-map-restricted self-attention.

Architecture: token embedding scaled by sqrt(d) plus sinusoidal positional
encoding, a stack of post-norm encoder layers (multi-head self-attention,
then a ReLU feed-forward block, each wrapped in dropout + residual +
layer norm), masked-mean pooling over non-pad positions, and a linear
classifier head. One per-pair attention mask (true = may not attend)
decides which keys each query sees; padded keys are disallowed in it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor

CHECKPOINT_MAGIC = b"CFCK"
CHECKPOINT_VERSION = 2

ATTENTION_MODES = ("contact", "full")


class ConfigMismatch(ValueError):
    """Batch, params, or checkpoint disagree with the model config."""


class CheckpointError(ValueError):
    """Checkpoint file is unreadable or fails validation."""


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    embed_dim: int = 256
    n_heads: int = 8
    n_layers: int = 5
    ffn_dim: int | None = None
    dropout: float = 0.1
    max_len: int = 512
    vocab_size: int = 21  # 20 residues + pad index 0
    attention_mode: str = "contact"
    use_positional: bool = True

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError(f"n_classes must be >= 1, got {self.n_classes}")
        if self.embed_dim % self.n_heads != 0:
            raise ValueError(
                f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.attention_mode not in ATTENTION_MODES:
            raise ValueError(f"attention_mode must be one of {ATTENTION_MODES}")
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 4 * self.embed_dim)


def positional_encoding(length: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal table: PE[p, 2i] = sin(p / 10000^(2i/d)), PE[p, 2i+1] = cos."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    two_i = np.arange(0, dim, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, two_i / dim)
    pe = np.zeros((length, dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : dim // 2])
    return pe.astype(dtype)


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)


def init_params(
    config: ModelConfig,
    rng: np.random.Generator,
    dtype=np.float32,
) -> dict[str, Parameter]:
    """Fresh parameter set; insertion order is the checkpoint order."""
    d, f, c = config.embed_dim, config.ffn_dim, config.n_classes
    params: dict[str, Parameter] = {}

    def put(name: str, data: np.ndarray):
        params[name] = Parameter(name, Tensor(data, requires_grad=True))

    put("embed.weight", (rng.standard_normal((config.vocab_size, d)) / math.sqrt(d)).astype(dtype))
    for i in range(config.n_layers):
        for proj in ("q", "k", "v", "out"):
            put(f"layers.{i}.attn.{proj}.weight", _xavier(rng, d, d, dtype))
            put(f"layers.{i}.attn.{proj}.bias", np.zeros(d, dtype=dtype))
        put(f"layers.{i}.ln1.scale", np.ones(d, dtype=dtype))
        put(f"layers.{i}.ln1.shift", np.zeros(d, dtype=dtype))
        put(f"layers.{i}.ffn.w1.weight", _xavier(rng, d, f, dtype))
        put(f"layers.{i}.ffn.w1.bias", np.zeros(f, dtype=dtype))
        put(f"layers.{i}.ffn.w2.weight", _xavier(rng, f, d, dtype))
        put(f"layers.{i}.ffn.w2.bias", np.zeros(d, dtype=dtype))
        put(f"layers.{i}.ln2.scale", np.ones(d, dtype=dtype))
        put(f"layers.{i}.ln2.shift", np.zeros(d, dtype=dtype))
    # Small classifier init keeps initial logits near uniform, so the
    # starting loss sits at ~log(C) instead of inflating with logit variance.
    put("classifier.weight", (0.02 * rng.standard_normal((d, c))).astype(dtype))
    put("classifier.bias", np.zeros(c, dtype=dtype))
    return params


def count_parameters(config: ModelConfig) -> int:
    """Closed-form element count; must equal enumerating init_params."""
    d, f = config.embed_dim, config.ffn_dim
    per_layer = 4 * (d * d + d) + 2 * (2 * d) + (d * f + f) + (f * d + d)
    return (
        config.vocab_size * d
        + config.n_layers * per_layer
        + d * config.n_classes
        + config.n_classes
    )


def multi_head_attention(
    x: Tensor,
    attn_mask: np.ndarray,
    params: dict[str, Parameter],
    n_heads: int,
    prefix: str = "attn",
) -> Tensor:
    """Masked multi-head self-attention over x of shape (B, L, d).

    attn_mask is (B, L, L) boolean, true = query i may NOT attend key j;
    a disallowed key gets attention weight exactly 0. Padded keys must be
    disallowed (batch_encode marks every padded row and column). Fully
    masked (padded) query rows produce zero context vectors; valid rows
    always keep at least their diagonal, so their weights sum to 1.
    """
    b, l, d = x.shape
    if d % n_heads != 0:
        raise ConfigMismatch(f"model dim {d} not divisible by {n_heads} heads")
    dh = d // n_heads

    def proj(name: str) -> Tensor:
        return ad.linear(x, params[f"{prefix}.{name}.weight"].tensor,
                         params[f"{prefix}.{name}.bias"].tensor)

    def split_heads(t: Tensor) -> Tensor:
        return ad.transpose(ad.reshape(t, (b, l, n_heads, dh)), (0, 2, 1, 3))

    q = split_heads(proj("q"))
    k = split_heads(proj("k"))
    v = split_heads(proj("v"))

    heads = ad.masked_attention(q, k, v, attn_mask[:, None], 1.0 / math.sqrt(dh))
    ctx = ad.reshape(ad.transpose(heads, (0, 2, 1, 3)), (b, l, d))
    return ad.linear(ctx, params[f"{prefix}.out.weight"].tensor,
                     params[f"{prefix}.out.bias"].tensor)


def encoder_layers_forward(
    x: Tensor,
    attn_mask: np.ndarray,
    config: ModelConfig,
    params: dict[str, Parameter],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the post-norm layer stack on prepared states x (B, L, d)."""
    for i in range(config.n_layers):
        pre = f"layers.{i}"
        attn = multi_head_attention(x, attn_mask, params, config.n_heads,
                                    prefix=f"{pre}.attn")
        x = ad.layer_norm(ad.add(x, ad.dropout(attn, config.dropout, rng, train_mode)),
                          params[f"{pre}.ln1.scale"].tensor, params[f"{pre}.ln1.shift"].tensor)
        hidden = ad.relu(ad.linear(x, params[f"{pre}.ffn.w1.weight"].tensor,
                                   params[f"{pre}.ffn.w1.bias"].tensor))
        ff = ad.linear(hidden, params[f"{pre}.ffn.w2.weight"].tensor,
                       params[f"{pre}.ffn.w2.bias"].tensor)
        x = ad.layer_norm(ad.add(x, ad.dropout(ff, config.dropout, rng, train_mode)),
                          params[f"{pre}.ln2.scale"].tensor, params[f"{pre}.ln2.shift"].tensor)
    return x


def encoder_forward(
    batch,
    config: ModelConfig,
    params: dict[str, Parameter],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Full forward pass over an EncodedBatch.

    Returns (logits (B, C), pooled (B, d)). Pooling is the mean of the
    last layer's states over non-pad positions. Dropout is active only in
    train_mode (eval passes are deterministic).
    """
    tokens = batch.tokens
    b, l = tokens.shape
    if l > config.max_len:
        raise ConfigMismatch(f"batch length {l} exceeds max_len {config.max_len}")
    if "embed.weight" not in params or params["embed.weight"].tensor.shape[1] != config.embed_dim:
        raise ConfigMismatch("params do not match config (embed.weight)")
    if params["classifier.weight"].tensor.shape != (config.embed_dim, config.n_classes):
        raise ConfigMismatch("params do not match config (classifier.weight)")
    if train_mode and config.dropout > 0.0 and rng is None:
        raise ValueError("train_mode forward needs an rng for dropout")

    embed = params["embed.weight"].tensor
    x = ad.mul(ad.embedding(embed, tokens), math.sqrt(config.embed_dim))
    if config.use_positional:
        x = ad.add(x, positional_encoding(l, config.embed_dim, dtype=embed.data.dtype))
    x = ad.dropout(x, config.dropout, rng, train_mode)

    x = encoder_layers_forward(x, batch.attention_masks, config, params, train_mode, rng)
    pooled = ad.masked_mean(x, ~batch.key_padding_mask)
    logits = ad.linear(pooled, params["classifier.weight"].tensor,
                       params["classifier.bias"].tensor)
    return logits, pooled


# --- checkpointing -------------------------------------------------------

def save_checkpoint(
    path,
    config: ModelConfig,
    params: dict[str, Parameter],
    label_index_hash: str = "",
) -> None:
    """Binary checkpoint: magic, version, JSON header, raw tensor bytes.

    The file is written under a temporary name in the same directory and
    then renamed over `path`, so a write that fails part-way leaves any
    previous checkpoint at `path` untouched.
    """
    codes = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}
    manifest = [{"name": name, "shape": list(p.tensor.shape), "dtype": codes[p.tensor.dtype]}
                for name, p in params.items()]
    header = json.dumps(
        {"config": asdict(config), "label_index_hash": label_index_hash,
         "tensors": manifest},
        sort_keys=True,
    ).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header)))
            fh.write(header)
            for entry, p in zip(manifest, params.values()):
                fh.write(p.tensor.data.astype(entry["dtype"], copy=False).tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(
    path,
    expected_config: ModelConfig | None = None,
    expected_label_hash: str | None = None,
) -> tuple[ModelConfig, dict[str, Parameter], str]:
    """Load and validate a checkpoint; round-trips bit-exactly.

    Raises CheckpointError when the file is not a checkpoint of a known
    version, when its manifest's element count differs from the one its
    config implies, or when the tensor data is truncated or followed by
    trailing bytes. Version 1 files also load: their per-tensor
    "trainable" field, always true, is ignored.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        prefix = fh.read(12)
        if len(prefix) != 12:
            raise CheckpointError("truncated checkpoint header")
        version, header_len = struct.unpack("<IQ", prefix)
        if version not in (1, CHECKPOINT_VERSION):
            raise CheckpointError(f"unsupported checkpoint version {version}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except ValueError as exc:
            raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
        config = ModelConfig(**header["config"])
        label_hash = header["label_index_hash"]
        if expected_config is not None and config != expected_config:
            raise ConfigMismatch(
                f"checkpoint config {config} != expected {expected_config}"
            )
        if expected_label_hash is not None and label_hash != expected_label_hash:
            raise ConfigMismatch("checkpoint label-index hash mismatch")
        shapes = [tuple(entry["shape"]) for entry in header["tensors"]]
        total = sum(math.prod(shape) for shape in shapes)
        if total != count_parameters(config):
            raise CheckpointError(
                f"manifest holds {total} elements, config implies {count_parameters(config)}"
            )
        params: dict[str, Parameter] = {}
        for entry, shape in zip(header["tensors"], shapes):
            dtype = np.dtype(entry["dtype"])
            nbytes = math.prod(shape) * dtype.itemsize
            raw = fh.read(nbytes)
            if len(raw) != nbytes:
                raise CheckpointError(f"truncated tensor data for {entry['name']}")
            arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            params[entry["name"]] = Parameter(entry["name"], Tensor(arr, requires_grad=True))
        if fh.read(1):
            raise CheckpointError("trailing bytes after the tensor data")
    return config, params, label_hash


def hash_text(text: str) -> str:
    """Stable content hash used to bind checkpoints to a label index."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
