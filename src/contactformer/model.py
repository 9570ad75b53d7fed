"""Transformer encoder with contact-map-restricted self-attention.

Architecture: token embedding scaled by sqrt(d) plus sinusoidal positional
encoding, a stack of post-norm encoder layers (multi-head self-attention,
then a ReLU feed-forward block, each wrapped in dropout + residual +
layer norm), masked-mean pooling over non-pad positions, and a linear
classifier head. One per-pair attention mask (true = may not attend)
decides which keys each query sees: the diagonal always, pad keys never.

Everything between the embedding and the pooling runs on the batch's T
real tokens, packed into (T, d) by pack(), with one batched attention
call per group of equal-length sequences, each group given by its
(count, n, n) disallow block; pooling scatters them back to (B, L, d).
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .data import ATTENTION_MODES

CHECKPOINT_MAGIC = b"CFCK"
CHECKPOINT_VERSION = 2

_DTYPE_CODES = {np.dtype(np.float32): "<f4", np.dtype(np.float64): "<f8"}


class ConfigMismatch(ValueError):
    """Batch, params, or checkpoint disagree with the model config."""


class CheckpointError(ValueError):
    """Checkpoint file is unreadable or fails validation."""


def require_ints(config, **lows: int):
    """Raise ValueError unless each named field of config is an integer >= its bound."""
    for name, low in lows.items():
        value = getattr(config, name)
        if not hasattr(value, "__index__") or value < low:  # what operator.index takes
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


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
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 4 * self.embed_dim)
        require_ints(self, n_classes=1, embed_dim=1, n_heads=1, ffn_dim=1, max_len=1,
                     vocab_size=1, n_layers=0)
        if self.embed_dim % self.n_heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.attention_mode not in ATTENTION_MODES:
            raise ValueError(f"attention_mode must be one of {ATTENTION_MODES}")


@functools.lru_cache(maxsize=16)
def positional_encoding(length: int, dim: int, dtype=np.float32) -> np.ndarray:
    """Sinusoidal table: PE[p, 2i] = sin(p / 10000^(2i/d)), PE[p, 2i+1] = cos.

    Built once per (length, dim, dtype) and returned read-only. Row p does
    not depend on length, so a longer table's leading rows are a shorter one.
    """
    pos = np.arange(length, dtype=np.float64)[:, None]
    two_i = np.arange(0, dim, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, two_i / dim)
    pe = np.zeros((length, dim), dtype=np.float64)
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles[:, : dim // 2])
    pe = pe.astype(dtype)
    pe.flags.writeable = False
    return pe


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Every parameter's name and shape, in init and checkpoint order."""
    d, f, c = config.embed_dim, config.ffn_dim, config.n_classes
    shapes = {"embed.weight": (config.vocab_size, d)}
    for i in range(config.n_layers):
        pre = f"layers.{i}"
        for proj in ("q", "k", "v", "out"):
            shapes.update({f"{pre}.attn.{proj}.weight": (d, d), f"{pre}.attn.{proj}.bias": (d,)})
        shapes.update({f"{pre}.ln1.scale": (d,), f"{pre}.ln1.shift": (d,),
                       f"{pre}.ffn.w1.weight": (d, f), f"{pre}.ffn.w1.bias": (f,),
                       f"{pre}.ffn.w2.weight": (f, d), f"{pre}.ffn.w2.bias": (d,),
                       f"{pre}.ln2.scale": (d,), f"{pre}.ln2.shift": (d,)})
    shapes.update({"classifier.weight": (d, c), "classifier.bias": (c,)})
    return shapes


def init_params(config: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, Parameter]:
    """Fresh parameters drawn from rng in param_shapes order (Xavier-uniform weights)."""
    params: dict[str, Parameter] = {}
    for name, shape in param_shapes(config).items():
        if name == "embed.weight":
            data = rng.standard_normal(shape) / math.sqrt(config.embed_dim)
        elif name == "classifier.weight":
            # Small classifier init keeps initial logits near uniform, so the
            # starting loss sits at ~log(C) instead of inflating with logit variance.
            data = 0.02 * rng.standard_normal(shape)
        elif name.endswith(".weight"):
            limit = math.sqrt(6.0 / sum(shape))
            data = rng.uniform(-limit, limit, size=shape)
        else:
            data = np.ones(shape) if name.endswith(".scale") else np.zeros(shape)
        params[name] = Parameter(Tensor(data.astype(dtype), requires_grad=True))
    return params


def count_parameters(config: ModelConfig) -> int:
    """Trainable element count: the sum over the param_shapes table."""
    return sum(math.prod(shape) for shape in param_shapes(config).values())


def pack(batch) -> tuple[tuple[np.ndarray, np.ndarray], list[np.ndarray]]:
    """Where an EncodedBatch's T real tokens go in the packed (T, d) stream.

    Sequences are ordered stably by length and their real tokens laid end
    to end, so each group of equal-length sequences is one contiguous
    slice. Returns (index, blocks): packed token t is batch row index[0][t],
    position index[1][t]; blocks holds one (count, n, n) array per length,
    shortest first, the leading n x n squares of that group's attention
    masks. In order they tile the T packed rows, as ad.masked_attention
    takes them.
    """
    lengths = (~batch.key_padding_mask).sum(axis=1)
    order = np.argsort(lengths, kind="stable")
    sorted_rows, cols = np.nonzero(~batch.key_padding_mask[order])
    values, firsts, counts = np.unique(lengths[order], return_index=True, return_counts=True)
    blocks = [batch.attention_masks[order[i:i + c], :n, :n]
              for n, i, c in zip(values, firsts, counts)]
    return (order[sorted_rows], cols), blocks


def multi_head_attention(
    x: Tensor,
    blocks: list[np.ndarray],
    params: dict[str, Parameter],
    n_heads: int,
    prefix: str = "attn",
) -> Tensor:
    """Masked multi-head self-attention over packed states x (T, d); n_heads divides d.

    blocks is pack's: each sequence attends within itself only,
    and a key its disallow block marks true gets attention weight exactly 0.
    """
    def proj(name: str, t: Tensor) -> Tensor:
        return ad.linear(t, params[f"{prefix}.{name}.weight"].tensor,
                         params[f"{prefix}.{name}.bias"].tensor)

    ctx = ad.masked_attention(proj("q", x), proj("k", x), proj("v", x), blocks, n_heads)
    return proj("out", ctx)


def encoder_layers_forward(
    x: Tensor,
    blocks: list[np.ndarray],
    config: ModelConfig,
    params: dict[str, Parameter],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the post-norm layer stack on packed states x (T, d) with pack's blocks.

    No intermediate outlives the op that reads it, so an eval pass holds little
    more than x and the FFN's (T, ffn_dim) states (fewer heap pages to refault).
    """
    def add_norm(x: Tensor, y: Tensor, norm: str) -> Tensor:
        return ad.layer_norm(ad.add(x, ad.dropout(y, config.dropout, rng, train_mode)),
                             params[f"{norm}.scale"].tensor, params[f"{norm}.shift"].tensor)

    for i in range(config.n_layers):
        pre = f"layers.{i}"
        x = add_norm(x, multi_head_attention(x, blocks, params, config.n_heads, f"{pre}.attn"),
                     f"{pre}.ln1")
        w1, b1, w2, b2 = (params[f"{pre}.ffn.{n}"].tensor
                          for n in ("w1.weight", "w1.bias", "w2.weight", "w2.bias"))
        x = add_norm(x, ad.linear(ad.linear_relu(x, w1, b1), w2, b2), f"{pre}.ln2")
    return x


def encoder_forward(
    batch,
    config: ModelConfig,
    params: dict[str, Parameter],
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Full forward pass over an EncodedBatch.

    Returns (logits (B, C), pooled (B, d)), in batch order. Everything
    between the embedding and the pooling runs on the batch's packed real
    tokens (see pack); the last layer's states are then scattered back to
    (B, L, d) and pooled as the mean over non-pad positions. Dropout is
    active only in train_mode (eval passes are deterministic).
    """
    tokens = batch.tokens
    b, l = tokens.shape
    if l > config.max_len:
        raise ConfigMismatch(f"batch length {l} exceeds max_len {config.max_len}")
    if {name: p.tensor.shape for name, p in params.items()} != param_shapes(config):
        raise ConfigMismatch("params do not match the parameter layout of the config")

    index, blocks = pack(batch)
    embed = params["embed.weight"].tensor
    x = ad.mul(ad.embedding(embed, tokens[index]), math.sqrt(config.embed_dim))
    if config.use_positional:
        table = positional_encoding(config.max_len, config.embed_dim, embed.data.dtype)
        x = ad.add(x, table[index[1]])
    x = ad.dropout(x, config.dropout, rng, train_mode)

    x = encoder_layers_forward(x, blocks, config, params, train_mode, rng)
    states = ad.scatter(x, index, (b, l))
    pooled = ad.masked_mean(states, ~batch.key_padding_mask)
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
    manifest = [{"name": name, "shape": list(p.tensor.shape),
                 "dtype": _DTYPE_CODES[p.tensor.dtype]} for name, p in params.items()]
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
                fh.write(np.ascontiguousarray(p.tensor.data, dtype=entry["dtype"]))
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
    version; when its header is malformed (a missing field, a config
    whose keys are not ModelConfig's fields or whose values it rejects,
    a shape that is not a list of ints, a dtype other than <f4 or <f8);
    when the manifest's (name, shape) list differs from param_shapes of
    its config; or when the header or the tensor data it describes is
    longer than the file, or the tensor data is followed by trailing
    bytes (or the file shrinks while it is read). Sizes are checked against
    the file before anything of that size is read. Version 1 files also
    load: their per-tensor "trainable" field, always true, is ignored.
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
        data_len = os.fstat(fh.fileno()).st_size - 16 - header_len
        if data_len < 0:
            raise CheckpointError(f"truncated checkpoint header: {header_len} bytes claimed, "
                                  f"{header_len + data_len} in the file")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
            cfg = header["config"]
            if type(cfg) is not dict or cfg.keys() != {f.name for f in fields(ModelConfig)}:
                raise KeyError("config is not an object of exactly ModelConfig's fields")
            config = ModelConfig(**cfg)
            label_hash = header["label_index_hash"]
            manifest = [(e["name"], e["shape"], e["dtype"]) for e in header["tensors"]]
        except (TypeError, KeyError, ValueError) as exc:
            raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
        if expected_config is not None and config != expected_config:
            raise ConfigMismatch(
                f"checkpoint config {config} != expected {expected_config}"
            )
        if expected_label_hash is not None and label_hash != expected_label_hash:
            raise ConfigMismatch("checkpoint label-index hash mismatch")
        for name, shape, dtype in manifest:
            if not (isinstance(shape, list) and all(type(n) is int for n in shape)):
                raise CheckpointError(f"tensor {name!r}: shape {shape!r} is not a list of ints")
            if dtype not in _DTYPE_CODES.values():
                raise CheckpointError(f"tensor {name!r}: dtype {dtype!r} is not <f4 or <f8")
        if [(n, tuple(s)) for n, s, _ in manifest] != list(param_shapes(config).items()):
            raise CheckpointError("tensor manifest does not match the config's parameter layout")
        nbytes = [math.prod(shape) * np.dtype(dtype).itemsize for _, shape, dtype in manifest]
        if sum(nbytes) != data_len:
            problem = ("truncated tensor data" if sum(nbytes) > data_len
                       else "trailing bytes after the tensor data")
            raise CheckpointError(f"{problem}: the manifest needs {sum(nbytes)} bytes, "
                                  f"the file holds {data_len}")
        params: dict[str, Parameter] = {}
        for (name, shape, dtype), n in zip(manifest, nbytes):
            arr = np.empty(shape, dtype=dtype)
            if fh.readinto(arr) != n:
                raise CheckpointError(f"truncated tensor data: {name!r} was cut short")
            params[name] = Parameter(Tensor(arr, requires_grad=True))
    return config, params, label_hash


def hash_text(text: str) -> str:
    """Stable content hash used to bind checkpoints to a label index."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
