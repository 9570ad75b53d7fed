import json
import struct
import tracemalloc
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest

from contactformer.autodiff import Tensor
from contactformer.model import ModelConfig, param_shapes

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "data" / "corpus"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    assert CORPUS_DIR.is_dir(), "bundled corpus missing; run scripts/make_corpus.py"
    return CORPUS_DIR


def peak_allocation(f):
    """f() and the peak bytes tracemalloc saw allocated while it ran, above what it
    held when f started (numpy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = f()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def grad_check(
    f: Callable[[], Tensor],
    params: Sequence[Tensor],
    h: float = 1e-4,
) -> float:
    """Max relative error of analytic vs central-difference gradients.

    f must be a deterministic scalar-valued computation over `params`
    (re-evaluated many times; disable dropout). Use float64 tensors:
    finite differences need the headroom. The per-coordinate error is
    |a - n| / max(1e-8, |a| + |n|).
    """
    for p in params:
        p.zero_grad()
    out = f()
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        a_flat = a.reshape(-1)
        for idx in range(p.data.size):
            mi = np.unravel_index(idx, p.data.shape)
            orig = p.data[mi]
            p.data[mi] = orig + h
            f_plus = f().item()
            p.data[mi] = orig - h
            f_minus = f().item()
            p.data[mi] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            ai = float(a_flat[idx])
            err = abs(ai - numeric) / max(1e-8, abs(ai) + abs(numeric))
            worst = max(worst, err)
    return worst


def tiny_config(**overrides) -> ModelConfig:
    """Small deterministic config used across model and training tests."""
    base = dict(n_classes=4, embed_dim=8, n_heads=2, n_layers=1, ffn_dim=32,
                dropout=0.0, max_len=64)
    base.update(overrides)
    return ModelConfig(**base)


def rewrite_checkpoint_header(path: Path, mutate) -> None:
    """Apply `mutate` to a checkpoint's JSON header in place; the tensor bytes stay."""
    raw = path.read_bytes()
    version, n = struct.unpack("<IQ", raw[4:16])
    header = json.loads(raw[16:16 + n])
    mutate(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:4] + struct.pack("<IQ", version, len(text)) + text + raw[16 + n:])


def _tensor(header, name):
    return next(e for e in header["tensors"] if e["name"] == name)


def _swap_q_k(header):
    tensors = header["tensors"]
    i, j = (k for k, e in enumerate(tensors)
            if e["name"] in ("layers.0.attn.q.weight", "layers.0.attn.k.weight"))
    tensors[i], tensors[j] = tensors[j], tensors[i]


def _unlist_shape(header):
    entry = _tensor(header, "classifier.bias")
    entry["shape"] = entry["shape"][0]


def _huge_embed_dim(header):
    # consistent with itself, but its (d, d) tensors alone would need exabytes
    header["config"]["embed_dim"] = 2**31
    shapes = param_shapes(ModelConfig(**header["config"]))
    for entry in header["tensors"]:
        entry["shape"] = list(shapes[entry["name"]])


# Header edits, each leaving a checkpoint that load_checkpoint must reject.
# The tensor bytes stay as saved, so the data length alone does not give them away.
BAD_HEADERS = {
    "dtype <i4": lambda h: _tensor(h, "embed.weight").update(dtype="<i4"),
    "dtype >f4": lambda h: _tensor(h, "embed.weight").update(dtype=">f4"),
    "transposed shape": lambda h: _tensor(h, "layers.0.ffn.w1.weight")["shape"].reverse(),
    "renamed tensor": lambda h: _tensor(h, "classifier.bias").update(name="classifier.offset"),
    "same-shape tensors swapped": _swap_q_k,
    "extra config key": lambda h: h["config"].update(extra=1),
    "missing config key": lambda h: h["config"].pop("n_heads"),
    "shape not a list": _unlist_shape,
    "config not an object": lambda h: h.update(config=list(h["config"].values())),
    "float sizes": lambda h: h["config"].update(
        {k: float(h["config"][k]) for k in ("embed_dim", "n_heads")}),
    "embed_dim 2**31": _huge_embed_dim,
}

# Header lengths that no checkpoint file can hold.
HUGE_HEADER_LENGTHS = (2**40, 2**64 - 1)


def set_header_length(path: Path, header_len: int) -> None:
    raw = bytearray(path.read_bytes())
    raw[8:16] = struct.pack("<Q", header_len)
    path.write_bytes(bytes(raw))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random proper rotation via QR with determinant fix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    rows = []
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            if getattr(rep, "when", None) != "call":
                continue
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" in nodeid:
                name = nodeid.split("::")[-1].removeprefix("test_")
                rows.append((name, "PASS" if rep.passed else "FAIL"))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in rows:
            terminalreporter.write_line(f"{status}  {name}")
