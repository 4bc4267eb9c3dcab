"""Forward-only reference network layers with reproducible weights.

Everything here is deterministic 64-bit float arithmetic: message-passing
(GIN-style) layers, localized attention layers with distance and path biases,
LayerNorm/FFN blocks, backbone-embedding injection, spatial projection,
cross-modal fusion, mean pooling with a linear head, masked-atom corruption,
and fragment attribution.  Weights are either loaded from a JSON file or
regenerated bit-exactly from a seed with a counter-based generator
("counter-mix-v1"), so no weight files need to ship.

Column convention: feature matrices are (d, n) with one column per atom, and
attention matrices are column-stochastic (each column sums to 1).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .context import AttentionContext, DIST_CLAMP, EDGE_CODES, build_context
from .graphs import (
    FEATURE_ELEMENTS,
    MolGraph,
    MonomerGraph,
    apply_backbone_embedding,
    auto_repeat_for_lga,
    detect_backbone,
    feature_dim,
    featurize,
    star_link,
    strategy_transform,
)

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _normals(seed: int, name: str, count: int) -> np.ndarray:
    """counter-mix-v1: keyed counter stream -> Box-Muller normals.

    Counter i (from 1) gives ``mix64((key + i * golden) mod 2**64)``; the
    uint64 arithmetic wraps exactly like that.  Numpy's vectorised log, cos
    and sin may differ from libm in the last bit, so those map ``math`` over
    lists; the rest is single IEEE operations, equal in numpy and Python.
    """
    key = seed ^ int.from_bytes(
        hashlib.blake2b(name.encode(), digest_size=8).digest(), "big")
    pairs = (count + 1) // 2
    z = (np.uint64(key & _MASK64)
         + np.arange(1, 2 * pairs + 1, dtype=np.uint64) * np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    u1 = np.where(u[0::2] == 0.0, 2.0 ** -53, u[0::2])
    angle = (2.0 * math.pi * u[1::2]).tolist()

    def libm(f, xs: list[float]) -> np.ndarray:
        return np.fromiter(map(f, xs), np.float64, len(xs))

    r = np.sqrt(-2.0 * libm(math.log, u1.tolist()))
    out = np.empty(2 * pairs)
    out[0::2] = r * libm(math.cos, angle)
    out[1::2] = r * libm(math.sin, angle)
    return out[:count]


N_PATH_CODES = len(EDGE_CODES)
N_DIST_BUCKETS = DIST_CLAMP + 2  # 0..32 plus overflow
N_ATOM_CLASSES = len(FEATURE_ELEMENTS) + 1

_ATTN_MATS = ("wq", "wk", "wv", "ffn_w1", "ffn_w2")
_ATTN_VECS = ("ffn_b1", "ffn_b2")
_ATTN_LN = ("ln1", "ln2")
LN_EPS = 1e-12  # added to the variance in layer_norm


@dataclass
class ReferenceModel:
    """Immutable bundle of named weights plus the run configuration."""

    d: int
    L: int
    d_thres: int
    d_atom: int
    weights: dict[str, np.ndarray]
    seed: int | None = None
    spatial_groups: dict[str, int] = field(default_factory=dict)

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.weights[name]
        except KeyError:
            raise KeyError(f"model has no weight {name!r}") from None

    @classmethod
    def generate(cls, seed: int, d: int = 64, L: int = 3, d_thres: int = 3,
                 spatial_groups: dict[str, int] | None = None
                 ) -> "ReferenceModel":
        if d < 1 or L < 1:
            raise ValueError("model width and depth must be >= 1")
        d_atom = feature_dim()
        spatial_groups = dict(spatial_groups or {})
        scale = 1.0 / math.sqrt(d)
        w: dict[str, np.ndarray] = {}

        def mat(name: str, rows: int, cols: int) -> None:
            w[name] = _normals(seed, name, rows * cols).reshape(rows, cols) * scale

        def vec(name: str, size: int) -> None:
            w[name] = _normals(seed, name, size) * scale

        def ln(name: str, size: int) -> None:
            w[name + "_gain"] = 1.0 + 0.1 * _normals(seed, name + "_gain", size)
            w[name + "_bias"] = 0.1 * _normals(seed, name + "_bias", size)

        mat("input_proj", d, d_atom)
        vec("backbone", d)
        for l in range(L):
            for k in _ATTN_MATS:
                mat(f"attn{l}.{k}", d, d)
            for k in _ATTN_VECS:
                vec(f"attn{l}.{k}", d)
            for k in _ATTN_LN:
                ln(f"attn{l}.{k}", d)
            vec(f"attn{l}.dist", N_DIST_BUCKETS)
            vec(f"attn{l}.path", N_PATH_CODES)
            mat(f"gin{l}.w1", d, d)
            vec(f"gin{l}.b1", d)
            mat(f"gin{l}.w2", d, d)
            vec(f"gin{l}.b2", d)
        for k in ("wq", "wk", "wv"):
            mat(f"fusion.{k}", d, d)
        ln("fusion.ln", d)
        for name, dim in spatial_groups.items():
            mat(f"spatial.{name}", d, dim)
        vec("head", d)
        mat("mask_classifier", N_ATOM_CLASSES, d)
        return cls(d, L, d_thres, d_atom, w, seed, spatial_groups)

    def digest(self) -> str:
        """16-hex-digit blake2b of every weight's name and float64 bytes,
        in name order: a fingerprint that changes with any weight bit."""
        h = hashlib.blake2b(digest_size=8)
        for name in sorted(self.weights):
            h.update(name.encode())
            h.update(self.weights[name].tobytes())
        return h.hexdigest()

    def save(self, path: str) -> None:
        doc = {
            "meta": {"d": self.d, "L": self.L, "d_thres": self.d_thres,
                     "d_atom": self.d_atom,
                     "spatial_groups": self.spatial_groups,
                     "seed": ({"algorithm": "counter-mix-v1",
                               "seed": self.seed}
                              if self.seed is not None else None)},
            "weights": {
                name: {"rows": (arr.shape[0] if arr.ndim == 2 else 1),
                       "cols": (arr.shape[1] if arr.ndim == 2
                                else arr.shape[0]),
                       "data": [repr(float(v)) for v in arr.ravel()]}
                for name, arr in sorted(self.weights.items())
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path: str) -> "ReferenceModel":
        with open(path) as fh:
            doc = json.load(fh)
        meta = doc["meta"]
        weights = {}
        for name, spec in doc["weights"].items():
            arr = np.array([float(v) for v in spec["data"]])
            if spec["rows"] > 1:
                arr = arr.reshape(spec["rows"], spec["cols"])
            weights[name] = arr
        seed = (meta.get("seed") or {}).get("seed")
        return cls(meta["d"], meta["L"], meta["d_thres"], meta["d_atom"],
                   weights, seed, dict(meta.get("spatial_groups") or {}))


def layer_norm(x: np.ndarray, gain: np.ndarray | None = None,
               bias: np.ndarray | None = None) -> np.ndarray:
    """Per-column normalization over the feature axis, then gain and bias."""
    mu = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    out = (x - mu) / np.sqrt(var + LN_EPS)
    if gain is not None:
        out = out * gain[:, None]
    if bias is not None:
        out = out + bias[:, None]
    return out


def softmax_columns(s: np.ndarray) -> np.ndarray:
    z = s - s.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def gin_layer(g: MolGraph, x: np.ndarray, w1: np.ndarray, b1: np.ndarray,
              w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """x_v <- MLP(x_v + sum of neighbor columns); two affine maps + ReLU."""
    if x.shape[0] != w1.shape[1]:
        raise ValueError("feature dim does not match weights")
    if x.shape[1] != g.n:
        raise ValueError("column count does not match atom count")
    s = x.copy()
    for b in g.bonds:
        s[:, b.u] += x[:, b.v]
        s[:, b.v] += x[:, b.u]
    return w2 @ np.maximum(w1 @ s + b1[:, None], 0.0) + b2[:, None]


def attention_bias(ctx: AttentionContext, dist_table: np.ndarray,
                   path_weights: np.ndarray) -> np.ndarray:
    """A^d + A^p: distance-bucket lookup plus averaged path-code functional."""
    buckets = np.minimum(ctx.dist, DIST_CLAMP + 1)
    a_d = dist_table[buckets]
    a_p = ctx.path_onehot_means() @ path_weights
    return a_d + a_p


def local_attention_layer(ctx: AttentionContext, x: np.ndarray,
                          w: dict[str, np.ndarray]) -> np.ndarray:
    """One localized attention layer with residual LayerNorm and FFN.

    The locality mask is applied inside the softmax, so each attention
    column is a distribution over the masked-in entries only; an atom's
    output then depends on nothing outside its ``dist < d_thres`` ball,
    which the finite-unroll equivalence rests on.
    """
    d = x.shape[0]
    if x.shape[1] != ctx.n:
        raise ValueError("column count does not match context size")
    q = w["wq"] @ x
    k = w["wk"] @ x
    v = w["wv"] @ x
    scores = (k.T @ q) / math.sqrt(d) + attention_bias(ctx, w["dist"],
                                                       w["path"])
    a_hat = softmax_columns(np.where(ctx.local_mask, scores, -np.inf))
    y = v @ a_hat
    x1 = layer_norm(y + x, w["ln1_gain"], w["ln1_bias"])
    ffn = w["ffn_w2"] @ np.maximum(
        w["ffn_w1"] @ x1 + w["ffn_b1"][:, None], 0.0) + w["ffn_b2"][:, None]
    return layer_norm(ffn + x1, w["ln2_gain"], w["ln2_bias"])


def layer_weights(model: ReferenceModel, prefix: str) -> dict[str, np.ndarray]:
    keys = set(_ATTN_MATS) | set(_ATTN_VECS) | {"dist", "path"}
    keys |= {f"{ln}_{s}" for ln in _ATTN_LN for s in ("gain", "bias")}
    return {k: model[f"{prefix}.{k}"] for k in keys}


@dataclass
class SpatialDescriptors:
    """Named real-vector descriptor groups for one polymer."""

    groups: list[tuple[str, np.ndarray]]
    source: str = ""


def project_spatial(sd: SpatialDescriptors,
                    model: ReferenceModel) -> np.ndarray:
    """Stack the per-group linear projections as a (d, N_s) matrix."""
    cols = []
    for name, vec in sd.groups:
        key = f"spatial.{name}"
        if key not in model.weights:
            raise KeyError(f"unknown descriptor group {name!r}")
        w = model[key]
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (w.shape[1],):
            raise ValueError(f"group {name!r} has dim {vec.shape}, "
                             f"expected ({w.shape[1]},)")
        cols.append(w @ vec)
    return np.stack(cols, axis=1)


def cross_modal_fusion(xt: np.ndarray, xs: np.ndarray,
                       model: ReferenceModel) -> np.ndarray:
    """X^ts = LayerNorm(X^t + V^s A^ts), cross-attention over spatial keys."""
    if xs.shape[0] != xt.shape[0]:
        raise ValueError("spatial and topological widths differ")
    q = model["fusion.wq"] @ xt
    k = model["fusion.wk"] @ xs
    vs = model["fusion.wv"] @ xs
    a = softmax_columns((k.T @ q) / math.sqrt(xt.shape[0]))
    return layer_norm(xt + vs @ a, model["fusion.ln_gain"],
                      model["fusion.ln_bias"])


def mask_atoms(x: np.ndarray, p_mask: float,
               rng: random.Random) -> tuple[np.ndarray, list[int]]:
    """Zero whole atom columns independently with probability p_mask."""
    if not 0.0 <= p_mask <= 1.0:
        raise ValueError("p_mask must be in [0, 1]")
    out = x.copy()
    masked = []
    for j in range(x.shape[1]):
        if rng.random() < p_mask:
            out[:, j] = 0.0
            masked.append(j)
    return out, masked


def classify_atoms(model: ReferenceModel, xts: np.ndarray) -> np.ndarray:
    """Linear masked-atom classifier logits, one column per atom."""
    return model["mask_classifier"] @ xts


@dataclass
class ForwardResult:
    xts: np.ndarray       # (d, n) final per-atom representations
    pooled: np.ndarray    # (d,) mean-pooled vector
    yhat: float


def forward_polymer(model: ReferenceModel, g: MonomerGraph,
                    descriptors: SpatialDescriptors | None = None,
                    strategy: str = "link",
                    use_backbone: bool = True) -> ForwardResult:
    """Full forward pass: features, backbone shift, L localized attention
    layers, optional fusion with spatial descriptors, pooling, head.

    Under the ``link`` strategy the monomer is first repeated until its
    boundary distance exceeds 2*d_thres - 1 and then closed by the linking
    edge; this makes every atom's masked receptive field identical to the
    infinite chain's, so predictions are invariant under repetition and
    translation of the input.
    """
    if strategy == "link":
        m2, _ = auto_repeat_for_lga(g, model.d_thres)
        star = star_link(m2)
        graph = star.as_graph()
        mask = star.backbone
    else:
        graph = strategy_transform(g, strategy)
        mask = detect_backbone(g) + [False] * (graph.n - g.n)

    x = model["input_proj"] @ featurize(graph)
    if use_backbone:
        x = apply_backbone_embedding(x, mask, model["backbone"])
    ctx = build_context(graph, model.d_thres)
    for l in range(model.L):
        x = local_attention_layer(ctx, x, layer_weights(model, f"attn{l}"))
    if descriptors is not None:
        x = cross_modal_fusion(x, project_spatial(descriptors, model), model)
    h = x.mean(axis=1)
    yhat = float(model["head"] @ h)
    return ForwardResult(x, h, yhat)


def normalize_fragmentation(frags: list[set[int]], n: int) -> list[list[int]]:
    """Validate coverage and resolve single-atom overlaps.

    Atoms claimed by several fragments go to the lowest-indexed fragment.
    Raises ValueError if the union does not cover all n atoms.
    """
    seen: dict[int, int] = {}
    out: list[list[int]] = []
    for fi, frag in enumerate(frags):
        kept = []
        for a in sorted(frag):
            if not 0 <= a < n:
                raise ValueError(f"fragment atom {a} out of range")
            if a not in seen:
                seen[a] = fi
                kept.append(a)
        out.append(kept)
    if len(seen) != n:
        missing = sorted(set(range(n)) - set(seen))
        raise ValueError(f"fragmentation does not cover atoms {missing}")
    return out


def fragcam(model: ReferenceModel, g: MonomerGraph,
            fragmentation: list[set[int]],
            descriptors: SpatialDescriptors | None = None
            ) -> tuple[list[float], float]:
    """Per-fragment attribution scores a_i with sum(a_i) == yhat exactly.

    h_i sums the final representations of fragment i's atoms, the pooled
    vector is the fragment mean h = (1/N_F) sum h_i, yhat = w.h, and
    a_i = w.h_i / N_F, which makes the completeness identity algebraic.
    The monomer may have been auto-repeated internally; outputs are read
    from the first copy, whose columns correspond to the input atoms.
    """
    res = forward_polymer(model, g, descriptors=descriptors, strategy="link")
    parts = normalize_fragmentation(fragmentation, g.n)
    x0 = res.xts[:, :g.n]
    n_f = len(parts)
    w = model["head"]
    h_list = [x0[:, atoms].sum(axis=1) if atoms else np.zeros(model.d)
              for atoms in parts]
    h = sum(h_list) / n_f
    yhat = float(w @ h)
    scores = [float(w @ hi) / n_f for hi in h_list]
    return scores, yhat
