"""Forward-only reference network layers with reproducible weights.

Everything here is deterministic 64-bit float arithmetic: message-passing
(GIN-style) layers, localized attention layers with distance and path biases,
LayerNorm/FFN blocks, backbone-embedding injection, spatial projection,
cross-modal fusion, mean pooling with a linear head, masked-atom corruption,
and fragment attribution, with one ``softmax`` and one two-layer ``_mlp``.
Weights are either loaded from a JSON file or regenerated bit-exactly from
a seed with a counter-based generator ("counter-mix-v1"), so no weight
files need to ship.  A regenerated weight is drawn on its first read, from
its own named stream, so a pass pays only for the weights it reads;
``digest`` and ``save`` draw every weight.  Each attention layer's weight
map is built once per model (``layers``); arrays and maps are read-only,
so the digest names the weights every pass reads.

Column convention: feature matrices are (d, n) with one column per atom, and
attention matrices are column-stochastic (each column sums to 1).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .context import AttentionContext, DIST_CLAMP, EDGE_CODES, build_context
from .graphs import (
    FEATURE_BLOCKS,
    MonomerGraph,
    apply_backbone_embedding,
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
N_ATOM_CLASSES = FEATURE_BLOCKS["element"]

_ATTN_MATS = ("wq", "wk", "wv", "ffn_w1", "ffn_w2")
_ATTN_VECS = ("ffn_b1", "ffn_b2")
_ATTN_LN = ("ln1", "ln2")
LN_EPS = 1e-12  # added to the variance in layer_norm


class _DrawnWeights(Mapping):
    """Read-only map from weight name to read-only array that draws a
    weight from its counter-mix-v1 stream on the first read and keeps it.

    Each name's table entry is its shape and the map applied to the drawn
    normals.  Names come from the table, so iterating, ``len`` and ``in``
    draw nothing, and a pass pays only for the weights it reads.
    """

    def __init__(self, seed: int, table: dict[
            str, tuple[tuple[int, ...], Callable[[np.ndarray], np.ndarray]]]):
        self._seed = seed
        self._table = table
        self._drawn: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._drawn.get(name)
        if arr is None:
            shape, f = self._table[name]
            arr = f(_normals(self._seed, name, math.prod(shape))
                    .reshape(shape))
            arr.flags.writeable = False
            self._drawn[name] = arr
        return arr

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, name: object) -> bool:
        return name in self._table


@dataclass(frozen=True)
class ReferenceModel:
    """Immutable bundle of named weights, the attention threshold and the
    seed.  Width ``d`` and depth ``L`` are read off the weights: the length
    of the head and the number of attention layers."""

    weights: Mapping[str, np.ndarray]
    d_thres: int
    seed: int | None = None

    def __post_init__(self) -> None:
        # generate, load and replace all pass here: 0 or 2.0 would fail
        # only at the first forward pass, and True would run as 1
        if type(self.d_thres) is not int or self.d_thres < 1:
            raise ValueError(f"d_thres must be an int >= 1: {self.d_thres!r}")

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self.weights[name]
        except KeyError:
            raise KeyError(f"model has no weight {name!r}") from None

    @cached_property
    def d(self) -> int:
        return len(self["head"])

    @cached_property
    def L(self) -> int:
        return sum(name.startswith("attn") and name.endswith(".wq")
                   for name in self.weights)

    @cached_property
    def layers(self) -> tuple[Mapping[str, np.ndarray], ...]:
        """Each attention layer's weights, as ``local_attention_layer``
        reads them, in a read-only map (``dict`` of it makes a copy)."""
        keys = (*_ATTN_MATS, *_ATTN_VECS, "dist", "path",
                *(f"{ln}_{s}" for ln in _ATTN_LN for s in ("gain", "bias")))
        return tuple(MappingProxyType({k: self[f"attn{l}.{k}"] for k in keys})
                     for l in range(self.L))

    @classmethod
    def generate(cls, seed: int, d: int = 64, L: int = 3, d_thres: int = 3,
                 spatial_groups: dict[str, int] | None = None
                 ) -> "ReferenceModel":
        """The model of ``seed``.  Only names, shapes and maps are recorded
        here: each weight is drawn on its first read."""
        if d < 1 or L < 1:
            raise ValueError("model width and depth must be >= 1")
        scale = 1.0 / math.sqrt(d)
        table = {}

        def mat(name: str, rows: int, cols: int) -> None:
            table[name] = ((rows, cols), lambda z: z * scale)

        def vec(name: str, size: int) -> None:
            table[name] = ((size,), lambda z: z * scale)

        def ln(name: str, size: int) -> None:
            table[name + "_gain"] = ((size,), lambda z: 1.0 + 0.1 * z)
            table[name + "_bias"] = ((size,), lambda z: 0.1 * z)

        mat("input_proj", d, feature_dim())
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
        for name, dim in (spatial_groups or {}).items():
            mat(f"spatial.{name}", d, dim)
        vec("head", d)
        mat("mask_classifier", N_ATOM_CLASSES, d)
        return cls(_DrawnWeights(seed, table), d_thres, seed)

    def digest(self) -> str:
        """16-hex-digit blake2b of every weight's name and float64 bytes,
        in name order: a fingerprint that changes with any weight bit."""
        h = hashlib.blake2b(digest_size=8)
        for name in sorted(self.weights):
            h.update(name.encode())
            h.update(self.weights[name].tobytes())
        return h.hexdigest()

    def save(self, path: str) -> None:
        seed = (None if self.seed is None
                else {"algorithm": "counter-mix-v1", "seed": self.seed})
        weights = {name: {"shape": list(arr.shape),
                          "data": [repr(float(v)) for v in arr.ravel()]}
                   for name, arr in sorted(self.weights.items())}
        doc = {"meta": {"d_thres": self.d_thres, "seed": seed},
               "weights": weights}
        with open(path, "w") as fh:
            json.dump(doc, fh)

    @classmethod
    def load(cls, path: str) -> "ReferenceModel":
        with open(path) as fh:
            doc = json.load(fh)
        weights = {name: np.array([float(v) for v in spec["data"]])
                   .reshape(spec["shape"])
                   for name, spec in doc["weights"].items()}
        for arr in weights.values():
            arr.flags.writeable = False
        seed = (doc["meta"].get("seed") or {}).get("seed")
        return cls(weights, doc["meta"]["d_thres"], seed)


def layer_norm(x: np.ndarray, gain: np.ndarray,
               bias: np.ndarray) -> np.ndarray:
    """Per-column normalization over the feature axis, then gain and bias.

    One centring serves the mean and the variance; the normalized part is
    the same, bit for bit, as ``(x - x.mean(0)) / np.sqrt(x.var(0) + LN_EPS)``.
    """
    n = x.shape[0]
    xc = x - x.sum(axis=0, keepdims=True) / n
    var = (xc * xc).sum(axis=0, keepdims=True) / n
    return xc / np.sqrt(var + LN_EPS) * gain[:, None] + bias[:, None]


def softmax(s: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along ``axis``; a ``-inf`` score gets weight 0."""
    e = np.exp(s - s.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _mlp(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
         b2: np.ndarray) -> np.ndarray:
    """Two affine maps with a ReLU between them, on each column of x."""
    return w2 @ np.maximum(w1 @ x + b1[:, None], 0.0) + b2[:, None]


def gin_layer(nbr: np.ndarray, x: np.ndarray, w1: np.ndarray, b1: np.ndarray,
              w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """x_v <- MLP(x_v + sum of neighbor columns); two affine maps + ReLU.

    ``nbr`` is the graph's ``neighbour_table``: its pads point one past the
    last column, which reads as a zero column.
    """
    if x.shape[0] != w1.shape[1]:
        raise ValueError("feature dim does not match weights")
    if x.shape[1] != nbr.shape[0]:
        raise ValueError("column count does not match atom count")
    padded = np.concatenate([x, np.zeros((x.shape[0], 1))], axis=1)
    return _mlp(x + padded[:, nbr].sum(axis=2), w1, b1, w2, b2)


def attention_bias(ctx: AttentionContext, dist_table: np.ndarray,
                   path_weights: np.ndarray) -> np.ndarray:
    """A^d + A^p per pair: distance-bucket lookup, where a distance past
    the table's last bucket reads that overflow bucket, plus averaged
    path-code functional, laid out as the context's (n, D) table."""
    a_d = dist_table[np.minimum(ctx.dist, len(dist_table) - 1)]
    a_p = ctx.path @ path_weights
    return a_d + a_p


def local_attention_layer(ctx: AttentionContext, x: np.ndarray,
                          w: Mapping[str, np.ndarray]) -> np.ndarray:
    """One localized attention layer with residual LayerNorm and FFN.

    Scores are taken row by row on the context's table: row i scores
    ``q[i]`` against ``k[ctx.key[i]]``, pads score ``-inf``, and the softmax
    runs along the row, so each attention column is a distribution over
    the masked-in keys only; an atom's output then depends on nothing
    outside its ``dist < d_thres`` ball, which the finite-unroll
    equivalence rests on.
    """
    d = x.shape[0]
    if x.shape[1] != ctx.n:
        raise ValueError("column count does not match context size")
    # row-major (n, d) projections: each row gathers whole key rows
    q, k, v = (x.T @ w[name].T for name in ("wq", "wk", "wv"))
    scores = (np.matmul(k[ctx.key], q[:, :, None])[:, :, 0] / math.sqrt(d)
              + attention_bias(ctx, w["dist"], w["path"]))
    scores[ctx.pad] = -np.inf
    a_hat = softmax(scores, axis=1)
    y = np.matmul(a_hat[:, None, :], v[ctx.key])[:, 0, :].T
    x1 = layer_norm(y + x, w["ln1_gain"], w["ln1_bias"])
    ffn = _mlp(x1, w["ffn_w1"], w["ffn_b1"], w["ffn_w2"], w["ffn_b2"])
    return layer_norm(ffn + x1, w["ln2_gain"], w["ln2_bias"])


@dataclass
class SpatialDescriptors:
    """Named real-vector descriptor groups for one polymer."""

    groups: list[tuple[str, np.ndarray]]


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
    a = softmax((k.T @ q) / math.sqrt(xt.shape[0]), axis=0)
    return layer_norm(xt + vs @ a, model["fusion.ln_gain"],
                      model["fusion.ln_bias"])


def mask_atoms(x: np.ndarray, p_mask: float,
               rng: random.Random) -> tuple[np.ndarray, list[int]]:
    """Zero whole atom columns independently with probability p_mask."""
    if not 0.0 <= p_mask <= 1.0:
        raise ValueError("p_mask must be in [0, 1]")
    masked = [j for j in range(x.shape[1]) if rng.random() < p_mask]
    out = x.copy()
    out[:, masked] = 0.0
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

    Under the ``link`` strategy the layers run on one repeat unit of the
    infinite chain: features and backbone come from the star-linking graph,
    and the attention context is the periodic one of ``build_context``,
    whose link bond carries an image shift.  Every atom's masked receptive
    field is then the infinite chain's, so predictions are invariant under
    repetition and translation of the input.  ``xts`` has one column per
    atom of ``star_link(g).monomer``, which is g itself unless its boundary
    atoms coincide or are bonded.
    """
    if strategy == "link":
        star = star_link(g)
        features, mask = star.features, star.backbone
        ctx = build_context(star, model.d_thres)
    else:
        graph = strategy_transform(g, strategy)
        features = featurize(graph)
        mask = detect_backbone(g) + [False] * (graph.n - g.n)
        ctx = build_context(graph, model.d_thres)

    x = model["input_proj"] @ features
    if use_backbone:
        x = apply_backbone_embedding(x, mask, model["backbone"])
    for w in model.layers:
        x = local_attention_layer(ctx, x, w)
    if descriptors is not None:
        x = cross_modal_fusion(x, project_spatial(descriptors, model), model)
    # the mean is summed in extended precision and rounded once, so that
    # it hardly depends on the order of the atoms: a float64 sum adds a
    # rounding of its own that differs between writings of one polymer
    h = (x.sum(axis=1, dtype=np.longdouble) / x.shape[1]).astype(np.float64)
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
            fragmentation: list[set[int]]) -> tuple[list[float], float]:
    """Per-fragment attribution scores a_i with sum(a_i) == yhat exactly.

    h_i sums the final representations of fragment i's atoms, the pooled
    vector is the fragment mean h = (1/N_F) sum h_i, yhat = w.h, and
    a_i = w.h_i / N_F, which makes the completeness identity algebraic.
    The forward pass runs on ``star_link(g).monomer``, which repeats g
    only when its boundary atoms coincide or are bonded; outputs are read
    from the first copy, whose columns correspond to the input atoms.
    """
    res = forward_polymer(model, g)
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
