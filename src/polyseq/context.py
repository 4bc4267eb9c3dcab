"""All-pairs distances, shortest-path edge codes, and locality masks.

These are the per-graph inputs consumed by the localized attention layers:
hop distances feed the distance-bias lookup, shortest-path edge-order codes
feed the path bias, and the strict ``dist < d_thres`` mask restricts the
receptive field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedError
from .graphs import MolGraph, MonomerGraph, repeat_monomer

EDGE_CODES = ("single", "double", "triple", "aromatic", "link")
_CODE_INDEX = {c: i for i, c in enumerate(EDGE_CODES)}

DIST_CLAMP = 32  # lookup table covers 0..32 plus one overflow bucket
INF_SENTINEL = 0x7FFFFFFF


def edge_code(order: str) -> int:
    return _CODE_INDEX.get(order, _CODE_INDEX["link"])


@dataclass
class AttentionContext:
    """Immutable distance/path/mask bundle for one connected graph.

    One shortest path per pair is fixed by a lowest-index-predecessor rule;
    ``parent[i, j]`` is node j's predecessor on the chosen path from i, and
    ``path_counts[i, j]`` holds the per-edge-code counts along that path
    (their sum equals the distance).
    """

    n: int
    dist: np.ndarray         # (n, n) int hop distances
    parent: np.ndarray       # (n, n) int predecessor, -1 on the diagonal
    path_counts: np.ndarray  # (n, n, len(EDGE_CODES)) edge-code counts
    local_mask: np.ndarray   # (n, n) bool, dist < d_thres
    d_thres: int
    _means: np.ndarray | None = field(default=None, repr=False)

    def path_codes(self, i: int, j: int) -> tuple[int, ...]:
        """Edge-code sequence along the chosen shortest path from i to j."""
        codes = []
        v = j
        while v != i:
            u = int(self.parent[i, v])
            step = self.path_counts[i, v] - self.path_counts[i, u]
            codes.append(int(np.argmax(step)))
            v = u
        return tuple(reversed(codes))

    def path_onehot_means(self) -> np.ndarray:
        """(n, n, len(EDGE_CODES)) averaged edge-code one-hots per pair.

        Zero on the diagonal, where the path is empty.
        """
        if self._means is None:
            denom = np.maximum(self.dist, 1)
            self._means = self.path_counts / denom[:, :, None]
        return self._means

    def to_json(self) -> str:
        doc = {
            "n": self.n,
            "d_thres": self.d_thres,
            "dist": [[int(v) for v in row] for row in self.dist],
            "mask": ["".join("1" if v else "0" for v in row)
                     for row in self.local_mask],
        }
        return json.dumps(doc, separators=(",", ":"))


def build_context(g: MolGraph, d_thres: int) -> AttentionContext:
    """BFS all-pairs context with deterministic shortest-path choice.

    Ties are broken toward the lowest-index predecessor, so identical inputs
    always produce identical path tables.
    """
    if d_thres < 1:
        raise ValueError("d_thres must be >= 1")
    if not g.is_connected():
        raise DisconnectedError("attention context requires a connected graph")
    n = g.n
    n_codes = len(EDGE_CODES)
    ecode = np.full((n, n), -1, dtype=np.int64)
    for b in g.bonds:
        c = edge_code(b.order)
        ecode[b.u, b.v] = c
        ecode[b.v, b.u] = c

    dist = np.full((n, n), INF_SENTINEL, dtype=np.int64)
    parent = np.full((n, n), -1, dtype=np.int64)
    for src in range(n):
        dist[src, src] = 0
        level = [src]
        d = 0
        while level:
            nxt = []
            for u in sorted(level):
                for v in g.neighbors(u):
                    if dist[src, v] == INF_SENTINEL:
                        dist[src, v] = d + 1
                        parent[src, v] = u
                        nxt.append(v)
            level = nxt
            d += 1

    # accumulate path code counts one distance ring at a time, fully
    # vectorized: counts to a node = counts to its predecessor + last edge
    counts = np.zeros((n, n, n_codes))
    eye = np.eye(n_codes)
    max_d = int(dist.max(initial=0))
    for d in range(1, max_d + 1):
        ss, vv = np.nonzero(dist == d)
        if ss.size == 0:
            break
        pp = parent[ss, vv]
        counts[ss, vv] = counts[ss, pp] + eye[ecode[pp, vv]]

    mask = dist < d_thres
    return AttentionContext(n, dist, parent, counts, mask, d_thres)


def periodic_context(g: MonomerGraph, k: int, d_thres: int) -> AttentionContext:
    """Context of the k-fold open-chain unroll of the monomer."""
    if k < 1:
        raise ValueError("repeat count must be >= 1")
    return build_context(repeat_monomer(g, k), d_thres)


def fold_equivalent(star_ctx: AttentionContext, unroll_ctx: AttentionContext,
                    n_unit: int, copy: int) -> bool:
    """Check that a middle copy of the unrolled context folds onto the star
    context: for each atom of that copy, the masked set of
    (neighbor mod n_unit, distance, path codes) must match the star row.
    """
    for i in range(n_unit):
        gi = copy * n_unit + i
        folded = {
            (j % n_unit, int(unroll_ctx.dist[gi, j]),
             unroll_ctx.path_codes(gi, j))
            for j in range(unroll_ctx.n) if unroll_ctx.local_mask[gi, j]
        }
        ref = {
            (j, int(star_ctx.dist[i, j]), star_ctx.path_codes(i, j))
            for j in range(star_ctx.n) if star_ctx.local_mask[i, j]
        }
        if folded != ref:
            return False
    return True
