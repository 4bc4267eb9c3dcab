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
from .graphs import MolGraph

EDGE_CODES = ("single", "double", "triple", "aromatic", "link")
_CODE_INDEX = {c: i for i, c in enumerate(EDGE_CODES)}

DIST_CLAMP = 32  # lookup table covers 0..32 plus one overflow bucket
INF_SENTINEL = 0x7FFFFFFF


def edge_code(order: str) -> int:
    return _CODE_INDEX.get(order, _CODE_INDEX["link"])


@dataclass
class AttentionContext:
    """Immutable distance/path/mask bundle for one connected graph.

    ``path_counts[i, j]`` holds the per-edge-code counts along one shortest
    path from i to j (their sum equals the distance).  That path is fixed
    by a lowest-index-predecessor rule: each step back from j towards i
    goes to the lowest-index neighbour one step closer to i.
    """

    n: int
    dist: np.ndarray         # (n, n) int hop distances
    path_counts: np.ndarray  # (n, n, len(EDGE_CODES)) edge-code counts
    local_mask: np.ndarray   # (n, n) bool, dist < d_thres
    d_thres: int
    _means: np.ndarray | None = field(default=None, repr=False)

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
            "dist": self.dist.tolist(),
            "mask": [row.tobytes().decode("ascii")
                     for row in (self.local_mask + ord("0")).astype(np.uint8)],
        }
        return json.dumps(doc, separators=(",", ":"))


def build_context(g: MolGraph, d_thres: int) -> AttentionContext:
    """BFS all-pairs context with deterministic shortest-path choice.

    The BFS runs from every source at once, one numpy step per distance
    ring, over flat ``(source, atom)`` keys.  Ties go to the lowest-index
    predecessor: the path from s to v ends with the step from the
    lowest-index neighbour of v one step closer to s, so identical inputs
    always produce identical path tables.
    """
    if d_thres < 1:
        raise ValueError("d_thres must be >= 1")
    if not g.is_connected():
        raise DisconnectedError("attention context requires a connected graph")
    n = g.n
    adj = g.adjacency()
    # neighbour table in ascending order, padded with the atom itself (seen
    # before it is expanded, never one step closer); at least one column so
    # that a bond-free atom still has a row to take argmax over
    width = max(1, max(len(adj[u]) for u in range(n)))
    nbr = np.array([[v for v, _ in adj[u]] + [u] * (width - len(adj[u]))
                    for u in range(n)], dtype=np.int64)
    code = np.array([[edge_code(o) for _, o in adj[u]]
                     + [0] * (width - len(adj[u])) for u in range(n)],
                    dtype=np.int64)

    # BFS from every source at once over flat keys s * n + v, one ring per
    # step; rings[d] holds the keys at distance d
    dist = np.full((n, n), INF_SENTINEL, dtype=np.int64)
    flat_dist = dist.reshape(-1)
    claim = np.empty(n * n, dtype=np.int64)
    rings = []
    ring = np.arange(n) * (n + 1)  # the diagonal
    while ring.size:
        flat_dist[ring] = len(rings)
        rings.append(ring)
        v = ring % n
        reach = ((ring - v)[:, None] + nbr[v]).ravel()
        new = reach[flat_dist[reach] == INF_SENTINEL]
        # keep each key once, at whichever position's write to claim survived
        at = np.arange(new.size)
        claim[new] = at
        ring = new[claim[new] == at]

    # predecessor: the first neighbour of v in ascending order that is one
    # step closer to s, the atom a sorted per-source BFS reaches v from
    # (meaningless on the diagonal, which is never read)
    atoms = np.arange(n)
    j = (dist[:, nbr] == dist[:, :, None] - 1).argmax(axis=2)
    step = np.eye(len(EDGE_CODES))[code[atoms, j]].reshape(n * n, -1)
    pkey = (nbr[atoms, j] + atoms[:, None] * n).ravel()
    # counts to a node = counts to its predecessor + last edge
    counts = np.zeros((n * n, len(EDGE_CODES)))
    for ring in rings[1:]:
        counts[ring] = counts[pkey[ring]] + step[ring]

    return AttentionContext(n, dist, counts.reshape(n, n, -1),
                            dist < d_thres, d_thres)


def fold_equivalent(star_ctx: AttentionContext, unroll_ctx: AttentionContext,
                    n_unit: int, copy: int) -> bool:
    """Check that a middle copy of the unrolled context folds onto the star
    context: for each atom of that copy, the masked set of
    (neighbor mod n_unit, distance, edge-code counts) must match the star
    row.  These are what the attention bias reads.
    """
    for i in range(n_unit):
        gi = copy * n_unit + i
        folded = {
            (j % n_unit, int(unroll_ctx.dist[gi, j]),
             tuple(unroll_ctx.path_counts[gi, j].tolist()))
            for j in range(unroll_ctx.n) if unroll_ctx.local_mask[gi, j]
        }
        ref = {
            (j, int(star_ctx.dist[i, j]),
             tuple(star_ctx.path_counts[i, j].tolist()))
            for j in range(star_ctx.n) if star_ctx.local_mask[i, j]
        }
        if folded != ref:
            return False
    return True
