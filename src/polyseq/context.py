"""Locality neighbour lists: the pairs within ``d_thres`` hops, their hop
distances and shortest-path edge codes.

These are the per-graph inputs consumed by the localized attention layers.
Only pairs with the strict ``dist < d_thres`` are kept, so the BFS stops at
ring ``d_thres - 1``; hop distances feed the distance-bias lookup and
shortest-path edge-order codes feed the path bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DisconnectedError
from .graphs import MolGraph

EDGE_CODES = ("single", "double", "triple", "aromatic", "link")
_CODE_INDEX = {c: i for i, c in enumerate(EDGE_CODES)}

DIST_CLAMP = 32  # lookup table covers 0..32 plus one overflow bucket


def edge_code(order: str) -> int:
    return _CODE_INDEX.get(order, _CODE_INDEX["link"])


@dataclass
class AttentionContext:
    """The masked pairs of one connected graph as a CSR neighbour list.

    Pair p lets query atom ``query[p]`` attend to key atom ``key[p]``, at
    hop distance ``dist[p] < d_thres``.  Pairs are sorted by query, then
    key; query i's pairs are ``indptr[i]:indptr[i + 1]`` and include its
    diagonal pair, so no segment is empty.

    ``path_counts[p]`` holds the per-edge-code counts along one shortest
    path from the key to the query (their sum equals the distance).  That
    path is fixed by a lowest-index-predecessor rule: each step back from
    the query towards the key goes to the lowest-index neighbour one step
    closer to the key.
    """

    n: int
    d_thres: int
    indptr: np.ndarray       # (n + 1,) segment offsets into the pairs
    query: np.ndarray        # (m,) int query atom of each pair
    key: np.ndarray          # (m,) int key atom of each pair
    dist: np.ndarray         # (m,) int hop distances
    path_counts: np.ndarray  # (m, len(EDGE_CODES)) edge-code counts
    _means: np.ndarray | None = field(default=None, repr=False)

    def path_onehot_means(self) -> np.ndarray:
        """(m, len(EDGE_CODES)) averaged edge-code one-hots per pair.

        Zero on the diagonal pairs, where the path is empty.
        """
        if self._means is None:
            denom = np.maximum(self.dist, 1)
            self._means = self.path_counts / denom[:, None]
        return self._means


def build_context(g: MolGraph, d_thres: int) -> AttentionContext:
    """BFS from every source at once, out to ring ``d_thres - 1``, with a
    deterministic shortest-path choice.

    Pairs are flat keys ``query * n + key``, where the key is the BFS
    source; one numpy step expands a whole distance ring.  Ties go to the
    lowest-index predecessor: the path from key s to query v ends with the
    step from the lowest-index neighbour of v one step closer to s, so
    identical inputs always produce identical path tables.  That
    predecessor is one ring closer, so cutting the BFS off at ``d_thres``
    leaves every masked pair's path as the full BFS chooses it.
    """
    if d_thres < 1:
        raise ValueError("d_thres must be >= 1")
    if not g.is_connected():
        raise DisconnectedError("attention context requires a connected graph")
    n = g.n
    # neighbour table in ascending order, padded with the atom itself
    # (already reached); at least one column, so that a bond-free atom
    # still has a row
    ends = np.array([(b.u, b.v, edge_code(b.order)) for b in g.bonds],
                    dtype=np.int64).reshape(-1, 3)
    u, v, c = np.concatenate([ends, ends[:, [1, 0, 2]]]).T
    order = np.lexsort((v, u))
    u, v, c = u[order], v[order], c[order]
    deg = np.bincount(u, minlength=n)
    col = np.arange(u.size) - np.repeat(np.cumsum(deg) - deg, deg)
    nbr = np.repeat(np.arange(n)[:, None], max(1, deg.max()), axis=1)
    nbr[u, col] = v
    code = np.zeros_like(nbr)
    code[u, col] = c
    onehot = np.eye(len(EDGE_CODES))

    seen = np.zeros(n * n, dtype=bool)
    ring = np.arange(n) * (n + 1)  # the diagonal
    seen[ring] = True
    rings, counts = [ring], [np.zeros((n, len(EDGE_CODES)))]
    for _ in range(1, d_thres):
        v, s = np.divmod(ring, n)
        reach = (nbr[v] * n + s[:, None]).ravel()
        fresh = np.flatnonzero(~seen[reach])
        if not fresh.size:
            break
        # keep each new key's first position in reach: rings are sorted,
        # so for each source the rows run by ascending atom, and the first
        # row to reach a key is its lowest-index predecessor
        at = fresh[np.argsort(reach[fresh], kind="stable")]
        first = np.ones(at.size, dtype=bool)
        first[1:] = reach[at[1:]] != reach[at[:-1]]
        at = at[first]
        ring = reach[at]
        row, col = np.divmod(at, nbr.shape[1])
        # counts to a key = counts to its predecessor + the last edge
        counts.append(counts[-1][row] + onehot[code[v[row], col]])
        seen[ring] = True
        rings.append(ring)

    flat = np.concatenate(rings)
    order = np.argsort(flat)
    query, key = np.divmod(flat[order], n)
    dist = np.repeat(np.arange(len(rings)), [r.size for r in rings])[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(query, minlength=n), out=indptr[1:])
    return AttentionContext(n, d_thres, indptr, query, key, dist,
                            np.concatenate(counts)[order])


def fold_equivalent(star_ctx: AttentionContext, unroll_ctx: AttentionContext,
                    n_unit: int, copy: int) -> bool:
    """Check that a middle copy of the unrolled context folds onto the star
    context: for each atom of that copy, its query segment's set of
    (key mod n_unit, distance, edge-code counts) must match the star
    atom's.  These are what the attention bias reads.
    """
    def segment(ctx: AttentionContext, i: int) -> set:
        lo, hi = ctx.indptr[i], ctx.indptr[i + 1]
        return set(zip((ctx.key[lo:hi] % n_unit).tolist(),
                       ctx.dist[lo:hi].tolist(),
                       map(tuple, ctx.path_counts[lo:hi].tolist())))

    return all(segment(unroll_ctx, copy * n_unit + i) == segment(star_ctx, i)
               for i in range(n_unit))
