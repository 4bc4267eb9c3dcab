"""Locality neighbour tables: the pairs within ``d_thres`` hops, their hop
distances and shortest-path edge codes, one padded row per atom.

These are the per-graph inputs consumed by the localized attention layers;
the plain adjacency table they start from feeds the message-passing layers.
Only pairs with the strict ``dist < d_thres`` are kept, so the BFS stops at
ring ``d_thres - 1``; hop distances feed the distance-bias lookup and
shortest-path edge-order codes feed the path bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

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
    """The masked pairs of one connected graph as a padded neighbour table.

    Row i holds the pairs atom i attends over: ``key[i, j]`` is a key atom
    at hop distance ``dist[i, j] < d_thres``.  The real keys come first, in
    ascending order, and include the diagonal; the rest of the row, where
    ``pad[i, j]`` is set, is padding (key i, distance 0, no path counts)
    that the layers must ignore.  The width D is the longest row.

    ``path_counts[i, j]`` holds the per-edge-code counts along one shortest
    path from the key to atom i (their sum equals the distance).  That
    path is fixed by a lowest-index-predecessor rule: each step back from
    atom i towards the key goes to the lowest-index neighbour one step
    closer to the key.
    """

    n: int
    d_thres: int
    key: np.ndarray          # (n, D) int key atoms
    dist: np.ndarray         # (n, D) int hop distances
    path_counts: np.ndarray  # (n, D, len(EDGE_CODES)) edge-code counts
    pad: np.ndarray          # (n, D) bool, set past each row's real keys
    _means: np.ndarray | None = field(default=None, repr=False)

    def path_onehot_means(self) -> np.ndarray:
        """(n, D, len(EDGE_CODES)) averaged edge-code one-hots per pair.

        Zero on the diagonal pairs, where the path is empty, and on pads.
        """
        if self._means is None:
            denom = np.maximum(self.dist, 1)
            self._means = self.path_counts / denom[:, :, None]
        return self._means


def neighbour_table(g: MolGraph) -> tuple[np.ndarray, np.ndarray]:
    """Each atom's neighbours in ascending order, and their edge codes.

    Both are (n, D) with D the highest degree (at least 1, so that a
    bond-free atom still has a row); row i is padded with ``n`` past atom
    i's degree, an index one past the last atom, and code 0.
    """
    n, m = g.n, len(g.bonds)
    u, v, c = (np.fromiter(map(f, g.bonds), np.int64, m) for f in (
        attrgetter("u"), attrgetter("v"), lambda b: edge_code(b.order)))
    u, v, c = np.concatenate([u, v]), np.concatenate([v, u]), np.tile(c, 2)
    order = np.lexsort((v, u))
    u, v, c = u[order], v[order], c[order]
    deg = np.bincount(u, minlength=n)
    col = np.arange(u.size) - np.repeat(np.cumsum(deg) - deg, deg)
    nbr = np.full((n, max(1, deg.max(initial=0))), n, dtype=np.int64)
    nbr[u, col] = v
    code = np.zeros_like(nbr)
    code[u, col] = c
    return nbr, code


def build_context(g: MolGraph, d_thres: int) -> AttentionContext:
    """BFS from every source at once, out to ring ``d_thres - 1``, with a
    deterministic shortest-path choice.

    Pairs are flat keys ``i * n + key`` for row atom i, where the key is
    the BFS source; one numpy step expands a whole distance ring.  Ties go
    to the lowest-index predecessor: the path from key s to atom v ends
    with the step from the lowest-index neighbour of v one step closer to
    s, so identical inputs always produce identical path tables.  That
    predecessor is one ring closer, so cutting the BFS off at ``d_thres``
    leaves every masked pair's path as the full BFS chooses it.
    """
    if d_thres < 1:
        raise ValueError("d_thres must be >= 1")
    if not g.is_connected():
        raise DisconnectedError("attention context requires a connected graph")
    n = g.n
    nbr, code = neighbour_table(g)
    onehot = np.eye(len(EDGE_CODES))

    # flat keys past n * n are the pads' row n, which counts as reached
    seen = np.zeros((n + 1) * n, dtype=bool)
    seen[n * n:] = True
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

    # each pair's slot in the table: rows in atom order and each row's keys
    # ascending is the row-major order of the real slots
    flat = np.concatenate(rings)
    width = np.bincount(flat // n, minlength=n)
    pad = np.arange(width.max()) >= width[:, None]
    slot = np.empty_like(flat)
    slot[np.argsort(flat)] = np.flatnonzero(~pad)
    key = np.repeat(np.arange(n)[:, None], pad.shape[1], axis=1)
    key.reshape(-1)[slot] = flat % n
    dist = np.zeros(pad.shape, dtype=np.int64)
    dist.reshape(-1)[slot] = np.repeat(np.arange(len(rings)),
                                       [r.size for r in rings])
    path_counts = np.zeros(pad.shape + (len(EDGE_CODES),))
    path_counts.reshape(-1, len(EDGE_CODES))[slot] = np.concatenate(counts)
    return AttentionContext(n, d_thres, key, dist, path_counts, pad)


def fold_equivalent(star_ctx: AttentionContext, unroll_ctx: AttentionContext,
                    n_unit: int, copy: int) -> bool:
    """Check that a middle copy of the unrolled context folds onto the star
    context: for each atom of that copy, its row's set of (key mod n_unit,
    distance, edge-code counts) over the real keys must match the star
    atom's.  These are what the attention bias reads.
    """
    def row(ctx: AttentionContext, i: int) -> set:
        real = ~ctx.pad[i]
        return set(zip((ctx.key[i, real] % n_unit).tolist(),
                       ctx.dist[i, real].tolist(),
                       map(tuple, ctx.path_counts[i, real].tolist())))

    return all(row(unroll_ctx, copy * n_unit + i) == row(star_ctx, i)
               for i in range(n_unit))
