"""Locality neighbour tables: the pairs within ``d_thres`` hops, their hop
distances and shortest-path edge codes, one padded row per atom.

These are the per-graph inputs consumed by the localized attention layers;
the plain adjacency table they start from feeds the message-passing layers.
A linked repeat unit is read as the periodic graph of its infinite chain,
so its pairs are the chain's without repeating the unit.
Only pairs with the strict ``dist < d_thres`` are kept, so the BFS stops at
ring ``d_thres - 1``; hop distances feed the distance-bias lookup and
shortest-path edge-order codes feed the path bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .errors import DisconnectedError
from .graphs import MolGraph, StarLinkGraph

EDGE_CODES = ("single", "double", "triple", "aromatic", "link")
_CODE_INDEX = {c: i for i, c in enumerate(EDGE_CODES)}

DIST_CLAMP = 32  # lookup table covers 0..32 plus one overflow bucket


def edge_code(order: str) -> int:
    return _CODE_INDEX.get(order, _CODE_INDEX["link"])


@dataclass
class AttentionContext:
    """The masked pairs of one connected graph as a padded neighbour table.

    Row i holds the pairs atom i attends over: ``key[i, j]`` is a key atom
    at hop distance ``dist[i, j] < d_thres`` in image ``image[i, j]``, the
    shift of the repeat-unit copy the key sits in relative to atom i's (0
    on every pair of a plain graph).  The real keys come first, ordered by
    (key atom, image), and include the diagonal; on a periodic graph a row
    may hold one atom more than once, from different images.  The rest of
    the row, where ``pad[i, j]`` is set, is padding (key i, image 0,
    distance 0, no path counts) that the layers must ignore.  The width D
    is the longest row.

    ``path_counts[i, j]`` holds the per-edge-code counts along one shortest
    path from the key to atom i (their sum equals the distance).  That
    path is fixed by a lowest-index-predecessor rule: each step back from
    atom i towards the key goes to the lowest-index neighbour one step
    closer to the key (among copies of one atom, the one that sees the key
    in the lowest image).
    """

    n: int
    d_thres: int
    key: np.ndarray          # (n, D) int key atoms
    dist: np.ndarray         # (n, D) int hop distances
    path_counts: np.ndarray  # (n, D, len(EDGE_CODES)) edge-code counts
    pad: np.ndarray          # (n, D) bool, set past each row's real keys
    image: np.ndarray        # (n, D) int image shift of each key
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


def build_context(g: MolGraph | StarLinkGraph,
                  d_thres: int) -> AttentionContext:
    """BFS from every source at once, out to ring ``d_thres - 1``, with a
    deterministic shortest-path choice.

    A ``StarLinkGraph`` is read as the periodic graph of its infinite
    chain: one repeat unit whose link bond carries an image shift, +1 from
    the tail to the next copy's head (the crystal graph of Xie & Grossman
    2018).  The BFS runs over (atom, image) nodes from the middle image's
    sources, over the ``2*d_thres - 1`` images that ``d_thres - 1`` hops
    can reach, so every pair is the infinite chain's and a row may hold
    one atom from two images.  A plain ``MolGraph`` has one image, and its
    link bond, if it has one, closes a cycle.

    Pairs are flat keys ``(atom * n + key) * images + t`` in the table's
    order, where the key is the BFS source and t - ``images // 2`` its
    image as seen from the atom; one numpy step expands a whole distance
    ring.  Ties go to the predecessor whose pair comes first: the path
    from key s to an atom ends with the step from the lowest-index
    neighbour one step closer to s (among copies of one atom, the one that
    sees s in the lowest image), so identical inputs always produce
    identical path tables.  That predecessor is one ring closer, so
    cutting the BFS off at ``d_thres`` leaves every masked pair's path as
    the full BFS chooses it.
    """
    if d_thres < 1:
        raise ValueError("d_thres must be >= 1")
    periodic = isinstance(g, StarLinkGraph)
    unit = g.monomer if periodic else g
    if not unit.is_connected():
        raise DisconnectedError("attention context requires a connected graph")
    linked = g.as_graph() if periodic else g
    n = unit.n
    images = 2 * d_thres - 1 if periodic else 1
    mid = images // 2
    nbr, code = neighbour_table(linked)
    onehot = np.eye(len(EDGE_CODES))

    # pair a * span + r steps to b * span + r for each neighbour b, less
    # the image shift of the bond (from b, the key's image is shifted the
    # other way); a pad's step lands past the last atom's pairs, which
    # count as reached, and a step out of the outermost images is never
    # taken, since the BFS stops d_thres - 1 images from the middle one
    span = images * n
    step = nbr * span
    if periodic:  # the link bonds a copy's tail to the next copy's head
        step[unit.tail, linked.neighbors(unit.tail).index(unit.head)] -= 1
        step[unit.head, linked.neighbors(unit.head).index(unit.tail)] += 1
    seen = np.zeros((n + 1) * span, dtype=bool)
    seen[n * span:] = True
    src = np.arange(n)
    ring = src * span + src * images + mid  # the diagonal, in image 0
    seen[ring] = True
    rings, counts = [ring], [np.zeros((n, len(EDGE_CODES)))]
    for _ in range(1, d_thres):
        a, r = np.divmod(ring, span)
        reach = (step[a] + r[:, None]).ravel()
        fresh = np.flatnonzero(~seen[reach])
        if not fresh.size:
            break
        # keep each new pair's first position in reach: rings are sorted,
        # so for each key the atoms run in ascending order, and the first
        # atom to reach a pair is its predecessor
        at = fresh[np.argsort(reach[fresh], kind="stable")]
        first = np.ones(at.size, dtype=bool)
        first[1:] = reach[at[1:]] != reach[at[:-1]]
        at = at[first]
        ring = reach[at]
        row, col = np.divmod(at, nbr.shape[1])
        # counts to a key = counts to its predecessor + the last edge
        counts.append(counts[-1][row] + onehot[code[a[row], col]])
        seen[ring] = True
        rings.append(ring)

    # each pair's slot in the table: the pairs in ascending order fill the
    # real slots row by row
    flat = np.concatenate(rings)
    atom, key_of = np.divmod(flat, span)
    width = np.bincount(atom, minlength=n)
    pad = np.arange(width.max()) >= width[:, None]
    slot = np.empty_like(flat)
    slot[np.argsort(flat)] = np.flatnonzero(~pad)
    image = np.zeros(pad.shape, dtype=np.int64)
    if periodic:
        key_of, t = np.divmod(key_of, images)
        image.reshape(-1)[slot] = t - mid
    key = np.repeat(np.arange(n)[:, None], pad.shape[1], axis=1)
    key.reshape(-1)[slot] = key_of
    dist = np.zeros(pad.shape, dtype=np.int64)
    dist.reshape(-1)[slot] = np.repeat(np.arange(len(rings)),
                                       [r.size for r in rings])
    path_counts = np.zeros(pad.shape + (len(EDGE_CODES),))
    path_counts.reshape(-1, len(EDGE_CODES))[slot] = np.concatenate(counts)
    return AttentionContext(n, d_thres, key, dist, path_counts, pad, image)


def fold_equivalent(star_ctx: AttentionContext, unroll_ctx: AttentionContext,
                    n_unit: int, copy: int) -> bool:
    """Check that a middle copy of the unrolled context folds onto the star
    context: for each atom of that copy, its row's multiset of (key mod
    n_unit, distance, edge-code counts) over the real keys must match the
    star atom's.  These are what the attention bias reads; a periodic row
    may reach one atom through two images with equal entries, and each
    must have its counterpart.
    """
    def row(ctx: AttentionContext, i: int) -> list:
        real = ~ctx.pad[i]
        return sorted(zip((ctx.key[i, real] % n_unit).tolist(),
                          ctx.dist[i, real].tolist(),
                          map(tuple, ctx.path_counts[i, real].tolist())))

    return all(row(unroll_ctx, copy * n_unit + i) == row(star_ctx, i)
               for i in range(n_unit))
