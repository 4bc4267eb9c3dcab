"""Locality neighbour tables: the pairs within ``d_thres`` hops, their hop
distances and shortest-path edge codes, one padded row per atom.

These are the per-graph inputs consumed by the localized attention layers;
the plain adjacency table they start from feeds the message-passing layers.
A linked repeat unit is read as the periodic graph of its infinite chain,
so its pairs are the chain's without repeating the unit.  Both tables also
take a sequence of graphs and then describe their disjoint union, so that
one layer call runs over several graphs.
Only pairs with the strict ``dist < d_thres`` are kept, so the BFS stops at
ring ``d_thres - 1``; hop distances feed the distance-bias lookup (its
buckets and their bound, ``DIST_CLAMP``, live in ``nets``) and the mean
edge-code one-hots along shortest paths feed the path bias.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .errors import DisconnectedError
from .graphs import BOND_VALENCE, MolGraph, StarLinkGraph

EDGE_CODES = tuple(BOND_VALENCE)  # single, double, triple, aromatic
_CODE_INDEX = {c: i for i, c in enumerate(EDGE_CODES)}
_ONEHOT = np.eye(len(EDGE_CODES))


@dataclass
class AttentionContext:
    """The masked pairs of a connected graph, or of a disjoint union of
    connected graphs, as a padded neighbour table.

    Row i holds the pairs atom i attends over: ``key[i, j]`` is a key atom
    at hop distance ``dist[i, j] < d_thres`` in image ``image[i, j]``, the
    shift of the repeat-unit copy the key sits in relative to atom i's (0
    on every pair of a plain graph).  The real keys come first, ordered by
    (key atom, image), and include the diagonal; on a periodic graph a row
    may hold one atom more than once, from different images.  The rest of
    the row, where ``pad[i, j]`` is set, is padding (key i, image 0,
    distance 0, zero path) that the layers must ignore.  The width D is
    the longest row.

    ``path[i, j]`` is the mean edge-code one-hot (per-code counts over the
    distance; 0 on the diagonal) along one shortest path from the key to
    atom i.  That path is fixed by a lowest-index-predecessor rule: each
    step back from atom i towards the key goes to the lowest-index
    neighbour one step closer to the key (among copies of one atom, the
    one that sees the key in the lowest image).
    """

    n: int
    key: np.ndarray          # (n, D) int key atoms
    dist: np.ndarray         # (n, D) int hop distances
    path: np.ndarray         # (n, D, len(EDGE_CODES)) edge-code means
    pad: np.ndarray          # (n, D) bool, set past each row's real keys
    image: np.ndarray        # (n, D) int image shift of each key


def _members(graphs):
    """One graph, or a sequence of graphs, as a list of union members."""
    if isinstance(graphs, (MolGraph, StarLinkGraph)):
        return [graphs]
    return list(graphs)


def neighbour_table(graphs: MolGraph | Sequence[MolGraph]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Each atom's neighbours in ascending order, and their edge codes.

    Given a sequence of graphs, the table is their disjoint union's:
    member i's atoms follow the atoms of the members before it.  Both are
    (n, D) with D the highest degree (at least 1, so that a bond-free atom
    still has a row); row i is padded with ``n`` past atom i's degree, an
    index one past the last atom, and code 0.  A bond order outside
    ``EDGE_CODES`` raises ``KeyError``.
    """
    gs = _members(graphs)
    bonds = [b for g in gs for b in g.bonds]
    n, m = sum(g.n for g in gs), len(bonds)
    uv = np.fromiter(chain.from_iterable(map(attrgetter("u", "v"), bonds)),
                     np.int64, 2 * m).reshape(m, 2)
    if len(gs) > 1:  # shift each member's bonds past the atoms before it
        uv += np.repeat(np.cumsum([0] + [g.n for g in gs[:-1]]),
                        [len(g.bonds) for g in gs])[:, None]
    c = np.fromiter(map(_CODE_INDEX.__getitem__,
                        map(attrgetter("order"), bonds)), np.int64, m)
    u, v, c = uv.T.ravel(), uv[:, ::-1].T.ravel(), np.concatenate([c, c])
    order = np.argsort(u * (n + 1) + v)
    u, v, c = u[order], v[order], c[order]
    col = np.arange(u.size) - np.searchsorted(u, u)  # place in u's run
    nbr = np.full((n, max(1, col.max(initial=0) + 1)), n, dtype=np.int64)
    nbr[u, col] = v
    code = np.zeros_like(nbr)
    code[u, col] = c
    return nbr, code


def build_context(graphs: MolGraph | StarLinkGraph
                  | Sequence[MolGraph | StarLinkGraph],
                  d_thres: int) -> AttentionContext:
    """BFS from every source at once, out to ring ``d_thres - 1``, with a
    deterministic shortest-path choice.

    Given a sequence of graphs, the context is their disjoint union's:
    member i's atoms follow the atoms of the members before it, so its rows
    are its own context's with every key offset by that many atoms, padded
    to the union's width.  One graph is the union of one.

    A ``StarLinkGraph`` is read as the periodic graph of its infinite
    chain: one repeat unit whose link bond carries an image shift, +1 from
    the tail to the next copy's head (the crystal graph of Xie & Grossman
    2018).  The BFS runs over (atom, image) nodes from the middle image's
    sources, over the ``2*d_thres - 1`` images that ``d_thres - 1`` hops
    can reach, so every pair is the infinite chain's and a row may hold
    one atom from two images.  A plain ``MolGraph`` stays in the middle
    image, and its link bond, if it has one, closes a cycle.

    Pairs are flat keys ``(atom * n + key) * images + t`` in the table's
    order, where the key is the BFS source and t - ``images // 2`` its
    image as seen from the atom; one numpy step expands a whole distance
    ring of the whole union.  Ties go to the predecessor whose pair comes
    first: the path from key s to an atom ends with the step from the
    lowest-index neighbour one step closer to s (among copies of one atom,
    the one that sees s in the lowest image), so identical inputs always
    produce identical path tables.  That predecessor is one ring closer,
    so cutting the BFS off at ``d_thres`` leaves every masked pair's path
    as the full BFS chooses it.
    """
    if d_thres < 1:
        raise ValueError("d_thres must be >= 1")
    members = _members(graphs)
    periodic = [isinstance(g, StarLinkGraph) for g in members]
    units = [g.monomer if p else g for g, p in zip(members, periodic)]
    if not units or not all(u.is_connected() for u in units):
        raise DisconnectedError("attention context requires a connected graph")
    linked = [g.as_graph() if p else g for g, p in zip(members, periodic)]
    n = sum(u.n for u in units)
    images = 2 * d_thres - 1 if any(periodic) else 1
    mid = images // 2
    nbr, code = neighbour_table(linked)

    # pair a * span + r steps to b * span + r for each neighbour b, less
    # the image shift of the bond (from b, the key's image is shifted the
    # other way); a pad's step lands past the last atom's pairs, which
    # count as reached, and a step out of the outermost images is never
    # taken, since the BFS stops d_thres - 1 images from the middle one
    span = images * n
    step = nbr * span
    start = 0
    for u, g, p in zip(units, linked, periodic):
        if p:  # the link bonds a copy's tail to the next copy's head
            step[start + u.tail, g.neighbors(u.tail).index(u.head)] -= 1
            step[start + u.head, g.neighbors(u.head).index(u.tail)] += 1
        start += u.n
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
        new = reach[fresh]
        order = np.argsort(new, kind="stable")
        at, ring = fresh[order], new[order]
        first = np.ones(at.size, dtype=bool)
        first[1:] = ring[1:] != ring[:-1]
        at, ring = at[first], ring[first]
        row, col = np.divmod(at, nbr.shape[1])
        # counts to a key = counts to its predecessor + the last edge
        counts.append(counts[-1][row] + _ONEHOT[code[a[row], col]])
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
    key_of, t = np.divmod(key_of, images)
    image = np.zeros(pad.shape, dtype=np.int64)
    image.reshape(-1)[slot] = t - mid
    key = np.repeat(np.arange(n)[:, None], pad.shape[1], axis=1)
    key.reshape(-1)[slot] = key_of
    dist = np.zeros(pad.shape, dtype=np.int64)
    dist.reshape(-1)[slot] = np.repeat(np.arange(len(rings)),
                                       [r.size for r in rings])
    path = np.zeros(pad.shape + (len(EDGE_CODES),))
    path.reshape(-1, len(EDGE_CODES))[slot] = np.concatenate(counts)
    path /= np.maximum(dist, 1)[:, :, None]
    return AttentionContext(n, key, dist, path, pad, image)

