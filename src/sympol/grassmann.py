"""Isotropic Grassmannians: enumeration, adjacency, stars and tops.

G_k collects the totally isotropic subspaces of projective dimension k,
sorted by the global row-matrix ordering; downstream code refers to its
elements by index.  Enumeration works level by level, with one store
per layer: the memo behind grassmannian, backed by the disk cache.  A
layer missing from both is built from the stored layer below it, loaded
or built in turn, so building G_k also stores every layer below it.
Each member is formed once: a member u of G_k is formed from its
canonical prefix s = u.rows[:-1], a member of G_(k-1), and a last row
q, a point of perp(s) that is zero at s's pivot columns and has its
pivot in a free column of s (after s's last pivot, and zero in every
row of s).  A member of G_(k-1) with no free column is the prefix
of nothing and is skipped; every other s takes one perp, read off the
space's orthogonality masks, and one span of the complement of s in it.
The lower layer is sorted and each s's points come in the global
order, so the new layer comes out sorted.  Each layer is cached on disk
keyed by (n, p, k), as one compact JSON line.  The one setting for the
cache location is the SYMPOL_CACHE_DIR environment variable, read by
default_cache_dir() and falling back to ~/.cache/sympol.  A cached
layer whose file format, header or structure fails the check on load is
rebuilt and rewritten.

Two pdim-k subspaces are adjacent when their intersection has pdim
k - 1 (for k = 0 this means being distinct), and ortho-adjacent when,
in addition, each lies in the perp of the other.  The star of
M in G_(k-1) consists of all members of G_k through M; total isotropy
makes the [M, M-perp] interval condition automatic.  The top of N in
G_(k+1) consists of all its pdim-k subspaces.

star_table is the one record of incidence between consecutive layers,
read off through_masks with no row reduction.  hyper_masks is its
inverse, one bitmask of hyperplanes per member, and tops are read off
that inverse.  Two members of G_k are adjacent exactly when they share a
star, and ortho-adjacent exactly when they share a top, so
adjacency_masks builds both relations as unions of those cliques and
pair_relation reads them, with no pairwise geometry.  The predicates
adjacent and ortho_adjacent compute the relations from the subspaces
themselves, and hyperplanes_of the stars; they serve as the independent
references the tests compare against, beside a scan of every subspace
of the ambient space in tests/oracles.py that rebuilds each layer.
hyperplanes_of reads no layer table: the hyperplanes of GF(p)^m are
named once per (p, m) by the point indices of their canonical bases,
and a member's hyperplanes are its points() read at those indices, with
no sort, normalization or row reduction per member.

member_points lists each member's point indices, and through_masks
inverts it into point-member incidence, one bitmask of G_k indices per
point, so a member spanned by known points is found by ANDing their
masks.  Below the top layer the points come from each member's
points(); at k = n - 1 a member is its own perp, so they are read off
the space's ortho_masks, one space.meet of k + 1 rows per member.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

from sympol import _kernels
from sympol.errors import DimensionError, FeasibilityError, SchemaError
from sympol.linalg import Subspace
from sympol.serialize import atomic_write_text, load_json
from sympol.space import BASE_GRID, SymplecticSpace, bits, invert, meet


class Grassmannian:
    """Indexed family of all totally isotropic pdim-k subspaces."""

    __slots__ = ("space", "k", "elements", "_index")

    def __init__(self, space, k, elements):
        self.space = space
        self.k = k
        self.elements = tuple(elements)
        self._index = {s.rows: i for i, s in enumerate(self.elements)}

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def index_of(self, s: Subspace):
        """Index of a subspace, or None when not totally isotropic pdim-k."""
        return self._index.get(s.rows)

    def pair_relation(self, i, j):
        """(adjacent, ortho_adjacent) for two element indices.

        Read off the bit j of row i of adjacency_masks; an index outside
        0..len - 1 raises IndexError.
        """
        if not (0 <= i < len(self.elements) and 0 <= j < len(self.elements)):
            raise IndexError(f"pair ({i}, {j}) outside 0..{len(self.elements) - 1}")
        adj, ortho = adjacency_masks(self.space, self.k)
        return (bool(adj[i] >> j & 1), bool(ortho[i] >> j & 1))


def adjacent(s: Subspace, u: Subspace) -> bool:
    """Intersection has pdim one less; distinct points count as adjacent."""
    if s.pdim != u.pdim:
        raise DimensionError("adjacency needs equal projective dimensions")
    if s.pdim == 0:
        return s != u
    if s == u:
        return False
    rows = _kernels.intersect(s.rows, u.rows, s.ambient, s.p)
    return len(rows) == s.vdim - 1


def ortho_adjacent(space: SymplecticSpace, s: Subspace, u: Subspace) -> bool:
    """Adjacent and each inside the perp of the other."""
    return adjacent(s, u) and not any(space.omega(a, b) for a in s.rows for b in u.rows)


def _levelwise(space, k, lower):
    """G_k built from lower, the sorted members of G_(k-1), in sorted order.

    A pure function: _grassmannian_memo hands it the layer below, so
    each layer has one store and one copy per process, and a lower layer
    loaded from disk is extended, never rebuilt.  G_0 is every point,
    and lower is ignored.  Each member u of G_k (k > 0) is formed
    once, from its canonical prefix s = u.rows[:-1]: those rows are
    canonical and span a totally isotropic subspace, so s is in G_(k-1).
    The last row q lies in perp(s), vanishes at s's pivot columns, and
    has its pivot in a free column of s: one after s's last pivot where
    every row of s is 0.  Conversely, for any such s and q the rows
    s.rows + (q,) are canonical and totally isotropic, so this is a
    bijection.  An s with no free column is the prefix of no member and
    is skipped with no perp.  The points of perp(s) that vanish at s's
    pivot columns are the points of the complement spanned by the
    residues of perp(s)'s rows against s, and those with their pivot in
    a free column are the q.  No sort is needed: members sharing a
    prefix compare by q, which comes in the global order, and members
    with different prefixes compare as those prefixes do, which come
    sorted in lower.  The tests keep a scan of every subspace, by rref,
    as the oracle.
    """
    p, d = space.p, space.dim
    if not k:
        return tuple(Subspace(p, d, (q,)) for q in space.all_points())
    out = []
    for s in lower:
        last = s.rows[-1].index(1)
        free = {c for c in range(last + 1, d) if not any(r[c] for r in s.rows)}
        if not free:
            continue
        rest = [_kernels.residue(v, s.rows, p) for v in space.perp(s).rows]
        for q in Subspace.span(p, d, rest).points():
            if q.index(1) in free:
                out.append(Subspace(p, d, s.rows + (q,)))
    return tuple(out)


def default_cache_dir():
    """SYMPOL_CACHE_DIR when set and non-empty, else ~/.cache/sympol."""
    env = os.environ.get("SYMPOL_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "sympol")


# Version of the cache file layout; a file with no "format" or another
# value is rejected on load, so the layer is rebuilt and the file rewritten.
CACHE_FORMAT = 1


def _cache_path(cache_dir, space, k):
    return os.path.join(cache_dir, f"grassmannian-n{space.n}-p{space.p}-k{k}.json")


def _canonical_indices(index, rows):
    """The point indices of rows of ints in reduced row echelon form, else
    None.  The keys of index, the space's point_index(), are exactly the
    normalized points, so one lookup checks a row's width, entry range,
    non-zero-ness and leading 1.  Such rows are canonical exactly when
    their leads strictly increase and each row is 0 at every later row's
    lead; it is 0 at every earlier lead, being 0 before its own.  The
    tests keep _kernels.rref as the oracle."""
    found, last = [], -1
    for i, row in enumerate(rows):
        j = index.get(row)
        if j is None:
            return None
        c = row.index(1)
        if c <= last or any(r[c] for r in rows[:i]):
            return None
        found.append(j)
        last = c
    return found


def _valid_layer(space, k, members):
    """Whether cached members can be G_k: the closed-form count, int
    entries (True and 1.0 hash and compare like 1 in the point index),
    each member k + 1 canonical rows spanning a totally isotropic
    subspace (the AND of its points' ortho_masks rows holds them all),
    and rows strictly increasing (hence distinct), checked last."""
    if len(members) != grassmannian_size(space.n, space.p, k):
        return False
    if {type(x) for s in members for row in s.rows for x in row} != {int}:
        return False
    masks, index = space.ortho_masks(), space.point_index()
    for s in members:
        found = _canonical_indices(index, s.rows)
        if found is None or len(found) != k + 1:
            return False
        common = meet(masks, found)
        for i in found:
            if not common >> i & 1:
                return False
    return all(a.rows < b.rows for a, b in zip(members, members[1:]))


def _load_cached(space, k, cache_dir):
    """The cached G_k elements, or None when the file is absent, has
    another format, or fails validation."""
    path = _cache_path(cache_dir, space, k)
    if not os.path.exists(path):
        return None
    try:
        obj = load_json(path)
        if obj.get("format") != CACHE_FORMAT:
            return None
        if obj.get("space") != space.header() or obj.get("k") != k:
            return None
        elements = [
            Subspace(space.p, space.dim, tuple(tuple(r) for r in rows))
            for rows in obj["elements"]
        ]
    except (SchemaError, AttributeError, KeyError, TypeError, ValueError):
        return None
    return elements if _valid_layer(space, k, elements) else None


@lru_cache(maxsize=None)
def _grassmannian_memo(space, k, cache_dir):
    if not 0 <= k <= space.n - 1:
        raise DimensionError(f"k={k} outside 0..{space.n - 1}")
    cached = _load_cached(space, k, cache_dir)
    if cached is not None:
        return Grassmannian(space, k, cached)
    # resolved before the build, so _levelwise calls never nest
    lower = _grassmannian_memo(space, k - 1, cache_dir).elements if k else ()
    g = Grassmannian(space, k, _levelwise(space, k, lower))
    obj = {
        "format": CACHE_FORMAT,
        "space": space.header(),
        "k": k,
        "elements": [[list(r) for r in s.rows] for s in g.elements],
    }
    # compact, so the C encoder writes it; indented files still load
    text = json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    atomic_write_text(_cache_path(cache_dir, space, k), text)
    return g


def grassmannian(space: SymplecticSpace, k) -> Grassmannian:
    """G_k for the space, memoized per (space, k, cache directory).

    The layer is read from the disk cache under default_cache_dir() when
    a valid file is there, and otherwise built from G_(k-1), itself
    taken from this memo, and written to it.  So a cold G_k also stores
    the layers below it, and a lower layer loaded from disk is extended,
    never rebuilt.
    """
    return _grassmannian_memo(space, k, default_cache_dir())


@lru_cache(maxsize=None)
def member_points(space: SymplecticSpace, k):
    """Per member of G_k, the indices of its points in space.all_points().

    Each row is increasing.  Below the top layer a member s lies properly
    in its perp, so its points are s.points(), read at point_index():
    s.points() and all_points() share the global order.  At k = n - 1 a
    member is maximal totally isotropic, so it is its own perp, and its
    points are the AND of its rows' ortho_masks rows, read out by bits.
    This is the one pass over the members' points; through_masks, induce
    and hyperplane_table read it.
    """
    index = space.point_index()
    members = grassmannian(space, k).elements
    if k < space.n - 1:
        return tuple(tuple(index[pt] for pt in s.points()) for s in members)
    masks = space.ortho_masks()
    return tuple(tuple(bits(meet(masks, map(index.__getitem__, s.rows)))) for s in members)


@lru_cache(maxsize=None)
def through_masks(space: SymplecticSpace, k):
    """Bitmask per point index of the G_k members through that point.

    Bit m of entry pt is set when member m contains the point with index
    pt in space.all_points(); built once per (n, p, k) by inverting
    member_points, so later lookups need no row reduction.
    """
    return invert(member_points(space, k), len(space.all_points()))


def grassmannian_size(n, p, k):
    """Closed form: prod_{i=0..k} (p^(2n-2i) - 1) / (p^(i+1) - 1)."""
    num = 1
    den = 1
    for i in range(k + 1):
        num *= p ** (2 * n - 2 * i) - 1
        den *= p ** (i + 1) - 1
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None)
def _coordinate_hyperplanes(p, m):
    """The hyperplanes of GF(p)^m as tuples of point indices, sorted.

    The hyperplane for a point phi of PG(m-1, p) is the kernel of the
    functional phi.  Each row of its canonical basis is a point of
    PG(m-1, p), named by its index in Subspace.full(p, m).points(),
    whose order is the lexicographic order of the rows.
    """
    coords = Subspace.full(p, m).points()
    index = {pt: i for i, pt in enumerate(coords)}
    return tuple(
        sorted(tuple(index[r] for r in _kernels.nullspace((phi,), m, p)) for phi in coords)
    )


def hyperplanes_of(s: Subspace):
    """All subspaces of s with pdim one less, canonical and sorted.

    Each hyperplane of GF(p)^m (m = vdim s) has a canonical coefficient
    basis C, listed once per (p, m) by _coordinate_hyperplanes as point
    indices; its image in s has the rows C.S, where S is s's rows, and
    row i of C.S is point i of s.points().  C.S needs no row reduction:
    S's columns at its pivot columns c_1 < ... < c_m form the identity,
    so C.S restricted to those columns is C itself, and each row of C.S
    vanishes left of c_j for the leading column j of the same row of C.
    So C.S is reduced row echelon with pivots taken from C.  Since
    points() keeps the order of the coefficients, the index tuples'
    order is the order of the images, and nothing is sorted per call.
    Distinct functionals have distinct kernels, so the images are
    distinct.  Reads no layer table: the tests compare star_table and
    hyper_masks against it.
    """
    m = s.vdim
    if m == 0:
        raise DimensionError("the empty subspace has no hyperplanes")
    p, width, pts = s.p, s.ambient, s.points()
    return tuple(
        Subspace(p, width, tuple(pts[i] for i in idx)) for idx in _coordinate_hyperplanes(p, m)
    )


@lru_cache(maxsize=None)
def star_table(space: SymplecticSpace, k, _unused=None):
    """For each index of M in G_(k-1), the indices of its star in G_k.

    A member of G_k contains M exactly when it contains M's k canonical
    rows, each already a normalized point, so row M is the AND of their
    through_masks(space, k) rows, read out in increasing index order.
    hyperplanes_of gives the same table geometrically.

    The third argument is ignored.  Callers pass None so that every
    lookup shares the memo key (space, k, None), which the benchmark
    session warms before its timed operations; dropping the argument
    waits for a change to the benchmark.
    """
    if k < 1:
        raise DimensionError("stars need k >= 1")
    index = space.point_index()
    through = through_masks(space, k)
    members = grassmannian(space, k - 1).elements
    return tuple(tuple(bits(meet(through, map(index.__getitem__, m.rows)))) for m in members)


@lru_cache(maxsize=None)
def hyper_masks(space: SymplecticSpace, k):
    """Bitmask per member of G_k of its hyperplanes in G_(k-1).

    Bit m of entry s is set when member m of G_(k-1) lies in member s of
    G_k.  This is star_table(space, k, None) inverted, so it needs no row
    reduction; hyperplanes_of gives the same rows geometrically.
    """
    return invert(star_table(space, k, None), grassmannian_size(space.n, space.p, k))


def star(space: SymplecticSpace, m: Subspace, k):
    """All members of G_k through m, for m in G_(k-1)."""
    g_low = grassmannian(space, k - 1)
    g_high = grassmannian(space, k)
    mi = g_low.index_of(m)
    if mi is None:
        raise DimensionError("star vertex must be totally isotropic of pdim k-1")
    return tuple(g_high.elements[i] for i in star_table(space, k, None)[mi])


def top(space: SymplecticSpace, n_sub: Subspace, k):
    """All pdim-k subspaces of n_sub, for n_sub in G_(k+1)."""
    if n_sub.pdim != k + 1:
        raise DimensionError("top vertex must have pdim k+1")
    if grassmannian(space, k + 1).index_of(n_sub) is None:
        raise DimensionError("top vertex must be totally isotropic")
    return hyperplanes_of(n_sub)


def _union_of_cliques(nverts, cliques):
    """Bitmask rows of the graph whose edges join two members of a clique."""
    rows = [0] * nverts
    for clique in cliques:
        mask = sum(1 << i for i in clique)
        for i in clique:
            rows[i] |= mask
    return tuple(row & ~(1 << i) for i, row in enumerate(rows))


@lru_cache(maxsize=None)
def _adjacency_masks_memo(space, k):
    nverts = grassmannian_size(space.n, space.p, k)
    stars = star_table(space, k, None) if k else (range(nverts),)
    tops = [tuple(bits(mask)) for mask in hyper_masks(space, k + 1)] if k < space.n - 1 else ()
    return _union_of_cliques(nverts, stars), _union_of_cliques(nverts, tops)


def adjacency_masks(space, k):
    """(adjacency, ortho-adjacency) bitmask rows over G_k, both cached.

    Bit j of row i is set when elements i and j stand in the relation;
    diagonals stay clear.  Two members are adjacent exactly when they
    lie in a common star and ortho-adjacent exactly when they lie in a
    common top, so each row is the union of the cliques through its
    member: the star_table rows (at k = 0, the whole layer) and the bits
    of the hyper_masks(space, k + 1) rows (none at k = n - 1).
    """
    return _adjacency_masks_memo(space, k)


def maximal_adjacency_cliques(space: SymplecticSpace, k):
    """All maximal cliques of the adjacency graph on G_k, as index sets.

    Brute force Bron-Kerbosch with pivoting on bitmask neighbourhoods;
    gated to BASE_GRID.
    """
    if (space.n, space.p) not in BASE_GRID:
        raise FeasibilityError(f"clique search supported only for (n, p) in {BASE_GRID}")
    nverts = len(grassmannian(space, k))
    adj = adjacency_masks(space, k)[0]
    out = []

    def expand(r, p_mask, x_mask):
        if not p_mask and not x_mask:
            out.append(r)
            return
        pivot = -1
        best = -1
        for u in bits(p_mask | x_mask):
            c = (p_mask & adj[u]).bit_count()
            if c > best:
                best = c
                pivot = u
        for v in bits(p_mask & ~adj[pivot]):
            vb = 1 << v
            expand(r | vb, p_mask & adj[v], x_mask & adj[v])
            p_mask &= ~vb
            x_mask |= vb
    expand(0, (1 << nverts) - 1, 0)
    return sorted((frozenset(bits(r)) for r in out), key=sorted)


def star_index_sets(space, k):
    """Stars of G_k as index sets, for the cliques suite and the tests.

    At k = 0 the only star is the one over the zero subspace, which
    is the whole point layer.
    """
    if k == 0:
        return [frozenset(range(len(grassmannian(space, 0))))]
    return sorted((frozenset(row) for row in star_table(space, k, None)), key=sorted)


def top_index_sets(space, k):
    """Tops of G_k as index sets, for the cliques suite and the tests;
    empty above the top rank.

    The top of a member of G_(k+1) is its set of hyperplanes in G_k,
    which is its row of hyper_masks(space, k + 1).
    """
    if k + 1 > space.n - 1:
        return []
    return sorted((frozenset(bits(mask)) for mask in hyper_masks(space, k + 1)), key=sorted)
