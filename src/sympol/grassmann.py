"""Isotropic Grassmannians: enumeration, adjacency, stars and tops.

G_k collects the totally isotropic subspaces of projective dimension k,
sorted by the global row-matrix ordering; downstream code refers to its
elements by index.  Enumeration works level by level: each isotropic
subspace s of rank j is extended by the points of a complement of s in
its perp, one representative per point of perp(s)/s, and duplicates
are removed by canonical form.  Each layer is cached on disk keyed by
(n, p, k): a cold (3, 3) build still takes about a second against a few
hundredths for a load.  The one setting for the cache location is the
SYMPOL_CACHE_DIR environment variable, read by default_cache_dir() and
falling back to ~/.cache/sympol.  A cached layer whose file format,
header or structure fails the check on load is rebuilt and rewritten.

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
themselves, hyperplanes_of the stars, and all_subspaces the layers;
they serve as the independent references the tests compare against.
hyperplanes_of reads no layer table: it maps the hyperplanes of
GF(p)^m, built once per (p, m), through a member's canonical rows.

through_masks records point-member incidence as one bitmask of G_k
indices per point, so a member spanned by known points is found by
ANDing their masks.
"""

from __future__ import annotations

import os
from functools import lru_cache

from sympol import _kernels
from sympol.errors import DimensionError, FeasibilityError, SchemaError
from sympol.linalg import Subspace, extend_basis
from sympol.serialize import atomic_write_json, load_json
from sympol.space import CLIQUE_GRID, SymplecticSpace, bits


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


def _levelwise(space, k):
    """G_k built from scratch, one rank at a time.

    Each totally isotropic s is extended by the points of a complement
    of s in perp(s): one representative per point of perp(s)/s, so
    every candidate is new to s and isotropic with it.  The empty
    subspace, whose perp is everything, takes every point.
    """
    p, d = space.p, space.dim
    level = [Subspace.empty(p, d)]
    for _ in range(k + 1):
        nxt = {}
        for s in level:
            if s.rows:
                rest = extend_basis(s.rows, space.perp(s).rows, p, d)
                candidates = Subspace.span(p, d, rest).points()
            else:
                candidates = space.all_points()
            for q in candidates:
                rows = _kernels.rref(s.rows + (q,), d, p)
                nxt.setdefault(rows, Subspace(p, d, rows))
        level = list(nxt.values())
    return tuple(sorted(level, key=lambda s: s.rows))


def all_subspaces(space: SymplecticSpace, k):
    """Every pdim-k subspace of the ambient projective space (oracle).

    Built by extending each subspace by every point outside it, with no
    use of the form, so it stays independent of _levelwise.
    """
    p, d = space.p, space.dim
    level = [Subspace.empty(p, d)]
    for _ in range(k + 1):
        nxt = {}
        for s in level:
            for q in space.all_points():
                if s.rows and s.contains_vector(q):
                    continue
                rows = _kernels.rref(s.rows + (q,), d, p)
                nxt.setdefault(rows, Subspace(p, d, rows))
        level = list(nxt.values())
    return tuple(sorted(level, key=lambda s: s.rows))


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


def _is_canonical(rows, width, p):
    """Whether rows are already in reduced row echelon form, read off the
    entries without row reduction."""
    pivots = []
    for row in rows:
        if len(row) != width or not all(0 <= x < p for x in row):
            return False
        c = next((i for i, x in enumerate(row) if x), None)
        if c is None or row[c] != 1 or (pivots and c <= pivots[-1]):
            return False
        pivots.append(c)
    return all(
        not row[c] for i, row in enumerate(rows) for j, c in enumerate(pivots) if i != j
    )


def _valid_layer(space, k, members):
    """Whether cached members can be G_k: the closed-form count, rows
    strictly increasing (hence distinct), and each member k + 1 canonical
    rows spanning a totally isotropic subspace."""
    if len(members) != grassmannian_size(space.n, space.p, k):
        return False
    if any(a.rows >= b.rows for a, b in zip(members, members[1:])):
        return False
    return all(
        len(s.rows) == k + 1
        and _is_canonical(s.rows, space.dim, space.p)
        and space.is_totally_isotropic(s)
        for s in members
    )


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
            Subspace(space.p, space.dim, tuple(tuple(int(x) for x in r) for r in rows))
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
    g = Grassmannian(space, k, _levelwise(space, k))
    atomic_write_json(
        _cache_path(cache_dir, space, k),
        {
            "format": CACHE_FORMAT,
            "space": space.header(),
            "k": k,
            "elements": [[list(r) for r in s.rows] for s in g.elements],
        },
    )
    return g


def grassmannian(space: SymplecticSpace, k) -> Grassmannian:
    """G_k for the space, memoized per (space, k, cache directory).

    The layer is read from the disk cache under default_cache_dir() when
    a valid file is there, and otherwise built and written to it.
    """
    return _grassmannian_memo(space, k, default_cache_dir())


@lru_cache(maxsize=None)
def through_masks(space: SymplecticSpace, k):
    """Bitmask per point index of the G_k members through that point.

    Bit m of entry pt is set when member m contains the point with index
    pt in space.all_points(); built once per (n, p, k) from each
    member's points, so later lookups need no row reduction.
    """
    index = space.point_index()
    masks = [0] * len(index)
    for m, s in enumerate(grassmannian(space, k).elements):
        bit = 1 << m
        for pt in s.points():
            masks[index[pt]] |= bit
    return tuple(masks)


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
    """Canonical bases of the hyperplanes of GF(p)^m, one per point phi of
    PG(m-1, p) in the global order: the kernel of the functional phi."""
    return tuple(_kernels.nullspace((phi,), m, p) for phi in Subspace.full(p, m).points())


def hyperplanes_of(s: Subspace):
    """All subspaces of s with pdim one less, canonical and sorted.

    Each hyperplane of GF(p)^m (m = vdim s) has a canonical coefficient
    basis C, built once per (p, m); its image in s has the rows C.S,
    where S is s's rows.  C.S needs no row reduction: S's columns at its
    pivot columns c_1 < ... < c_m form the identity, so C.S restricted
    to those columns is C itself, and each row of C.S vanishes left of
    c_j for the leading column j of the same row of C.  So C.S is
    reduced row echelon with pivots taken from C.  Distinct functionals
    have distinct kernels, so the images are distinct.  Reads no layer
    table: the tests compare star_table and hyper_masks against it.
    """
    m = s.vdim
    if m == 0:
        raise DimensionError("the empty subspace has no hyperplanes")
    p, rows, width = s.p, s.rows, s.ambient
    out = []
    for basis in _coordinate_hyperplanes(p, m):
        hyp = []
        for coeffs in basis:
            v = [0] * width
            for c, row in zip(coeffs, rows):
                if c:
                    v = [a + c * b for a, b in zip(v, row)]
            hyp.append(tuple(a % p for a in v))
        out.append(tuple(hyp))
    out.sort()
    return tuple(Subspace(p, width, r) for r in out)


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
    table = []
    for m in grassmannian(space, k - 1).elements:
        mask = -1
        for r in m.rows:
            mask &= through[index[r]]
        table.append(tuple(bits(mask)))
    return tuple(table)


@lru_cache(maxsize=None)
def hyper_masks(space: SymplecticSpace, k):
    """Bitmask per member of G_k of its hyperplanes in G_(k-1).

    Bit m of entry s is set when member m of G_(k-1) lies in member s of
    G_k.  This is star_table(space, k, None) inverted, so it needs no row
    reduction; hyperplanes_of gives the same rows geometrically.
    """
    stars = star_table(space, k, None)
    masks = [0] * grassmannian_size(space.n, space.p, k)
    for mi, row in enumerate(stars):
        bit = 1 << mi
        for si in row:
            masks[si] |= bit
    return tuple(masks)


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


def interval(space: SymplecticSpace, m: Subspace, n_sub: Subspace, k):
    """Members of G_k between m (pdim k-1) and n_sub (pdim k+1)."""
    return tuple(s for s in top(space, n_sub, k) if s.contains(m))


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
    return (
        _union_of_cliques(nverts, star_index_sets(space, k)),
        _union_of_cliques(nverts, top_index_sets(space, k)),
    )


def adjacency_masks(space, k):
    """(adjacency, ortho-adjacency) bitmask rows over G_k, both cached.

    Bit j of row i is set when elements i and j stand in the relation;
    diagonals stay clear.  Two members are adjacent exactly when they
    lie in a common star and ortho-adjacent exactly when they lie in a
    common top, so each row is the union of the cliques through its
    member, read off star_table with no row reduction.
    """
    return _adjacency_masks_memo(space, k)


def maximal_adjacency_cliques(space: SymplecticSpace, k):
    """All maximal cliques of the adjacency graph on G_k, as index sets.

    Brute force Bron-Kerbosch with pivoting on bitmask neighbourhoods;
    gated to the small grid.
    """
    if (space.n, space.p) not in CLIQUE_GRID:
        raise FeasibilityError(f"clique search supported only for (n, p) in {CLIQUE_GRID}")
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
    """Stars of G_k as index sets (for clique comparison).

    At k = 0 the only star is the one over the zero subspace, which
    is the whole point layer.
    """
    if k == 0:
        return [frozenset(range(len(grassmannian(space, 0))))]
    return sorted((frozenset(row) for row in star_table(space, k, None)), key=sorted)


def top_index_sets(space, k):
    """Tops of G_k as index sets; empty above the top rank.

    The top of a member of G_(k+1) is its set of hyperplanes in G_k,
    which is its row of hyper_masks(space, k + 1).
    """
    if k + 1 > space.n - 1:
        return []
    return sorted((frozenset(bits(mask)) for mask in hyper_masks(space, k + 1)), key=sorted)
