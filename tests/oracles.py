"""Independent routes that only the tests call.

Each function here recomputes, the long way, something the package
computes another way, or restates a check the verify suites make
inline, so the tests can compare the two.  None of it runs in a
command, and no module under src/ imports this one.
"""

from math import comb, factorial

from sympol import _kernels
from sympol.bases import PointMap, SymplecticBase, _require_enumerable, mat_apply, recognize
from sympol.errors import DegenerateParameterError, DimensionError
from sympol.grassmann import top
from sympol.linalg import Subspace, intersect_all, normalize_point, vec_add, vec_scale
from sympol.recon import _type1_transport
from sympol.subsets import (
    common_complement_count,
    maximal_inexact_families,
    meet_at,
    type1_members,
)


def layers(space):
    return range(space.n)


def all_subspaces(space, k):
    """Every pdim-k subspace of the ambient projective space.

    Built by extending each subspace by every point outside it, with no
    use of the form, so it stays independent of the canonical-prefix
    build of G_k.
    """
    p, d = space.p, space.dim
    level = [Subspace(p, d, ())]
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


def interval(space, m, n_sub, k):
    """Members of G_k between m (pdim k-1) and n_sub (pdim k+1)."""
    return tuple(s for s in top(space, n_sub, k) if s.contains(m))


def perturb_one(base, i, c):
    """Replace p_i by p_i + c p_sigma(i); any c != 0 gives a new base."""
    p = base.space.p
    if c % p == 0:
        raise DegenerateParameterError("c = 0 reproduces the same base")
    pts = list(base.points)
    partner = base.points[base.sigma[i]]
    pts[i] = normalize_point(vec_add(pts[i], vec_scale(c, partner, p), p), p)
    out = SymplecticBase(base.space, pts, base.sigma)
    assert recognize(base.space, out.points) == base.sigma
    return out


def identity(space):
    return PointMap(space, space, range(len(space.all_points())))


def compose(outer, inner):
    """outer after inner."""
    return PointMap(inner.source, outer.target, [outer.to[t] for t in inner.to])


def inverse(h):
    # index t of the inverse holds the i with to[i] = t
    return PointMap(h.target, h.source, sorted(range(len(h.to)), key=h.to.__getitem__))


def mat_mul(a, b, p):
    return tuple(mat_apply(row, b, p) for row in a)


def transvection_matrix(space, v, c):
    """Matrix of x -> x + c omega(x, v) v, a symplectic transvection."""
    d = space.dim
    fr = space.form_row(v)
    p = space.p
    return tuple(
        tuple((int(i == j) + c * fr[i] * v[j]) % p for j in range(d)) for i in range(d)
    )


def base_key_pairs(space, base):
    """Canonical index-pair key matching enumerate_bases_orbit."""
    index = space.point_index()
    idx = [index[x] for x in base.points]
    s = base.sigma
    return tuple(sorted(tuple(sorted((idx[i], idx[s[i]]))) for i in range(space.dim) if i < s[i]))


def enumerate_bases_orbit(space):
    """Orbit of the standard base under all transvections.

    Returns the set of canonical index-pair keys; transvections generate
    the symplectic group, so the orbit is the full base set.
    """
    _require_enumerable(space)
    perms = [
        PointMap.from_matrix(space, space, transvection_matrix(space, v, c)).to
        for v in space.all_points()
        for c in range(1, space.p)
    ]
    start = base_key_pairs(space, SymplecticBase.standard(space))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for k in frontier:
            for perm in perms:
                moved = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in k))
                if moved not in seen:
                    seen.add(moved)
                    nxt.append(moved)
        frontier = nxt
    return seen


def symplectic_group_order(n, p):
    """|Sp(2n, p)| = p^(n^2) prod_{i=1..n} (p^(2i) - 1)."""
    order = p ** (n * n)
    for i in range(1, n + 1):
        order *= p ** (2 * i) - 1
    return order


def expected_base_count(n, p):
    """Base count from the group order: stabilizers contribute
    (p - 1)^n scalings, 2^n in-pair swaps and n! pair permutations."""
    return symplectic_group_order(n, p) // ((p - 1) ** n * 2**n * factorial(n))


def subset_members(bs):
    """Every member of a base subset as a subspace, aligned with index_sets."""
    return tuple(bs.subspace(i) for i in bs.index_sets)


def meet_at_subspace(bs, collection, i):
    """Geometric form of meet_at, for cross-checking the index form."""
    through = [bs.subspace(s) for s in collection if i in s]
    if not through:
        space = bs.base.space
        return Subspace(space.p, space.dim, ())
    return intersect_all(through)


def pins_every_point(bs, collection):
    """Whether each position is the full meet of its members.

    A collection passing this test extends to a unique base subset; the
    converse direction fails, so a False answer decides nothing.
    """
    return all(meet_at(collection, i) == {i} for i in range(bs.base.space.dim))


def unpinned_exact_example(bs):
    """An exact collection that the pin test cannot confirm.

    Every member avoiding position 0 plus one member through it: for
    1 <= k < n - 1 the meet at 0 is that whole member rather than the
    point, yet only one base subset covers the collection.
    """
    if not 1 <= bs.k < bs.base.space.n - 1:
        raise DimensionError("needs a layer with 1 <= k < n - 1")
    extra = min(bs.select(plus=(0,)), key=sorted)
    return type1_members(bs, 0) | frozenset((extra,))


def classify_maximal_inexact(bs, collection):
    """Label of the constructed family equal to the collection, or None."""
    for label, members in maximal_inexact_families(bs):
        if members == collection:
            return label
    return None


def complement_adjacency_test(bs, sa, ua):
    """Adjacency of two top-layer members read off the complement count.

    Requires k = n - 1; the count equals choose(t, 2) for t shared
    positions, which separates adjacent pairs only when n >= 3.
    """
    if bs.k != bs.base.space.n - 1:
        raise DimensionError("complement counting reads adjacency only in the top layer")
    return common_complement_count(bs, sa, ua) == comb(bs.k, 2)


def type1_position_map(f, base):
    """Position bijection read off the first-type families, for k < n - 1.

    Position i goes to the position whose first-type family in the
    image subset is the image of the one at i.
    """
    return _type1_transport(f, base)[0]
