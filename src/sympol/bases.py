"""Symplectic bases of the polar space and maps between point sets.

A symplectic base is a family of 2n projective points spanning the whole
space such that each point is non-orthogonal to exactly one other; the
partner assignment sigma is a fixed-point-free involution of the index
set.  Scaling representatives never changes the structure, so bases are
compared by their sorted point tuples, which key() builds on each call.
The bases formed from base_columns share the one standard_sigma tuple.

Bases are generated three ways: directly from the standard coordinate
frame, as images under random products of symplectic transvections, and
by exhaustive backtracking over point indices.  The tests cross-check
the backtracking count against the closed form
|Sp(2n, p)| / ((p - 1)^n 2^n n!) and the bases against a group-orbit
sweep, both kept in tests/oracles.py.  The backtracking walk,
base_columns, records one compact column of point indices per base
position, and nothing else holds the bases:
enumerate_all_bases returns a read-only sequence over those columns that
forms each base object only when it is read, through base_from_row, and
the base-subset universe and the exactness oracle read the columns
directly, with no base object.

A random product of transvections is never multiplied out: the rows
e_1..e_2n are pushed through the seeded transvections one at a time,
random_base normalizes them, and random_collineation tabulates every
point from them in one pass, as the point index table PointMap holds.
The tests' oracle for both multiplies the transvection matrices out and
tabulates the product with PointMap.from_matrix; their orbit sweep
tabulates each transvection the same way.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Sequence
from functools import lru_cache, partial
from itertools import combinations, repeat
from operator import itemgetter, mul

from sympol import _kernels
from sympol.errors import (
    ArityError,
    DegenerateParameterError,
    FeasibilityError,
    MapCheckError,
    RecognitionError,
    SpaceMismatchError,
)
from sympol.linalg import normalize_point, point_images, vec_add, vec_scale
from sympol.space import BASE_GRID, SymplecticSpace, bits


class SymplecticBase:
    """2n points with a fixed-point-free non-orthogonality pairing."""

    __slots__ = ("space", "points", "sigma")

    def __init__(self, space, points, sigma):
        self.space = space
        self.points = tuple(points)
        self.sigma = tuple(sigma)

    @classmethod
    def standard(cls, space: SymplecticSpace) -> "SymplecticBase":
        """The coordinate frame e_1..e_n, f_1..f_n with sigma i <-> n + i."""
        d = space.dim
        pts = tuple(tuple(1 if j == i else 0 for j in range(d)) for i in range(d))
        return cls(space, pts, standard_sigma(space.n))

    @classmethod
    def from_points(cls, space, points) -> "SymplecticBase":
        """Build from points alone; sigma is recovered by recognition."""
        pts = tuple(normalize_point(x, space.p) for x in points)
        return cls(space, pts, recognize(space, pts))

    def key(self):
        """Canonical identity: the sorted point tuple (sigma is implied)."""
        return tuple(sorted(self.points))

    def __eq__(self, other):
        return (
            isinstance(other, SymplecticBase)
            and self.space == other.space
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash((self.space, self.key()))

    def __repr__(self):
        return f"SymplecticBase(space={self.space!r}, points={self.points})"


@lru_cache(maxsize=None)
def standard_sigma(n):
    """i <-> n + i, as one tuple per n that every caller shares."""
    return tuple(range(n, 2 * n)) + tuple(range(n))


def recognize(space: SymplecticSpace, points):
    """Return sigma if the points form a symplectic base, else raise.

    Raises ArityError on a wrong-sized family and RecognitionError with
    reason 'dependent', 'no partner' or 'partner not unique' otherwise.
    """
    d = space.dim
    if len(points) != d:
        raise ArityError(f"expected {d} points, got {len(points)}")
    pts = [normalize_point(x, space.p) for x in points]
    if len(_kernels.rref(pts, d, space.p)) != d:
        raise RecognitionError("dependent")
    sigma = []
    for i, x in enumerate(pts):
        partners = [j for j, y in enumerate(pts) if j != i and space.omega(x, y)]
        if not partners:
            raise RecognitionError("no partner", f"index {i}")
        if len(partners) > 1:
            raise RecognitionError("partner not unique", f"index {i}")
        sigma.append(partners[0])
    # symmetry of non-orthogonality makes sigma an involution, and
    # omega(x, x) = 0 makes it fixed-point-free; assert both anyway
    assert all(sigma[sigma[i]] == i and sigma[i] != i for i in range(d))
    return tuple(sigma)


def is_symplectic_base(space, points) -> bool:
    try:
        recognize(space, points)
    except (ArityError, RecognitionError, ValueError):
        return False
    return True


def perturb_pair(base: SymplecticBase, i: int, j: int) -> SymplecticBase:
    """Replace p_i by p_i + p_j and move p_sigma(j) to compensate.

    Requires j not in {i, sigma(i)}.  The replacement for p_sigma(j) is
    the unique point of the line through p_sigma(i) and p_sigma(j)
    orthogonal to the new p_i; sigma is unchanged.
    """
    space = base.space
    p = space.p
    sigma = base.sigma
    if j == i or j == sigma[i]:
        raise DegenerateParameterError("j must avoid i and sigma(i)")
    x_i, x_j = base.points[i], base.points[j]
    x_si, x_sj = base.points[sigma[i]], base.points[sigma[j]]
    w_i = space.omega(x_i, x_si)
    w_j = space.omega(x_j, x_sj)
    inv = _kernels.inverses(p)
    lam = (-w_i * inv[w_j]) % p
    pts = list(base.points)
    pts[i] = normalize_point(vec_add(x_i, x_j, p), p)
    pts[sigma[j]] = normalize_point(vec_add(x_si, vec_scale(lam, x_sj, p), p), p)
    out = SymplecticBase(space, pts, sigma)
    assert recognize(space, out.points) == sigma
    return out


class PointMap:
    """An injective map from all points of one space to another.

    to[i] is the target point index of source point i, both in
    all_points() order, as in GrassmannianMap.table; table is the same
    map as a dict of point vectors, built on each read.  Spaces share
    (n, p), but both handles are kept so the frames stay separate.
    """

    __slots__ = ("source", "target", "to")

    def __init__(self, source, target, to):
        if (source.n, source.p) != (target.n, target.p):
            raise SpaceMismatchError(
                f"source (n={source.n}, p={source.p}) vs target (n={target.n}, p={target.p})"
            )
        to = tuple(to)
        if len(to) != len(source.all_points()):
            raise MapCheckError("table must cover every source point exactly once")
        if len(set(to)) != len(to):
            raise MapCheckError("table is not injective")
        # True and 1.0 hash and compare like 1, so the range test alone
        # would pass them
        if {type(t) for t in to} != {int} or not set(to) <= set(range(len(target.all_points()))):
            raise MapCheckError("table values must be target points")
        self.source = source
        self.target = target
        self.to = to

    @classmethod
    def from_matrix(cls, source, target, matrix) -> "PointMap":
        """Point map induced by an invertible matrix acting on rows."""
        index, p = target.point_index(), source.p
        images = (normalize_point(mat_apply(x, matrix, p), p) for x in source.all_points())
        return cls(source, target, map(index.__getitem__, images))

    @property
    def table(self):
        images = map(self.target.all_points().__getitem__, self.to)
        return dict(zip(self.source.all_points(), images))

    def apply_base(self, base: SymplecticBase) -> SymplecticBase:
        index, pts = self.source.point_index(), self.target.all_points()
        images = (pts[self.to[index[x]]] for x in base.points)
        return SymplecticBase.from_points(self.target, images)

    def orthogonality_witness(self):
        """The first point pair on which orthogonality flips, or None.

        Pairs (x, y) are ordered by the source point indices i < j of x
        and y.  The target ortho_masks row of x's image is pulled back
        through the point table, so its bit j says whether the images of
        x and of source point j are orthogonal, and XORed with source
        row i.  The pull-back permutes the N binary digits of the row,
        N being the number of points, with one itemgetter: digit
        N - 1 - j of the result is digit N - 1 - to[j] of the row, read
        from the left.  The first row with a flip holds the first flipping
        pair, because the flip relation is symmetric and never holds on
        the diagonal, so that row's lowest flip lies at some j > i.
        """
        pts, to = self.source.all_points(), self.to
        size = len(to)
        digits = f"0{size}b"
        pull = itemgetter(*(size - 1 - t for t in reversed(to)))
        tgt_rows = self.target.ortho_masks()
        for i, row in enumerate(self.source.ortho_masks()):
            flips = int("".join(pull(format(tgt_rows[to[i]], digits))), 2) ^ row
            if flips:
                return pts[i], pts[(flips & -flips).bit_length() - 1]
        return None

    def preserves_orthogonality(self) -> bool:
        """True when orthogonality is preserved in both directions."""
        return self.orthogonality_witness() is None

    def __eq__(self, other):
        return (
            isinstance(other, PointMap)
            and self.source == other.source
            and self.target == other.target
            and self.to == other.to
        )

    def __repr__(self):
        return f"PointMap({self.source!r} -> {self.target!r}, {len(self.to)} points)"


def mat_apply(x, matrix, p):
    """Row vector times matrix."""
    d = len(matrix[0])
    return tuple(sum(x[i] * matrix[i][j] for i in range(len(x))) % p for j in range(d))


def _transvection_stream(space, rng, count):
    pts = space.all_points()
    for _ in range(count):
        v = pts[rng.randrange(len(pts))]
        c = 1 if space.p == 2 else rng.randrange(1, space.p)
        yield v, c


def _pushed_rows(space, seed):
    """Rows of the seeded product T_1 T_2 ... T_6n of transvection matrices.

    Row i is e_i pushed through the transvections in stream order, since
    x T_1 T_2 ... applies T_1 first; x T = x + c omega(v, x) v touches a
    row only when omega(v, x) != 0.  Entries are reduced mod p after each
    step, as each step of a matrix product reduces them, so the rows equal
    the matrix product entry for entry.
    """
    rng = random.Random(seed)
    p, d = space.p, space.dim
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    for v, c in _transvection_stream(space, rng, 3 * d):
        fr = space.form_row(v)
        for i, x in enumerate(rows):
            w = sum(map(mul, fr, x)) % p
            if w:
                f = (c * w) % p
                rows[i] = [(a + f * b) % p for a, b in zip(x, v)]
    return rows


def random_collineation(space: SymplecticSpace, seed) -> PointMap:
    """Seeded product of 6n symplectic transvections as a point map.

    Transvections preserve the form exactly, so the result preserves
    orthogonality in both directions; products of length at least 4n
    reach the whole group.  The image vectors of all_points(), in its
    order, are point_images of the pushed rows, one vector sum each
    with no matrix product: a point x whose leading 1 sits at position
    l is e_l + c t for an earlier point t, so x's image vector is row l
    plus c times t's.
    """
    p, index = space.p, space.point_index()
    images = point_images(_pushed_rows(space, seed), p)
    return PointMap(space, space, [index[normalize_point(y, p)] for y in images])


def random_base(space: SymplecticSpace, seed) -> SymplecticBase:
    """Image of the standard base under random_collineation(space, seed).

    The standard points are e_1..e_2n, so their images are the pushed
    rows, normalized.
    """
    points = tuple(normalize_point(x, space.p) for x in _pushed_rows(space, seed))
    return SymplecticBase(space, points, standard_sigma(space.n))


def _require_enumerable(space):
    if (space.n, space.p) not in BASE_GRID:
        raise FeasibilityError(f"full base enumeration supported only for (n, p) in {BASE_GRID}")


@lru_cache(maxsize=None)
def base_columns(space: SymplecticSpace):
    """Every symplectic base exactly once, as one index column per position.

    Column i is a bytes object holding the point index, in
    space.all_points(), of position i of every base, in enumeration
    order; position i pairs with n + i, as in standard_sigma.  One byte
    per index is enough on BASE_GRID, whose spaces have at most 63
    points, and bytes refuse an index above 255 rather than wrap it.

    The order is that of a backtracking walk over non-orthogonal index
    pairs (a, b) with a < b, the a's increasing; orthogonality between
    chosen pairs forces linear independence, so no rank checks are
    needed.  The points orthogonal to a chosen pair span a nondegenerate
    subspace with one pair fewer, and the bases below the pair are that
    subspace's own bases whose first a exceeds this one: a suffix of its
    table, since its table lists first a's in increasing order.  So each
    subspace's table is built once, however many pairs lead to it.  A
    table of one pair is a hyperbolic line, on which any two distinct
    points are non-orthogonal, so it lists every 2-subset of the line.
    The feasibility gate runs before any table is read.
    """
    _require_enumerable(space)
    masks = space.ortho_masks()
    full = (1 << len(masks)) - 1
    tables = {}  # point mask of a nondegenerate subspace -> its columns

    def table(span, m):
        """Columns of every base of the subspace of m pairs on span."""
        got = tables.get(span)
        if got is None:
            if m == 1:
                pairs = list(combinations(bits(span), 2))
                got = (bytes(a for a, _ in pairs), bytes(b for _, b in pairs))
            else:
                got = tuple(bytearray() for _ in range(2 * m))
                for a in bits(span):
                    above = full >> (a + 1) << (a + 1)
                    for b in bits(span & ~masks[a] & above):
                        sub = table(span & masks[a] & masks[b], m - 1)
                        start = bisect_left(sub[0], a + 1)
                        count = len(sub[0]) - start
                        got[0].extend(repeat(a, count))
                        got[m].extend(repeat(b, count))
                        for i in range(1, m):
                            got[i].extend(sub[i - 1][start:])
                            got[m + i].extend(sub[m + i - 2][start:])
            tables[span] = got
        return got

    return tuple(map(bytes, table(full, space.n)))


def base_from_row(space: SymplecticSpace, row):
    """The base whose position i is point row[i] of space.all_points().

    row is one row of base_columns(space), the point index of each
    position of one base; positions pair as in standard_sigma.
    """
    pts = space.all_points()
    return SymplecticBase(space, tuple(map(pts.__getitem__, row)), standard_sigma(space.n))


class _BaseSequence(Sequence):
    """Every base of a space, in base_columns order, formed on each read.

    Holds only the columns: base t is base_from_row of row t, so it
    exists only while a caller holds it.  A slice is a tuple of bases.
    """

    __slots__ = ("space", "columns")

    def __init__(self, space, columns):
        self.space = space
        self.columns = columns

    def __len__(self):
        return len(self.columns[0])

    def __getitem__(self, t):
        if isinstance(t, slice):
            return tuple(map(self.__getitem__, range(*t.indices(len(self)))))
        return base_from_row(self.space, [column[t] for column in self.columns])

    def __iter__(self):
        return map(partial(base_from_row, self.space), zip(*self.columns))


@lru_cache(maxsize=None)
def enumerate_all_bases(space: SymplecticSpace):
    """Every symplectic base exactly once, in base_columns order.

    A read-only sequence (len, indexing, slices, iteration) over the
    columns, which this call walks: base t takes position i from row t
    of column i, and is formed only when it is read.  No base object is
    kept, so holding the enumeration costs no more than the columns;
    every base shares the one standard_sigma tuple.
    """
    return _BaseSequence(space, base_columns(space))
