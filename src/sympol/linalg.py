"""Projective subspaces of PG(d-1, p) with exact GF(p) arithmetic.

Vectors are tuples of ints in range(p).  A projective point is a nonzero
vector scaled so that its first nonzero entry is 1; this representative
is unique and doubles as the single row of the point's canonical matrix.

A Subspace is an immutable value identified by its reduced row echelon
matrix, so equality, hashing and the global ordering (row-major
lexicographic comparison of canonical matrices) are structural.  The
empty subspace has projective dimension -1 and is a first-class value.
The hash and points() are recomputed on each call; the retained record
of a Grassmannian member's points is grassmann.member_points.

points() reads the points off the canonical rows S: for coefficient
points c < c' of PG(m-1, p), the first index i where they differ decides
the comparison of c.S and c'.S at S's pivot column c_i, since earlier
columns depend only on the earlier, equal coefficients.  So c -> c.S
keeps the global order and each image has leading entry 1, and a fixed
recipe per (p, m) lists the points with one vector sum each, with no
sort or normalization.  Rows passed to the constructor must therefore
be canonical; every construction in the package meets this.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from sympol import _kernels
from sympol.errors import DimensionError


def normalize_point(vec, p):
    """Scale a nonzero vector so its first nonzero entry is 1."""
    for x in vec:
        if x:
            if x == 1:
                return tuple(vec)
            inv = _kernels.inverses(p)[x]
            return tuple((inv * a) % p for a in vec)
    raise ValueError("zero vector is not a projective point")


def vec_add(u, v, p):
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_scale(c, v, p):
    return tuple((c * a) % p for a in v)


@lru_cache(maxsize=None)
def _point_recipe(p, m):
    """How to build each point of PG(m-1, p), in the global order.

    Entry (l, c, t) makes the point x = e_l + c x_t, where l is x's
    leading position and x_t is the point with index t that starts with
    1 at x's next nonzero position, c being x's entry there; c = 0
    means x = e_l.  x_t has more leading zeros, so t is earlier in the
    order.  Points with leading position l come after those with a
    later one, each run ordered by its tail.
    """
    inv = _kernels.inverses(p)
    index = {}
    recipe = []
    for lead in range(m - 1, -1, -1):
        for tail in product(range(p), repeat=m - 1 - lead):
            x = (0,) * lead + (1,) + tail
            nxt = next((j for j, a in enumerate(tail, lead + 1) if a), None)
            if nxt is None:
                recipe.append((lead, 0, -1))
            else:
                c = x[nxt]
                t = (0,) * nxt + tuple((inv[c] * a) % p for a in x[nxt:])
                recipe.append((lead, c, index[t]))
            index[x] = len(index)
    return tuple(recipe)


def point_images(rows, p):
    """The vectors c.rows for the points c of PG(m-1, p), m = len(rows),
    in the global order of the c, one vector sum each.

    Follows _point_recipe: the image of e_l + c x_t is rows[l] plus c
    times the image of x_t, listed earlier.  The rows need not be
    canonical or independent, and the images are not normalized.
    """
    out = []
    for lead, c, t in _point_recipe(p, len(rows)):
        row = rows[lead]
        if c:
            row = tuple((a + c * b) % p for a, b in zip(row, out[t]))
        out.append(row)
    return tuple(out)


class Subspace:
    """A subspace of GF(p)^ambient in canonical row echelon form."""

    __slots__ = ("p", "ambient", "rows")

    def __init__(self, p, ambient, rows):
        # rows must already be canonical; use Subspace.span otherwise
        self.p = p
        self.ambient = ambient
        self.rows = rows

    @classmethod
    def span(cls, p, ambient, vectors) -> "Subspace":
        """Canonical subspace spanned by arbitrary vectors."""
        vectors = tuple(vectors)
        for v in vectors:
            if len(v) != ambient:
                raise DimensionError(f"vector of length {len(v)} in ambient {ambient}")
        return cls(p, ambient, _kernels.rref(vectors, ambient, p))

    @classmethod
    def full(cls, p, ambient) -> "Subspace":
        rows = tuple(tuple(1 if j == i else 0 for j in range(ambient)) for i in range(ambient))
        return cls(p, ambient, rows)

    @property
    def vdim(self) -> int:
        return len(self.rows)

    @property
    def pdim(self) -> int:
        """Projective dimension; -1 for the empty subspace."""
        return len(self.rows) - 1

    def _check_compatible(self, other):
        if self.p != other.p or self.ambient != other.ambient:
            raise DimensionError(
                f"incompatible subspaces: GF({self.p})^{self.ambient} vs GF({other.p})^{other.ambient}"
            )

    def contains_vector(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise DimensionError(f"vector of length {len(vec)} in ambient {self.ambient}")
        vec = tuple(x % self.p for x in vec)
        return not any(_kernels.residue(vec, self.rows, self.p))

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if other.vdim > self.vdim:
            return False
        return all(self.contains_vector(r) for r in other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        rows = _kernels.intersect(self.rows, other.rows, self.ambient, self.p)
        return Subspace(self.p, self.ambient, rows)

    def points(self):
        """All projective points in the global order, recomputed on each call.

        The rows S must be canonical, as the constructor requires.  The
        points are point_images of S: the images c.S of the points c of
        PG(m-1, p) (m = vdim), one vector sum each.  Nothing is sorted
        or normalized: each c.S has leading entry 1, and c -> c.S keeps
        the global order (see the module docstring).
        """
        return point_images(self.rows, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.ambient, self.rows))

    def __lt__(self, other):
        self._check_compatible(other)
        return self.rows < other.rows

    def __le__(self, other):
        self._check_compatible(other)
        return self.rows <= other.rows

    def __repr__(self):
        return f"Subspace(p={self.p}, pdim={self.pdim}, rows={self.rows})"


def intersect_all(subspaces) -> Subspace:
    """Intersection of a nonempty family."""
    it = iter(subspaces)
    acc = next(it)
    for s in it:
        acc = acc.intersect(s)
    return acc


def solve_particular(rows, rhs, p, width):
    """One solution x of A x^T = rhs, or None; free coordinates are 0."""
    aug = [tuple(r) + (b % p,) for r, b in zip(rows, rhs)]
    red = _kernels.rref(aug, width + 1, p)
    x = [0] * width
    for row in red:
        c = 0
        while not row[c]:
            c += 1
        if c == width:
            return None
        x[c] = row[width]
    return tuple(x)


def extend_basis(inner_rows, outer_rows, p, width):
    """Vectors from outer_rows completing span(inner_rows) to span(outer_rows).

    Returns the reduced residues, which are independent modulo the inner
    span and lie in the outer span.
    """
    acc = _kernels.rref(inner_rows, width, p)
    out = []
    for v in outer_rows:
        r = _kernels.residue(v, acc, p)
        if any(r):
            out.append(r)
            acc = _kernels.rref(acc + (r,), width, p)
    return out
