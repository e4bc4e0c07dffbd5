"""The symplectic polar space of rank n over GF(p).

The ambient vector space is GF(p)^(2n) carrying the standard alternating
form with Gram matrix blocks [[0, I], [-I, 0]]: writing a vector as
(x_1..x_n, y_1..y_n), the form is sum(x_i y'_i - y_i x'_i).  Points of
the projective space PG(2n-1, p) are all isotropic; a subspace is
totally isotropic exactly when the form vanishes on it, which bounds its
projective dimension by n - 1.
"""

from __future__ import annotations

from functools import lru_cache

from sympol.errors import DimensionError, FeasibilityError
from sympol.linalg import Subspace

SUPPORTED_PRIMES = (2, 3, 5)

# Feasibility grids: hard limits for exhaustive machinery, not suggestions.
# Grassmannian caches, collineations and map plumbing run on ENUM_GRID.
# Enumerating every symplectic base is bounded by BASE_GRID, which
# therefore also gates the exactness oracle, the collineation suites and
# maximal clique search, which takes seconds on the (3, 3) lines.
ENUM_GRID = ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3))
BASE_GRID = ((2, 2), (2, 3), (3, 2))


def bits(mask):
    """Indices of the set bits of a nonnegative int, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def single_bit(mask):
    """The index of the one set bit of mask, or None for any other mask."""
    if mask > 0 and not mask & (mask - 1):
        return mask.bit_length() - 1
    return None


def meet(rows, keys):
    """The AND of rows[i] over the keys i; -1, every bit set, for no keys."""
    mask = -1
    for i in keys:
        mask &= rows[i]
    return mask


def invert(rows, size):
    """Per column c < size, the bitmask of the m with c in rows[m]."""
    masks = [0] * size
    for m, row in enumerate(rows):
        bit = 1 << m
        for c in row:
            masks[c] |= bit
    return tuple(masks)


def image_mask(mask, table):
    """The bitmask of the table images of the indices set in mask."""
    out = 0
    for i in bits(mask):
        out |= 1 << table[i]
    return out


class SymplecticSpace:
    """Rank n symplectic space over GF(p) with the standard form."""

    __slots__ = ("n", "p", "dim", "_points", "_point_index", "_ortho_masks", "_zero_masks")

    def __init__(self, n, p):
        if n < 2:
            raise FeasibilityError(f"rank n={n} unsupported, need n >= 2")
        if p not in SUPPORTED_PRIMES:
            raise FeasibilityError(f"p={p} unsupported, need p in {SUPPORTED_PRIMES}")
        self.n = n
        self.p = p
        self.dim = 2 * n
        self._points = None
        self._point_index = None
        self._ortho_masks = None
        self._zero_masks = None

    @staticmethod
    @lru_cache(maxsize=None)
    def standard(n, p) -> "SymplecticSpace":
        return SymplecticSpace(n, p)

    def header(self):
        return {"n": self.n, "p": self.p, "form": "standard"}

    def omega(self, x, y) -> int:
        """Value of the alternating form on two vectors."""
        n, p = self.n, self.p
        acc = 0
        for i in range(n):
            acc += x[i] * y[n + i] - x[n + i] * y[i]
        return acc % p

    def form_row(self, x):
        """The functional y -> omega(x, y) as a coefficient vector."""
        n, p = self.n, self.p
        return tuple(x[n + i] % p for i in range(n)) + tuple((-x[i]) % p for i in range(n))

    def perp(self, s: Subspace) -> Subspace:
        """All vectors orthogonal to a subspace; pdim is 2n - 2 - pdim(s).

        Read off bitmasks over all_points(), with no row reduction.  The
        rows of s must be canonical, as Subspace requires, so each is a
        normalized point with an index, and the points of perp(s) are the
        AND of their ortho_masks rows.  The pivot columns of a subspace
        are exactly the leading positions of its points, and its
        canonical row with pivot c is its one point with lead c that is
        zero at every later pivot: the coefficient of each row in a
        vector is the vector's entry at that row's pivot.  The points
        with lead c are a contiguous run of all_points(), and the points
        zero at column j are entry j of the zero masks ortho_masks keeps.
        """
        self._check(s)
        index = self.point_index()
        mask = meet(self.ortho_masks(), map(index.__getitem__, s.rows))
        p, d = self.p, self.dim
        # the points with lead c: p^(d-1-c) of them, after the
        # (p^(d-1-c) - 1)/(p - 1) points with a later lead
        runs = []
        for c in range(d):
            size = p ** (d - 1 - c)
            run = mask & (((1 << size) - 1) << ((size - 1) // (p - 1)))
            if run:
                runs.append((c, run))
        pts, zeros = self.all_points(), self._zero_masks
        rows = []
        later = -1
        for c, run in reversed(runs):
            rows.append(pts[single_bit(run & later)])
            later &= zeros[c]
        return Subspace(p, d, tuple(reversed(rows)))

    def is_totally_isotropic(self, s: Subspace) -> bool:
        self._check(s)
        rows = s.rows
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if self.omega(rows[i], rows[j]):
                    return False
        return True

    def all_points(self):
        """Every point of PG(2n-1, p), sorted by the global ordering."""
        if self._points is None:
            self._points = Subspace.full(self.p, self.dim).points()
        return self._points

    def point_index(self):
        if self._point_index is None:
            self._point_index = {pt: i for i, pt in enumerate(self.all_points())}
        return self._point_index

    def ortho_masks(self):
        """Bitmask per point index of the points orthogonal to it.

        Folded from residue classes, with no pairwise form evaluation:
        coord[j][v] is the mask of the points whose coordinate j is v.
        Folding a point's form_row through them one coordinate at a time
        keeps acc[r], the mask of the points y with partial form value r,
        and the row is acc[0] at the end.  The coord[j][0] classes are
        kept as zero_masks, which perp reads.
        """
        if self._ortho_masks is None:
            p, pts = self.p, self.all_points()
            coord = [[0] * p for _ in range(self.dim)]
            for i, y in enumerate(pts):
                bit = 1 << i
                for j, v in enumerate(y):
                    coord[j][v] |= bit
            everything = (1 << len(pts)) - 1
            masks = []
            for x in pts:
                acc = [everything] + [0] * (p - 1)
                for c, classes in zip(self.form_row(x), coord):
                    if c:
                        nxt = [0] * p
                        for v, cls in enumerate(classes):
                            shift = c * v
                            for r, m in enumerate(acc):
                                nxt[(r + shift) % p] |= m & cls
                        acc = nxt
                masks.append(acc[0])
            self._zero_masks = tuple(classes[0] for classes in coord)
            self._ortho_masks = tuple(masks)
        return self._ortho_masks

    def _check(self, s: Subspace):
        if s.p != self.p or s.ambient != self.dim:
            raise DimensionError(
                f"subspace of GF({s.p})^{s.ambient} in space GF({self.p})^{self.dim}"
            )

    def __eq__(self, other):
        return isinstance(other, SymplecticSpace) and self.n == other.n and self.p == other.p

    def __hash__(self):
        return hash((SymplecticSpace, self.n, self.p))

    def __repr__(self):
        return f"SymplecticSpace(n={self.n}, p={self.p})"
