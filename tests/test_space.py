"""Form identities and perp behavior of the ambient space."""

import pytest

from sympol import _kernels
from sympol.errors import DimensionError, FeasibilityError
from sympol.grassmann import grassmannian
from sympol.linalg import Subspace
from sympol.space import ENUM_GRID, SymplecticSpace, invert, meet, single_bit


def unit(dim, i):
    return tuple(int(j == i) for j in range(dim))


def test_single_bit():
    assert single_bit(1) == 0
    assert single_bit(1 << 70) == 70
    assert single_bit(0) is None
    assert single_bit(-1) is None
    assert single_bit((1 << 70) | 1) is None


def test_meet_and_invert():
    rows = (0b1110, 0b0111, 0b1011, 0b1101)
    assert meet(rows, []) == -1
    assert meet(rows, [0]) == 0b1110
    assert meet(rows, (0, 1)) == 0b0110
    assert meet(rows, range(4)) == 0
    table = ((1, 2, 3), (0, 1, 2), (0, 1, 3), ())
    assert invert(table, 5) == (0b0110, 0b0111, 0b0011, 0b0101, 0)
    assert invert((), 2) == (0, 0)


def test_unsupported_parameters_rejected():
    with pytest.raises(FeasibilityError):
        SymplecticSpace(1, 2)
    with pytest.raises(FeasibilityError):
        SymplecticSpace(2, 4)


def test_form_is_alternating_and_antisymmetric(small_space):
    sp = small_space
    pts = sp.all_points()[:40]
    for x in pts:
        assert sp.omega(x, x) == 0
    for x in pts[:12]:
        for y in pts[:12]:
            assert (sp.omega(x, y) + sp.omega(y, x)) % sp.p == 0


def test_standard_pairing(small_space):
    sp = small_space
    n, d = sp.n, sp.dim
    for i in range(n):
        for j in range(n):
            assert sp.omega(unit(d, i), unit(d, n + j)) == (1 if i == j else 0)
            assert sp.omega(unit(d, i), unit(d, j)) == 0
            assert sp.omega(unit(d, n + i), unit(d, n + j)) == 0


def test_form_is_nondegenerate(small_space):
    sp = small_space
    for x in sp.all_points():
        assert any(v % sp.p for v in sp.form_row(x))


def test_point_count(small_space):
    sp = small_space
    expected = (sp.p ** sp.dim - 1) // (sp.p - 1)
    assert len(sp.all_points()) == expected
    assert len(sp.point_index()) == expected


def test_perp_dimensions_and_involution(small_space):
    sp = small_space
    s = Subspace.span(sp.p, sp.dim, [unit(sp.dim, 0), unit(sp.dim, 1)])
    perp = sp.perp(s)
    assert perp.vdim == sp.dim - s.vdim
    assert sp.perp(perp) == s
    for x in s.rows:
        for y in perp.rows:
            assert sp.omega(x, y) == 0


def _perp_by_row_reduction(sp, s):
    """perp(s) as the nullspace of the form rows of s's rows."""
    funcs = tuple(sp.form_row(r) for r in s.rows)
    return Subspace(sp.p, sp.dim, _kernels.nullspace(funcs, sp.dim, sp.p))


# perp reads its rows off ortho_masks with no row reduction; the nullspace
# of the form rows checks it on every isotropic subspace and on each perp.
@pytest.mark.parametrize("n,p", ENUM_GRID, ids=[f"n{n}p{p}" for n, p in ENUM_GRID])
def test_perp_matches_row_reduction(n, p):
    sp = SymplecticSpace.standard(n, p)
    subspaces = [Subspace(p, sp.dim, ()), Subspace.full(p, sp.dim)]
    for k in range(n):
        subspaces.extend(grassmannian(sp, k))
    for s in subspaces:
        perp = sp.perp(s)
        assert perp == _perp_by_row_reduction(sp, s)
        assert sp.perp(perp) == _perp_by_row_reduction(sp, perp)


def test_total_isotropy(small_space):
    sp = small_space
    n, d = sp.n, sp.dim
    coords = Subspace.span(sp.p, d, [unit(d, i) for i in range(n)])
    assert sp.is_totally_isotropic(coords)
    paired = Subspace.span(sp.p, d, [unit(d, 0), unit(d, n)])
    assert not sp.is_totally_isotropic(paired)
    # pdim of a totally isotropic subspace is capped at n - 1
    assert coords.pdim == n - 1


# Every pair, against omega itself: the masks are folded from residue
# classes of coordinates and share no code with omega.
@pytest.mark.parametrize("n,p", ENUM_GRID, ids=[f"n{n}p{p}" for n, p in ENUM_GRID])
def test_ortho_masks_match_form(n, p):
    sp = SymplecticSpace(n, p)
    pts = sp.all_points()
    masks = sp.ortho_masks()
    assert len(masks) == len(pts)
    for i, x in enumerate(pts):
        want = sum(1 << j for j, y in enumerate(pts) if sp.omega(x, y) == 0)
        assert masks[i] == want


def test_check_rejects_foreign_subspaces(small_space):
    sp = small_space
    with pytest.raises(DimensionError):
        sp.perp(Subspace.span(sp.p, sp.dim + 2, [unit(sp.dim + 2, 0)]))


def test_header_and_identity(small_space):
    sp = small_space
    assert sp.header() == {"n": sp.n, "p": sp.p, "form": "standard"}
    assert SymplecticSpace(sp.n, sp.p) == sp
    assert SymplecticSpace.standard(sp.n, sp.p) is SymplecticSpace.standard(sp.n, sp.p)
