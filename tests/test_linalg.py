"""Canonical subspaces and the lattice operations on them."""

import random

import pytest

from sympol.errors import DimensionError
from sympol.linalg import (
    Subspace,
    extend_basis,
    intersect_all,
    normalize_point,
    solve_particular,
)


def test_normalize_point_scales_leading_entry():
    assert normalize_point((0, 2, 1), 3) == (0, 1, 2)
    assert normalize_point((2, 2, 0), 5) == (1, 1, 0)
    with pytest.raises(ValueError):
        normalize_point((0, 0, 0), 3)


def test_span_canonicalizes():
    a = Subspace.span(2, 4, [(1, 1, 0, 0), (0, 0, 1, 1)])
    b = Subspace.span(2, 4, [(1, 1, 1, 1), (0, 0, 1, 1)])
    assert a == b
    assert a.vdim == 2 and a.pdim == 1
    assert hash(a) == hash(b)


def test_empty_and_full():
    e = Subspace(3, 4, ())
    f = Subspace.full(3, 4)
    assert e.vdim == 0 and e.pdim == -1
    assert f.vdim == 4
    assert f.contains(e)
    assert e.intersect(f) == e
    assert Subspace.span(3, 4, e.rows + f.rows) == f


def test_contains_and_points():
    s = Subspace.span(3, 3, [(1, 0, 1), (0, 1, 2)])
    pts = list(s.points())
    # (3^2 - 1) / (3 - 1) projective points in a 2-dim space
    assert len(pts) == 4
    assert len(set(pts)) == 4
    for x in pts:
        assert s.contains_vector(x)
        assert x == normalize_point(x, 3)
    assert not s.contains_vector((1, 1, 1))


def test_mismatched_ambients_rejected():
    a = Subspace.span(2, 4, [(1, 0, 0, 0)])
    b = Subspace.span(2, 6, [(1, 0, 0, 0, 0, 0)])
    with pytest.raises(DimensionError):
        a.intersect(b)


def test_lattice_dimension_formula():
    rng = random.Random("lattice")
    for p in (2, 3):
        for _ in range(30):
            vecs = [tuple(rng.randrange(p) for _ in range(5)) for _ in range(rng.randrange(1, 4))]
            wecs = [tuple(rng.randrange(p) for _ in range(5)) for _ in range(rng.randrange(1, 4))]
            a = Subspace.span(p, 5, vecs)
            b = Subspace.span(p, 5, wecs)
            meet = a.intersect(b)
            join = Subspace.span(p, 5, a.rows + b.rows)
            assert meet.vdim + join.vdim == a.vdim + b.vdim
            assert a.contains(meet) and b.contains(meet)
            assert join.contains(a) and join.contains(b)


def test_intersect_all_folds():
    p = 2
    rows = [
        Subspace.span(p, 4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
        Subspace.span(p, 4, [(0, 1, 0, 0), (0, 0, 1, 0)]),
        Subspace.span(p, 4, [(0, 1, 0, 0), (0, 0, 0, 1)]),
    ]
    assert intersect_all(rows) == Subspace.span(p, 4, [(0, 1, 0, 0)])


def test_solve_particular_and_extend_basis():
    p = 5
    rows = ((1, 2, 0, 1), (0, 1, 1, 3))
    rhs = (2, 4)
    x = solve_particular(rows, rhs, p, 4)
    assert x is not None
    for row, want in zip(rows, rhs):
        assert sum(a * b for a, b in zip(row, x)) % p == want

    inner = ((1, 0, 0, 0),)
    outer = ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0))
    ext = extend_basis(inner, outer, p, 4)
    got = Subspace.span(p, 4, inner + tuple(ext))
    assert got == Subspace.span(p, 4, outer)
    assert len(ext) == got.vdim - 1


def test_ordering_is_total_on_layers():
    p = 2
    layer = sorted(Subspace(p, 2, (x,)) for x in [(0, 1), (1, 0), (1, 1)])
    assert [s.rows for s in layer] == sorted(s.rows for s in layer)
