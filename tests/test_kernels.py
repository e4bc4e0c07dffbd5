"""Kernel parity with a brute-force reference, and row-reduction invariants.

The reference backend below never row-reduces: it enumerates the
vectors of each subspace of GF(p)^width as a set and reads the
canonical forms off those sets.  The kernels must agree with it bit for
bit.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympol import _kernels


def random_rows(rng, p, width, nrows):
    return tuple(tuple(rng.randrange(p) for _ in range(width)) for _ in range(nrows))


def fixed_cases():
    rng = random.Random("kernel-cases")
    cases = [
        ((), 3, 2),
        (((0, 0, 0),), 3, 3),
        (((1, 0, 1), (0, 1, 1), (1, 1, 0)), 3, 2),
    ]
    for p in (2, 3, 5):
        for width in (2, 4, 6):
            for nrows in (1, 2, width):
                cases.append((random_rows(rng, p, width, nrows), width, p))
    return cases


def span_vectors(rows, width, p):
    """Every vector in the row space, by brute force."""
    out = {(0,) * width}
    for row in rows:
        out = {tuple((a + c * b) % p for a, b in zip(v, row)) for v in out for c in range(p)}
    return out


def _lead(vec):
    return next(i for i, x in enumerate(vec) if x)


def reference_canonical(vectors):
    """Canonical rows of a subspace given as the set of all its vectors.

    The pivots are the leading positions of its nonzero vectors; the row
    for pivot c is the one vector with a 1 at c and 0 at the other pivots.
    """
    pivots = sorted({_lead(v) for v in vectors if any(v)})
    return tuple(
        next(
            v
            for v in vectors
            if any(v) and _lead(v) == c and v[c] == 1 and not any(v[d] for d in pivots if d != c)
        )
        for c in pivots
    )


def reference_residue(vec, rows, width, p):
    """The one vector of the coset vec + span(rows) that is 0 at every pivot."""
    pivots = [_lead(r) for r in rows]
    coset = {tuple((a - b) % p for a, b in zip(vec, u)) for u in span_vectors(rows, width, p)}
    (out,) = [w for w in coset if not any(w[c] for c in pivots)]
    return out


def reference_nullspace(rows, width, p):
    return reference_canonical(
        {
            x
            for x in product(range(p), repeat=width)
            if all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in rows)
        }
    )


@pytest.mark.parametrize("rows,width,p", fixed_cases())
def test_backend_parity(rows, width, p):
    red = _kernels.rref(rows, width, p)
    assert red == reference_canonical(span_vectors(rows, width, p))
    assert _kernels.nullspace(rows, width, p) == reference_nullspace(rows, width, p)
    vec = tuple(x % p for x in range(width))
    assert _kernels.residue(vec, red, p) == reference_residue(vec, red, width, p)
    other = _kernels.rref(random_rows(random.Random(str(rows)), p, width, 2), width, p)
    meet = span_vectors(red, width, p) & span_vectors(other, width, p)
    assert _kernels.intersect(red, other, width, p) == reference_canonical(meet)


@pytest.mark.parametrize("rows,width,p", fixed_cases())
def test_rref_shape(rows, width, p):
    red = _kernels.rref(rows, width, p)
    pivots = []
    for row in red:
        c = next(i for i, x in enumerate(row) if x)
        assert row[c] == 1
        pivots.append(c)
        for other in red:
            if other is not row:
                assert other[c] == 0
    assert pivots == sorted(pivots)
    assert len(set(pivots)) == len(pivots)
    assert _kernels.rref(red, width, p) == red


@pytest.mark.parametrize("rows,width,p", fixed_cases())
def test_rref_preserves_row_space(rows, width, p):
    red = _kernels.rref(rows, width, p)
    for row in rows:
        assert not any(_kernels.residue(row, red, p))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_residue_decides_membership(p):
    rng = random.Random(f"residue-{p}")
    rows = _kernels.rref(random_rows(rng, p, 4, 2), 4, p)
    members = span_vectors(rows, 4, p)
    for vec in product(range(p), repeat=4):
        assert (not any(_kernels.residue(vec, rows, p))) == (vec in members)


@pytest.mark.parametrize("rows,width,p", fixed_cases())
def test_nullspace_annihilates(rows, width, p):
    basis = _kernels.nullspace(rows, width, p)
    rank = len(_kernels.rref(rows, width, p))
    assert len(basis) == width - rank
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) % p == 0


@pytest.mark.parametrize("p", [2, 3])
def test_intersect_dimension_formula(p):
    rng = random.Random(f"intersect-{p}")
    for _ in range(25):
        a = _kernels.rref(random_rows(rng, p, 5, rng.randrange(1, 4)), 5, p)
        b = _kernels.rref(random_rows(rng, p, 5, rng.randrange(1, 4)), 5, p)
        meet = _kernels.intersect(a, b, 5, p)
        join = _kernels.rref(a + b, 5, p)
        assert len(meet) + len(join) == len(a) + len(b)
        for row in meet:
            assert not any(_kernels.residue(row, a, p))
            assert not any(_kernels.residue(row, b, p))


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    data=st.data(),
)
def test_rref_properties_hold_generally(p, data):
    width = data.draw(st.integers(1, 6))
    nrows = data.draw(st.integers(0, 6))
    rows = tuple(
        tuple(data.draw(st.integers(0, p - 1)) for _ in range(width)) for _ in range(nrows)
    )
    red = _kernels.rref(rows, width, p)
    assert _kernels.rref(red, width, p) == red
    for row in rows:
        assert not any(_kernels.residue(row, red, p))
    assert len(_kernels.nullspace(rows, width, p)) == width - len(red)
