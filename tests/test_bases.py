"""Base recognition, perturbation and exhaustive enumeration."""

import random
import tracemalloc
from itertools import repeat

import pytest

from oracles import (
    base_key_pairs,
    compose,
    enumerate_bases_orbit,
    expected_base_count,
    identity,
    inverse,
    mat_mul,
    perturb_one,
    symplectic_group_order,
    transvection_matrix,
)
from sympol import subsets
from sympol.bases import (
    PointMap,
    SymplecticBase,
    _transvection_stream,
    base_columns,
    enumerate_all_bases,
    is_symplectic_base,
    perturb_pair,
    random_base,
    random_collineation,
    recognize,
    standard_sigma,
)
from sympol.errors import (
    ArityError,
    DegenerateParameterError,
    FeasibilityError,
    MapCheckError,
    RecognitionError,
)
from sympol.linalg import vec_add
from sympol.space import BASE_GRID, ENUM_GRID, SymplecticSpace
from sympol.subsets import BaseSubset, maximal_inexact_oracle, subset_universe


def test_standard_base_recognized(small_space):
    base = SymplecticBase.standard(small_space)
    assert recognize(small_space, base.points) == base.sigma
    assert base.sigma == standard_sigma(small_space.n)
    s = base.sigma
    assert all(s[s[i]] == i and s[i] != i for i in range(small_space.dim))


def test_recognize_rejections(small_space):
    sp = small_space
    base = SymplecticBase.standard(sp)
    with pytest.raises(ArityError):
        recognize(sp, base.points[:-1])
    dependent = base.points[:-1] + (base.points[0],)
    with pytest.raises(RecognitionError, match="dependent"):
        recognize(sp, dependent)
    assert not is_symplectic_base(sp, dependent)


def test_recognize_partner_failures():
    sp = SymplecticSpace.standard(2, 3)
    e1, e2, f1, f2 = SymplecticBase.standard(sp).points
    # e1 + f2 is non-orthogonal to both f1 and e2
    bad = (vec_add(e1, f2, 3), e2, f1, f2)
    with pytest.raises(RecognitionError, match="partner not unique"):
        recognize(sp, bad)


def test_perturb_one(small_space):
    base = SymplecticBase.standard(small_space)
    for c in range(1, small_space.p):
        moved = perturb_one(base, 0, c)
        assert moved != base
        assert moved.sigma == base.sigma
        assert is_symplectic_base(small_space, moved.points)
    with pytest.raises(DegenerateParameterError):
        perturb_one(base, 0, 0)


def test_perturb_pair(small_space):
    sp = small_space
    base = SymplecticBase.standard(sp)
    for i in range(sp.dim):
        for j in range(sp.dim):
            if j in (i, base.sigma[i]):
                continue
            moved = perturb_pair(base, i, j)
            assert moved != base
            assert moved.sigma == base.sigma
            # exactly the two agreed positions move
            changed = [t for t in range(sp.dim) if moved.points[t] != base.points[t]]
            assert sorted(changed) == sorted((i, base.sigma[j]))
    with pytest.raises(DegenerateParameterError):
        perturb_pair(base, 0, base.sigma[0])


def test_random_base_is_collineation_image(small_space):
    h = random_collineation(small_space, "shared-seed")
    built = random_base(small_space, "shared-seed")
    image = h.apply_base(SymplecticBase.standard(small_space))
    assert built == image
    assert random_base(small_space, "shared-seed") == built
    assert random_base(small_space, "other-seed") != built


def test_random_collineation_preserves_form(small_space):
    for seed in range(5):
        h = random_collineation(small_space, seed)
        assert h.preserves_orthogonality()
        back = compose(inverse(h), h)
        assert back == identity(small_space)


def matrix_route(space, seed):
    """random_collineation the long way: the seeded transvection matrices
    multiplied out by mat_mul, then PointMap.from_matrix."""
    rng = random.Random(seed)
    d = space.dim
    m = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    for v, c in _transvection_stream(space, rng, 3 * d):
        m = mat_mul(m, transvection_matrix(space, v, c), space.p)
    return PointMap.from_matrix(space, space, m)


ROUTE_SEEDS = tuple(range(20)) + tuple(f"route-{i}" for i in range(20))


@pytest.mark.parametrize("n,p", ENUM_GRID, ids=[f"n{n}p{p}" for n, p in ENUM_GRID])
def test_pushed_rows_match_the_matrix_route(n, p):
    # the same table in the same point order, and the standard base's image
    # point for point with its pairing
    sp = SymplecticSpace.standard(n, p)
    standard = SymplecticBase.standard(sp)
    for seed in ROUTE_SEEDS:
        want = matrix_route(sp, seed)
        got = random_collineation(sp, seed)
        assert got.to == want.to
        image = want.apply_base(standard)
        base = random_base(sp, seed)
        assert (base.points, base.sigma) == (image.points, image.sigma)


@pytest.mark.parametrize("n,p", BASE_GRID)
def test_enumeration_matches_group_order(n, p):
    space = SymplecticSpace.standard(n, p)
    bases = enumerate_all_bases(space)
    assert len(bases) == expected_base_count(n, p)
    assert len({b.key() for b in bases}) == len(bases)
    # every enumerated base shares one sigma tuple
    assert bases[0].sigma == standard_sigma(n)
    assert all(b.sigma is bases[0].sigma for b in bases)
    sample = random.Random("enum").sample(bases, 25)
    for b in sample:
        assert recognize(space, b.points) == b.sigma


def tuple_route_bases(space):
    """Every base as one tuple of objects built from base_columns: the
    enumeration before it became a lazy sequence (reference)."""
    pts = space.all_points()
    points = zip(*(map(pts.__getitem__, column) for column in base_columns(space)))
    return tuple(map(SymplecticBase, repeat(space), points, repeat(standard_sigma(space.n))))


def base_values(bases):
    return [(b.points, b.sigma) for b in bases]


@pytest.mark.parametrize("n,p", BASE_GRID)
def test_enumeration_is_the_tuple_route_read_lazily(n, p):
    space = SymplecticSpace.standard(n, p)
    bases = enumerate_all_bases(space)
    want = tuple_route_bases(space)
    assert len(bases) == len(want)
    assert base_values(bases) == base_values(want)
    assert base_values([bases[-1], bases[0]]) == base_values([want[-1], want[0]])
    middle = slice(len(want) // 3, len(want) // 2, 5)
    assert type(bases[middle]) is tuple
    assert base_values(bases[middle]) == base_values(want[middle])
    assert base_values(bases[-3:]) == base_values(want[-3:])
    with pytest.raises(IndexError):
        bases[len(want)]
    with pytest.raises(IndexError):
        bases[-len(want) - 1]
    drawn = random.Random("lazy").sample(bases, 10)
    picks = random.Random("lazy").sample(range(len(want)), 10)
    assert base_values(drawn) == base_values(want[t] for t in picks)
    # every base, iterated or indexed, shares the one standard_sigma tuple
    sigma = standard_sigma(n)
    assert all(b.sigma is sigma for b in bases)
    assert bases[7].sigma is sigma


def test_enumeration_holds_no_base_objects():
    # with the columns walked, the enumeration allocates only its view;
    # a tuple of the 30,240 (3, 2) base objects takes about 4.4 MB
    space = SymplecticSpace.standard(3, 2)
    base_columns(space)
    tracemalloc.start()
    try:
        bases = enumerate_all_bases.__wrapped__(space)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(bases) == 30240
    assert size < 64 * 1024


def test_permuted_base_is_equal(small_space, rng):
    # the same points listed in another order, with sigma relabelled to
    # match, are the same base
    base = random_base(small_space, "permuted")
    d = small_space.dim
    perm = list(range(d))
    rng.shuffle(perm)
    inv = [0] * d
    for i, j in enumerate(perm):
        inv[j] = i
    points = [base.points[j] for j in perm]
    sigma = [inv[base.sigma[j]] for j in perm]
    assert recognize(small_space, points) == tuple(sigma)
    moved = SymplecticBase(small_space, points, sigma)
    assert moved.points != base.points
    assert moved == base and hash(moved) == hash(base)
    assert moved.key() == base.key() == tuple(sorted(base.points))
    assert perturb_one(base, 0, 1) != base


def test_known_counts():
    assert expected_base_count(2, 2) == 90
    assert expected_base_count(2, 3) == 1620
    assert expected_base_count(3, 2) == 30240
    assert symplectic_group_order(2, 2) == 720
    assert symplectic_group_order(3, 2) == 1451520


@pytest.mark.parametrize("n,p", [(2, 2), (2, 3)])
def test_orbit_route_agrees(n, p):
    space = SymplecticSpace.standard(n, p)
    keys = {base_key_pairs(space, b) for b in enumerate_all_bases(space)}
    assert keys == enumerate_bases_orbit(space)


def test_enumeration_feasibility_gate(monkeypatch, tmp_path):
    # the gate fires before any layer is read, built or written
    def no_layers(space, k):
        raise AssertionError(f"layer {k} read before the feasibility gate")

    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(subsets, "through_masks", no_layers)
    sp = SymplecticSpace.standard(3, 3)
    with pytest.raises(FeasibilityError):
        enumerate_all_bases(sp)
    with pytest.raises(FeasibilityError):
        subset_universe(sp, 2)
    with pytest.raises(FeasibilityError):
        maximal_inexact_oracle(BaseSubset(SymplecticBase.standard(sp), 1))
    assert list(tmp_path.iterdir()) == []


def test_point_map_validation(small_space):
    sp = small_space
    to = list(range(len(sp.all_points())))
    del to[0]
    with pytest.raises(MapCheckError, match="cover"):
        PointMap(sp, sp, to)
    to.insert(0, 1)
    with pytest.raises(MapCheckError, match="injective"):
        PointMap(sp, sp, to)
    to[0] = len(to)
    with pytest.raises(MapCheckError, match="target points"):
        PointMap(sp, sp, to)
    # floats and bools compare equal to the indices they stand for
    size = len(sp.all_points())
    with pytest.raises(MapCheckError, match="target points"):
        PointMap(sp, sp, [float(i) for i in range(size)])
    with pytest.raises(MapCheckError, match="target points"):
        PointMap(sp, sp, [False, True, *range(2, size)])


def test_swapped_pair_breaks_orthogonality(small_space):
    # exchanging e_1 with its partner f_1 flips omega against e_2
    sp = small_space
    index = sp.point_index()
    base = SymplecticBase.standard(sp)
    a, b = index[base.points[0]], index[base.points[sp.n]]
    to = list(range(len(index)))
    to[a], to[b] = to[b], to[a]
    assert not PointMap(sp, sp, to).preserves_orthogonality()


def test_base_images_under_collineations(small_space):
    h = random_collineation(small_space, 17)
    for seed in range(3):
        base = random_base(small_space, seed)
        image = h.apply_base(base)
        assert is_symplectic_base(small_space, image.points)
