"""Layer maps, descent to the point layer and reconstruction."""

from itertools import combinations
from math import comb

import pytest

from oracles import compose, identity, layers, type1_position_map
from sympol import recon
from sympol.bases import PointMap, SymplecticBase, random_base, random_collineation
from sympol.errors import (
    DescentError,
    DimensionError,
    MapCheckError,
    RecognitionError,
    ReconstructionError,
)
from sympol.grassmann import (
    grassmannian,
    grassmannian_size,
    hyper_masks,
    hyperplanes_of,
    member_points,
)
from sympol.linalg import Subspace, intersect_all
from sympol.recon import (
    GrassmannianMap,
    check_adjacency_preservation,
    check_base_preservation,
    check_exactness_transport,
    check_family_transport,
    check_span_transport,
    check_top_transport,
    descend,
    hyperplane_table,
    identify_base_subset,
    image_base,
    induce,
    reconstruct,
)
from sympol.space import ENUM_GRID, SymplecticSpace
from sympol.subsets import BaseSubset, maximal_inexact_families


def compose_tables(outer, inner):
    return tuple(outer.table[j] for j in inner.table)


def swapped_point_map(sp):
    """The identity with the standard base's first hyperbolic pair swapped."""
    index = sp.point_index()
    base = SymplecticBase.standard(sp)
    a, b = index[base.points[0]], index[base.points[sp.n]]
    to = list(range(len(index)))
    to[a], to[b] = to[b], to[a]
    return PointMap(sp, sp, to)


class CollapsedPointMap:
    """Sends every point to one point.

    PointMap refuses a table that is not injective, and the images of an
    injective one always span at least pdim k, so this stand-in is the
    only way to make the image points of a member lie in several members.
    """

    def __init__(self, space, point):
        self.source = self.target = space
        self.to = [space.point_index()[point]] * len(space.all_points())
        self.table = dict.fromkeys(space.all_points(), point)


def induce_reference(h, k):
    """induce through Subspace.span and index_of."""
    source = grassmannian(h.source, k)
    target = grassmannian(h.target, k)
    images = h.table
    table = []
    for s in source.elements:
        img = Subspace.span(h.target.p, h.target.dim, [images[pt] for pt in s.points()])
        j = target.index_of(img)
        if j is None:
            raise MapCheckError("induced image left the layer", witness=s)
        table.append(j)
    return GrassmannianMap(source, target, table)


def geometric_hyperplanes(sp, k):
    """Per member of G_k, the G_(k-1) indices of its hyperplanes_of."""
    low = grassmannian(sp, k - 1)
    return [[low.index_of(m) for m in hyperplanes_of(s)] for s in grassmannian(sp, k)]


def descend_reference(f, hyperplanes):
    """descend through intersect_all and index_of, with stars read off the
    geometric hyperplane lists."""
    k = f.source.k
    src_low = grassmannian(f.source.space, k - 1)
    tgt_low = grassmannian(f.target.space, k - 1)
    stars = [[] for _ in src_low]
    for si, row in enumerate(hyperplanes):
        for mi in row:
            stars[mi].append(si)
    table = []
    for mi, star in enumerate(stars):
        j = tgt_low.index_of(intersect_all(f.target.elements[f.table[si]] for si in star))
        if j is None:
            raise DescentError(
                "star images share the wrong dimension", level=k - 1, witness=src_low.elements[mi]
            )
        table.append(j)
    return GrassmannianMap(src_low, tgt_low, table)


def test_index_routes_match_geometric_routes(small_space):
    sp = small_space
    maps = [identity(sp)] + [random_collineation(sp, seed) for seed in (101, 102, 103)]
    for k in layers(sp):
        if k >= 1:
            hyperplanes = geometric_hyperplanes(sp, k)
            assert hyper_masks(sp, k) == tuple(sum(1 << mi for mi in row) for row in hyperplanes)
        for h in maps:
            f = induce(h, k)
            assert f == induce_reference(h, k)
            if k >= 1:
                assert descend(f) == descend_reference(f, hyperplanes)


def test_induce_rejects_like_the_geometric_route(small_space):
    # The swapped map's images leave the layer as no member at all; the
    # collapsed map's lie in many members, so only an exactly-one-bit
    # test rejects them.
    sp = small_space
    for h in (swapped_point_map(sp), CollapsedPointMap(sp, sp.all_points()[0])):
        for k in range(1, sp.n):
            with pytest.raises(MapCheckError) as want:
                induce_reference(h, k)
            with pytest.raises(MapCheckError) as got:
                induce(h, k)
            assert str(got.value) == str(want.value) == "induced image left the layer"
            assert got.value.witness == want.value.witness


@pytest.mark.parametrize("n,p", ((2, 5), (3, 3)), ids=("n2p5", "n3p3"))
def test_induce_matches_the_geometric_route_beyond_base_grid(n, p):
    sp = SymplecticSpace.standard(n, p)
    for seed in (131, 132):
        h = random_collineation(sp, seed)
        for k in layers(sp):
            assert induce(h, k) == induce_reference(h, k)


def test_warm_induce_enumerates_no_member_points(monkeypatch):
    sp = SymplecticSpace.standard(3, 2)
    h = random_collineation(sp, 64)
    member_points.cache_clear()
    try:
        want = [induce(h, k) for k in layers(sp)]

        def refuse(self):
            raise AssertionError("Subspace.points called with member_points warm")

        monkeypatch.setattr(Subspace, "points", refuse)
        assert [induce(h, k) for k in layers(sp)] == want
    finally:
        member_points.cache_clear()


def test_descend_rejects_like_the_geometric_route(small_space):
    # Two swapped entries leave some star images with no common member;
    # a constant table leaves every star image sharing many.
    sp = small_space
    h = random_collineation(sp, 1)
    for k in range(1, sp.n):
        f = induce(h, k)
        hyperplanes = geometric_hyperplanes(sp, k)
        swapped = list(f.table)
        swapped[0], swapped[1] = swapped[1], swapped[0]
        for table in (swapped, [f.table[0]] * len(f.table)):
            bad = GrassmannianMap(f.source, f.target, table)
            with pytest.raises(DescentError) as want:
                descend_reference(bad, hyperplanes)
            with pytest.raises(DescentError) as got:
                descend(bad)
            assert str(got.value) == str(want.value) == "star images share the wrong dimension"
            assert got.value.level == want.value.level == k - 1
            assert got.value.witness == want.value.witness


def test_map_validation(small_space):
    sp = small_space
    g0 = grassmannian(sp, 0)
    with pytest.raises(MapCheckError, match="cover"):
        GrassmannianMap(g0, g0, range(len(g0) - 1))
    with pytest.raises(MapCheckError, match="range"):
        GrassmannianMap(g0, g0, [len(g0)] * len(g0))
    # the first bad entry in table order is named, below or above the range
    table = list(range(len(g0)))
    table[2], table[5] = -1, len(g0) + 3
    with pytest.raises(MapCheckError, match=r"^table value -1 out of range$"):
        GrassmannianMap(g0, g0, table)
    table[2] = 0
    with pytest.raises(MapCheckError, match=rf"^table value {len(g0) + 3} out of range$"):
        GrassmannianMap(g0, g0, table)
    # floats and bools compare equal to the indices they stand for
    with pytest.raises(MapCheckError, match=r"^table value 0\.0 out of range$"):
        GrassmannianMap(g0, g0, [float(j) for j in range(len(g0))])
    with pytest.raises(MapCheckError, match=r"^table value False out of range$"):
        GrassmannianMap(g0, g0, [False, True, *range(2, len(g0))])
    if sp.n > 1:
        with pytest.raises(DimensionError):
            GrassmannianMap(g0, grassmannian(sp, 1), range(len(g0)))


def test_induce_identity_and_composition(small_space):
    sp = small_space
    h1 = random_collineation(sp, 1)
    h2 = random_collineation(sp, 2)
    for k in layers(sp):
        g = grassmannian(sp, k)
        assert induce(identity(sp), k) == GrassmannianMap(g, g, range(len(g)))
        f1 = induce(h1, k)
        f2 = induce(h2, k)
        assert induce(compose(h1, h2), k).table == compose_tables(f1, f2)
        assert len(set(f1.table)) == len(f1.table)


def test_descend_commutes_with_induce(small_space):
    sp = small_space
    h = random_collineation(sp, 9)
    for k in range(1, sp.n):
        assert descend(induce(h, k)) == induce(h, k - 1)
    with pytest.raises(DimensionError):
        descend(induce(h, 0))


def test_image_base_matches_point_action(small_space):
    sp = small_space
    h = random_collineation(sp, 4)
    base = SymplecticBase.standard(sp)
    for k in layers(sp):
        assert image_base(induce(h, k), base) == h.apply_base(base)
    bases = (base, random_base(sp, 11))
    images = check_base_preservation(induce(h, 0), bases)
    assert images == tuple(h.apply_base(b) for b in bases)


def test_adjacency_preserved_by_induced_maps(small_space):
    sp = small_space
    h = random_collineation(sp, 21)
    for k in layers(sp):
        f = induce(h, k)
        assert check_adjacency_preservation(f, combinations(range(len(f.source)), 2)) == ()


def test_adjacency_check_reports_mismatches():
    sp = SymplecticSpace.standard(2, 2)
    g1 = grassmannian(sp, 1)
    table = list(range(len(g1)))
    # an arbitrary transposition is almost never a collineation image
    table[0], table[5] = table[5], table[0]
    bad = check_adjacency_preservation(
        GrassmannianMap(g1, g1, table), combinations(range(len(g1)), 2)
    )
    assert bad
    for i, j, kind, src, tgt in bad:
        assert kind in ("adjacent", "ortho")
        assert src != tgt


def test_type1_position_map_tracks_points(small_space):
    sp = small_space
    h = random_collineation(sp, 33)
    base = SymplecticBase.standard(sp)
    for k in range(sp.n - 1):
        f = induce(h, k)
        pi = type1_position_map(f, base)
        other = image_base(f, base)
        for i in range(sp.dim):
            assert other.points[pi[i]] == h.table[base.points[i]]
    with pytest.raises(DimensionError):
        type1_position_map(induce(h, sp.n - 1), base)


def test_span_transport_counts(small_space):
    sp = small_space
    h = random_collineation(sp, 12)
    base = random_base(sp, 3)
    for k in range(sp.n - 1):
        assert check_span_transport(induce(h, k), base) == comb(sp.dim, k + 2)


def test_family_transport_counts(small_space):
    sp = small_space
    n = sp.n
    h = random_collineation(sp, 8)
    base = SymplecticBase.standard(sp)
    for k in layers(sp):
        got = check_family_transport(induce(h, k), base)
        firsts = 2 * n if k < n - 1 else 0
        seconds = 2 * n * (n - 1) if k >= 1 else 0
        assert got["families"] == firsts + seconds
        if k == 0:
            assert got["complements"] == 2 * n
        elif k < n - 1:
            assert got["complements"] == 2 * n * n
        else:
            assert got["complements"] == 2 * n * (n - 1)


@pytest.mark.parametrize("n,p", ((2, 2), (2, 3)))
def test_exactness_transport(n, p):
    sp = SymplecticSpace.standard(n, p)
    h = random_collineation(sp, 5)
    base = SymplecticBase.standard(sp)
    for k in layers(sp):
        bs = BaseSubset(base, k)
        collections = [members for _, members in maximal_inexact_families(bs)]
        collections.append(frozenset(bs.index_sets[:3]))
        assert check_exactness_transport(induce(h, k), base, collections) == len(collections)


def test_top_transport_counts(small_space):
    sp = small_space
    h = random_collineation(sp, 6)
    for k in range(1, sp.n):
        f = induce(h, k)
        g = induce(h, k - 1)
        hyp = (sp.p ** (k + 1) - 1) // (sp.p - 1)
        assert check_top_transport(f, g) == len(f.source) * hyp
        with pytest.raises(DimensionError):
            check_top_transport(f, f)


@pytest.mark.parametrize("n,p", ENUM_GRID, ids=[f"n{n}p{p}" for n, p in ENUM_GRID])
def test_hyperplane_table_is_the_geometric_one(n, p):
    # row for row the hyperplanes_of lists, and inverted the hyper_masks
    # rows that descend ANDs, which star_table builds another way
    sp = SymplecticSpace.standard(n, p)
    for k in range(1, n):
        table = hyperplane_table(sp, k)
        assert table == tuple(map(tuple, geometric_hyperplanes(sp, k)))
        assert tuple(sum(1 << mi for mi in row) for row in table) == hyper_masks(sp, k)


def test_warm_top_transport_makes_no_geometric_call(monkeypatch):
    sp = SymplecticSpace.standard(3, 2)
    h = random_collineation(sp, 63)
    f, g = induce(h, 2), induce(h, 1)
    hyperplane_table.cache_clear()
    try:
        count = check_top_transport(f, g)

        def refuse(s):
            raise AssertionError("hyperplanes_of called with the table warm")

        monkeypatch.setattr(recon, "hyperplanes_of", refuse)
        assert check_top_transport(f, g) == count == len(f.source) * 7
    finally:
        hyperplane_table.cache_clear()


def top_transport_reference(f, g):
    """check_top_transport with containment tested by Subspace.contains."""
    count = 0
    for ni, s in enumerate(f.source.elements):
        image = f.target.elements[f.table[ni]]
        for m in hyperplanes_of(s):
            lower = g.target.elements[g.table[g.source.index_of(m)]]
            if not image.contains(lower):
                raise DescentError(
                    "hyperplane image escapes the member image", level=g.source.k, witness=(s, m)
                )
            count += 1
    return count


def test_top_transport_matches_containment(small_space):
    # Collineations pass with the reference's count; a lower table with two
    # entries swapped sends some hyperplane outside its member's image, and
    # both routes must stop at the same (member, hyperplane) pair.
    sp = small_space
    for seed in (61, 62):
        h = random_collineation(sp, seed)
        for k in range(1, sp.n):
            f, g = induce(h, k), induce(h, k - 1)
            assert check_top_transport(f, g) == top_transport_reference(f, g)
            last = len(g.table) - 1
            for a, b in ((0, 1), (last // 2, last)):
                table = list(g.table)
                table[a], table[b] = table[b], table[a]
                bad = GrassmannianMap(g.source, g.target, table)
                with pytest.raises(DescentError) as want:
                    top_transport_reference(f, bad)
                with pytest.raises(DescentError) as got:
                    check_top_transport(f, bad)
                assert str(got.value) == str(want.value)
                assert str(got.value) == "hyperplane image escapes the member image"
                assert got.value.level == want.value.level == k - 1
                assert got.value.witness == want.value.witness


def test_identify_base_subset(small_space):
    sp = small_space
    base = random_base(sp, 77)
    for k in layers(sp):
        assert identify_base_subset(sp, k, BaseSubset(base, k).indices()) == base
    with pytest.raises(RecognitionError, match="size"):
        identify_base_subset(sp, 0, BaseSubset(base, 0).indices()[:-1])
    wrong = list(BaseSubset(base, 0).indices())
    swap = next(s for s in range(len(grassmannian(sp, 0))) if s not in wrong)
    wrong[0] = swap
    with pytest.raises(RecognitionError):
        identify_base_subset(sp, 0, wrong)


def test_identify_base_subset_regeneration():
    # A line swapped into a (3, 2) base subset can leave the pairwise meets
    # at exactly the base points, so only regeneration rejects the list.
    sp = SymplecticSpace.standard(3, 2)
    base = random_base(sp, 77)
    members = list(BaseSubset(base, 1).indices())
    reasons = []
    for s in range(len(grassmannian(sp, 1))):
        if s in members:
            continue
        with pytest.raises(RecognitionError) as excinfo:
            identify_base_subset(sp, 1, [s] + members[1:])
        reasons.append(excinfo.value.reason)
        if reasons[-1] == "regeneration":
            break
    assert reasons[-1] == "regeneration"


def orthogonality_witness_reference(h):
    """The first flipping pair of the O(P^2) scan over point indices i < j."""
    src, tgt, table = h.source, h.target, h.table
    pts = src.all_points()
    for i, x in enumerate(pts):
        for y in pts[i + 1 :]:
            if (src.omega(x, y) == 0) != (tgt.omega(table[x], table[y]) == 0):
                return (x, y)
    return None


@pytest.mark.parametrize("n,p", ENUM_GRID, ids=[f"n{n}p{p}" for n, p in ENUM_GRID])
def test_orthogonality_witness(n, p):
    # Swaps at the front, the back and the middle of the point order, one
    # of the standard hyperbolic pair, and one after a collineation, so the
    # first flipping row and its first column vary.
    sp = SymplecticSpace.standard(n, p)
    h = random_collineation(sp, 2)
    assert h.orthogonality_witness() is None
    assert orthogonality_witness_reference(h) is None
    index = sp.point_index()
    base = SymplecticBase.standard(sp)
    size = len(index)
    swaps = (
        (0, 1),
        (size // 3, 2 * size // 3),
        (-2, -1),
        (index[base.points[0]], index[base.points[sp.n]]),
    )
    maps = []
    for a, b in swaps:
        to = list(range(size))
        to[a], to[b] = to[b], to[a]
        maps.append(PointMap(sp, SymplecticSpace(n, p), to))
    to = list(h.to)
    to[5], to[-7] = to[-7], to[5]
    maps.append(PointMap(sp, sp, to))
    for bad in maps:
        want = orthogonality_witness_reference(bad)
        assert want is not None
        # the same pair on every call, before and after
        # preserves_orthogonality() scans the map
        assert bad.orthogonality_witness() == want
        assert bad.orthogonality_witness() == want
        assert not bad.preserves_orthogonality()
        assert bad.orthogonality_witness() == want


def assert_certificate_shape(cert, space, k):
    assert cert["space"] == space.header()
    assert cert["k"] == k
    levels = [rec["level"] for rec in cert["levels"]]
    assert levels == list(range(k, -1, -1))
    for rec in cert["levels"]:
        assert rec["pass"] == all(c.get("pass") for c in rec["checks"])
        for check in rec["checks"]:
            assert set(check) >= {"name", "pass"}


def test_reconstruct_round_trip(small_space):
    sp = small_space
    for seed in range(3):
        h = random_collineation(sp, seed)
        for k in layers(sp):
            pm, cert = reconstruct(induce(h, k))
            assert pm == h
            assert cert["pass"]
            assert_certificate_shape(cert, sp, k)
            names = {c["name"] for rec in cert["levels"] for c in rec["checks"]}
            assert "base-subsets-preserved" in names
            assert "orthogonality-both-ways" in names
            assert "induced-map-equality" in names
            if k > 0:
                assert "star-intersections" in names
                assert "hyperplane-containment" in names


# No other in-process round trip reaches p = 5 or the layers of (3, 3).
BEYOND_BASE_GRID = ((2, 5, 0), (2, 5, 1), (3, 3, 1), (3, 3, 2))


@pytest.mark.parametrize("n,p,k", BEYOND_BASE_GRID)
def test_reconstruct_round_trip_beyond_base_grid(n, p, k):
    sp = SymplecticSpace.standard(n, p)
    # level j checks every hyperplane of every member of G_(j+1)
    want = {
        j: grassmannian_size(n, p, j + 1) * (p ** (j + 2) - 1) // (p - 1) for j in range(k)
    }
    for seed in range(2):
        h = random_collineation(sp, seed)
        pm, cert = reconstruct(induce(h, k))
        assert pm == h
        assert cert["pass"]
        assert_certificate_shape(cert, sp, k)
        counts = {
            rec["level"]: c["count"]
            for rec in cert["levels"]
            for c in rec["checks"]
            if c["name"] == "hyperplane-containment"
        }
        assert counts == want


def test_reconstruct_rejects_corrupted_table(small_space):
    sp = small_space
    h = random_collineation(sp, 1)
    f = induce(h, sp.n - 1)
    table = list(f.table)
    table[0], table[1] = table[1], table[0]
    broken = GrassmannianMap(f.source, f.target, table)
    with pytest.raises(ReconstructionError) as excinfo:
        reconstruct(broken)
    cert = excinfo.value.certificate
    assert not cert["pass"]
    failing = [
        c["name"] for rec in cert["levels"] for c in rec["checks"] if not c["pass"]
    ]
    assert failing
    assert all("witness" in c for rec in cert["levels"] for c in rec["checks"] if not c["pass"])


def test_reconstruct_rejects_non_collineation_point_map(small_space):
    with pytest.raises(ReconstructionError) as excinfo:
        reconstruct(induce(swapped_point_map(small_space), 0))
    cert = excinfo.value.certificate
    names = [c["name"] for rec in cert["levels"] for c in rec["checks"] if not c["pass"]]
    assert names == ["orthogonality-both-ways"]
