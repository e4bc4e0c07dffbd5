"""Isotropic Grassmannian enumeration, adjacency and clique structure."""

import hashlib
import json

import pytest

from sympol import _kernels, grassmann
from sympol.errors import DimensionError
from sympol.grassmann import (
    adjacency_masks,
    adjacent,
    all_subspaces,
    grassmannian,
    grassmannian_size,
    hyperplanes_of,
    interval,
    maximal_adjacency_cliques,
    ortho_adjacent,
    star,
    star_index_sets,
    star_table,
    through_masks,
    top,
    top_index_sets,
)
from sympol.linalg import Subspace
from sympol.space import BASE_GRID, ENUM_GRID, SymplecticSpace


def layers(space):
    return range(space.n)


def test_counts_match_closed_form(small_space):
    sp = small_space
    for k in layers(sp):
        g = grassmannian(sp, k)
        assert len(g) == grassmannian_size(sp.n, sp.p, k)
        assert len({s.rows for s in g}) == len(g)


# The perp(s)/s build against the full scan of every subspace, filtered
# by the form afterwards: the two share no code past the kernels.
@pytest.mark.parametrize("n,p", BASE_GRID + ((2, 5),))
def test_layers_match_brute_force(n, p):
    sp = SymplecticSpace.standard(n, p)
    for k in layers(sp):
        oracle = [s.rows for s in all_subspaces(sp, k) if sp.is_totally_isotropic(s)]
        assert [s.rows for s in grassmannian(sp, k)] == oracle


# SHA-256 of the JSON row lists of G_0, G_1, G_2 at (3, 3), fixed before the
# perp(s)/s build replaced the full perp scan; no oracle reaches this grid.
LAYER_DIGESTS_3_3 = (
    "e625087afc1c747615016f2e0821b0d549c7ee2c6a6452ca95e031445747b86b",
    "d577b13b7565e5b7334c90f6d2920c4f75d64eef85cf962595448f02b715efd4",
    "29dfe55565b6828ddfbfa1009dccafbe699523ba14e4eed81287a3eaabcebc36",
)


def test_layer_digests_are_pinned_at_3_3(tmp_path, monkeypatch):
    # a fresh cache directory makes every layer a cold build
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(tmp_path))
    sp = SymplecticSpace.standard(3, 3)
    for k, digest in enumerate(LAYER_DIGESTS_3_3):
        rows = [[list(r) for r in s.rows] for s in grassmannian(sp, k)]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("n,p", BASE_GRID + ((2, 5),))
def test_through_masks_closed_forms(n, p, tmp_path, monkeypatch):
    # the members through a point are G_(k-1) of the rank n - 1 quotient
    # of its perp, and a pdim-k member holds (p^(k+1) - 1)/(p - 1) points
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(tmp_path))
    sp = SymplecticSpace.standard(n, p)
    for k in layers(sp):
        through = through_masks(sp, k)
        assert len(through) == len(sp.all_points())
        per_point = grassmannian_size(n - 1, p, k - 1) if k else 1
        assert all(mask.bit_count() == per_point for mask in through)
        points_per_member = (p ** (k + 1) - 1) // (p - 1)
        for m in range(len(grassmannian(sp, k))):
            assert sum(mask >> m & 1 for mask in through) == points_per_member


def test_point_layer_matches_space(small_space):
    g = grassmannian(small_space, 0)
    pts = {s.rows[0] for s in g}
    assert pts == set(small_space.all_points())


def test_adjacency_is_symmetric_and_irreflexive(small_space):
    sp = small_space
    for k in layers(sp):
        g = grassmannian(sp, k)
        step = max(1, len(g) // 12)
        idx = range(0, len(g), step)
        for i in idx:
            assert not adjacent(g[i], g[i])
            for j in idx:
                if i < j:
                    assert adjacent(g[i], g[j]) == adjacent(g[j], g[i])


# pair_relation reads the masks built from stars and tops; every unordered
# pair is checked against the geometric predicates, one grid past BASE_GRID.
PAIR_GRID = BASE_GRID + ((2, 5),)


@pytest.mark.parametrize("n,p", PAIR_GRID, ids=[f"n{n}p{p}" for n, p in PAIR_GRID])
def test_pair_relation_agrees_with_predicates(n, p):
    sp = SymplecticSpace.standard(n, p)
    for k in layers(sp):
        g = grassmannian(sp, k)
        for i in range(len(g)):
            assert g.pair_relation(i, i) == (False, False)
            for j in range(i + 1, len(g)):
                rel = g.pair_relation(i, j)
                assert rel == (adjacent(g[i], g[j]), ortho_adjacent(sp, g[i], g[j]))
                assert g.pair_relation(j, i) == rel
        with pytest.raises(IndexError):
            g.pair_relation(0, len(g))


def test_adjacency_needs_matching_dimension(small_space):
    g0 = grassmannian(small_space, 0)
    g1 = grassmannian(small_space, 1)
    with pytest.raises(DimensionError):
        adjacent(g0[0], g1[0])


def test_hyperplanes(small_space):
    sp = small_space
    g = grassmannian(sp, sp.n - 1)
    s = g[0]
    hyps = hyperplanes_of(s)
    assert len(hyps) == (sp.p**s.vdim - 1) // (sp.p - 1)
    for h in hyps:
        assert h.pdim == s.pdim - 1
        assert s.contains(h)
    with pytest.raises(DimensionError):
        hyperplanes_of(Subspace.empty(sp.p, sp.dim))


# hyperplanes_of is the reference star_table and hyper_masks are tested
# against; here it is checked against the full list of subspaces one
# dimension down, filtered by containment.
@pytest.mark.parametrize("n,p", BASE_GRID + ((2, 5),))
def test_hyperplanes_match_all_subspaces(n, p):
    sp = SymplecticSpace.standard(n, p)
    for k in range(1, sp.n):
        below = all_subspaces(sp, k - 1)
        for s in grassmannian(sp, k):
            assert hyperplanes_of(s) == tuple(sorted(u for u in below if s.contains(u)))


def _hyperplanes_by_row_reduction(s):
    """The per-functional route: the kernel of each functional on s's
    coordinates, mapped into the ambient space and row reduced."""
    p, m, width = s.p, s.vdim, s.ambient
    out = set()
    for phi in Subspace.full(p, m).points():
        vecs = [
            [sum(c * row[j] for c, row in zip(coeffs, s.rows)) % p for j in range(width)]
            for coeffs in _kernels.nullspace((phi,), m, p)
        ]
        out.add(_kernels.rref(vecs, width, p))
    return tuple(Subspace(p, width, r) for r in sorted(out))


# hyperplanes_of maps each coordinate hyperplane through s's rows with no
# row reduction; the route above reduces every image.
@pytest.mark.parametrize("n,p", ENUM_GRID)
def test_hyperplanes_match_row_reduction(n, p):
    sp = SymplecticSpace.standard(n, p)
    for k in range(1, sp.n):
        for s in grassmannian(sp, k):
            hyps = hyperplanes_of(s)
            assert hyps == _hyperplanes_by_row_reduction(s)
            assert all(h.rows == _kernels.rref(h.rows, h.ambient, h.p) for h in hyps)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_coordinate_hyperplanes(p, m):
    table = grassmann._coordinate_hyperplanes(p, m)
    assert len(set(table)) == len(table) == (p**m - 1) // (p - 1)
    for phi, basis in zip(Subspace.full(p, m).points(), table):
        assert len(basis) == m - 1
        assert basis == _kernels.rref(basis, m, p)
        assert all(sum(a * b for a, b in zip(phi, row)) % p == 0 for row in basis)


def test_star_membership_and_size(small_space):
    sp = small_space
    for k in range(1, sp.n):
        g_low = grassmannian(sp, k - 1)
        m = g_low[len(g_low) // 2]
        members = star(sp, m, k)
        # perp(m)/m is symplectic of rank n - k, so the star is its point set
        expected = (sp.p ** (2 * (sp.n - k)) - 1) // (sp.p - 1)
        assert len(members) == expected
        for s in members:
            assert s.contains(m) and s.pdim == k


def test_top_membership_and_interval(small_space):
    sp = small_space
    if sp.n < 3:
        pytest.skip("needs three layers")
    g2 = grassmannian(sp, 2)
    nsub = g2[0]
    members = top(sp, nsub, 1)
    assert len(members) == (sp.p**3 - 1) // (sp.p - 1)
    m = hyperplanes_of(members[0])[0]
    between = interval(sp, m, nsub, 1)
    assert len(between) == sp.p + 1
    for s in between:
        assert s.contains(m) and nsub.contains(s)


def test_star_table_consistency(small_space):
    sp = small_space
    for k in range(1, sp.n):
        table = star_table(sp, k, None)
        g_high = grassmannian(sp, k)
        # every member lies in exactly one star per hyperplane
        per_member = [0] * len(g_high)
        for row in table:
            for si in row:
                per_member[si] += 1
        hyp_count = (sp.p ** (k + 1) - 1) // (sp.p - 1)
        assert all(c == hyp_count for c in per_member)


@pytest.mark.parametrize("n,p", BASE_GRID + ((2, 5),))
def test_star_table_matches_hyperplanes(n, p):
    # star_table reads point masks; the reference files each member of G_k
    # under each of its hyperplanes
    sp = SymplecticSpace.standard(n, p)
    for k in range(1, sp.n):
        g_low = grassmannian(sp, k - 1)
        rows = [[] for _ in g_low]
        for si, s in enumerate(grassmannian(sp, k)):
            for h in hyperplanes_of(s):
                rows[g_low.index_of(h)].append(si)
        assert star_table(sp, k, None) == tuple(tuple(row) for row in rows)


def test_star_index_sets_at_zero(small_space):
    sets = star_index_sets(small_space, 0)
    assert sets == [frozenset(range(len(grassmannian(small_space, 0))))]


def test_top_index_sets_bounds(small_space):
    sp = small_space
    assert top_index_sets(sp, sp.n - 1) == []
    for k in range(sp.n - 1):
        sets = top_index_sets(sp, k)
        assert len(sets) == grassmannian_size(sp.n, sp.p, k + 1)


def test_adjacency_masks_agree(small_space):
    sp = small_space
    for k in layers(sp):
        adj, oadj = adjacency_masks(sp, k)
        g = grassmannian(sp, k)
        step = max(1, len(g) // 8)
        for i in range(0, len(g), step):
            assert not adj[i] >> i & 1
            for j in range(0, len(g), step):
                if i == j:
                    continue
                a, o = g.pair_relation(i, j)
                assert bool(adj[i] >> j & 1) == a
                assert bool(oadj[i] >> j & 1) == o
                assert bool(adj[j] >> i & 1) == a


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2)])
def test_cliques_are_stars_and_tops(n, p):
    sp = SymplecticSpace.standard(n, p)
    for k in layers(sp):
        cliques = {frozenset(c) for c in maximal_adjacency_cliques(sp, k)}
        stars = set(star_index_sets(sp, k))
        tops = set(top_index_sets(sp, k))
        if k == 0:
            # the point graph is complete, so its one clique is the full layer
            assert cliques == stars
        elif k == sp.n - 1:
            assert cliques == stars
        else:
            assert cliques == stars | tops
            assert stars.isdisjoint(tops)


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(tmp_path))
    sp = SymplecticSpace.standard(2, 2)
    g = grassmannian(sp, 1)
    path = tmp_path / "grassmannian-n2-p2-k1.json"
    first = path.read_bytes()
    json.loads(first.decode())
    # reading the file back must reproduce the same elements in the same order
    reloaded = grassmann._load_cached(sp, 1, str(tmp_path))
    assert reloaded is not None
    assert [s.rows for s in reloaded] == [s.rows for s in g]
    assert path.read_bytes() == first


def _truncate(sp, obj):
    obj["elements"] = obj["elements"][:-1]


def _swap_in_non_isotropic(sp, obj):
    # same count, canonical rows, sorted and distinct: only isotropy fails
    stranger = next(s for s in all_subspaces(sp, 1) if not sp.is_totally_isotropic(s))
    obj["elements"] = sorted(obj["elements"][1:] + [[list(r) for r in stranger.rows]])


def _drop_format(sp, obj):
    # a file written before the format key existed
    del obj["format"]


def _other_format(sp, obj):
    obj["format"] = grassmann.CACHE_FORMAT + 1


@pytest.mark.parametrize(
    "corrupt",
    [_truncate, _swap_in_non_isotropic, _drop_format, _other_format],
    ids=["truncated", "non-isotropic", "no-format", "other-format"],
)
def test_corrupt_disk_cache_is_rebuilt(tmp_path, monkeypatch, corrupt):
    sp = SymplecticSpace.standard(2, 3)
    name = "grassmannian-n2-p3-k1.json"
    good_dir, bad_dir = tmp_path / "good", tmp_path / "bad"
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(good_dir))
    fresh = grassmannian(sp, 1)
    good = (good_dir / name).read_bytes()
    obj = json.loads(good)
    assert obj["format"] == grassmann.CACHE_FORMAT == 1
    corrupt(sp, obj)
    bad_dir.mkdir()
    (bad_dir / name).write_text(json.dumps(obj))
    assert grassmann._load_cached(sp, 1, str(bad_dir)) is None
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(bad_dir))
    loaded = grassmannian(sp, 1)
    assert [s.rows for s in loaded] == [s.rows for s in fresh]
    assert (bad_dir / name).read_bytes() == good

