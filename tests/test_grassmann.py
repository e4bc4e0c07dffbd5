"""Isotropic Grassmannian enumeration, adjacency and clique structure."""

import json

import pytest

from sympol import grassmann
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
from sympol.space import BASE_GRID, SymplecticSpace


def layers(space):
    return range(space.n)


def test_counts_match_closed_form(small_space):
    sp = small_space
    for k in layers(sp):
        g = grassmannian(sp, k)
        assert len(g) == grassmannian_size(sp.n, sp.p, k)
        assert len({s.rows for s in g}) == len(g)


def test_counts_match_brute_force():
    sp = SymplecticSpace.standard(2, 3)
    for k in layers(sp):
        oracle = [s for s in all_subspaces(sp, k) if sp.is_totally_isotropic(s)]
        assert len(oracle) == len(grassmannian(sp, k))
        g = grassmannian(sp, k)
        assert all(g.index_of(s) is not None for s in oracle)


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


def _truncate(sp, elements):
    return elements[:-1]


def _swap_in_non_isotropic(sp, elements):
    # same count, canonical rows, sorted and distinct: only isotropy fails
    stranger = next(s for s in all_subspaces(sp, 1) if not sp.is_totally_isotropic(s))
    return sorted(elements[1:] + [[list(r) for r in stranger.rows]])


@pytest.mark.parametrize(
    "corrupt", [_truncate, _swap_in_non_isotropic], ids=["truncated", "non-isotropic"]
)
def test_corrupt_disk_cache_is_rebuilt(tmp_path, monkeypatch, corrupt):
    sp = SymplecticSpace.standard(2, 3)
    name = "grassmannian-n2-p3-k1.json"
    good_dir, bad_dir = tmp_path / "good", tmp_path / "bad"
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(good_dir))
    fresh = grassmannian(sp, 1)
    good = (good_dir / name).read_bytes()
    obj = json.loads(good)
    obj["elements"] = corrupt(sp, obj["elements"])
    bad_dir.mkdir()
    (bad_dir / name).write_text(json.dumps(obj))
    assert grassmann._load_cached(sp, 1, str(bad_dir)) is None
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(bad_dir))
    loaded = grassmannian(sp, 1)
    assert [s.rows for s in loaded] == [s.rows for s in fresh]
    assert (bad_dir / name).read_bytes() == good
