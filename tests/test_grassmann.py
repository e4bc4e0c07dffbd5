"""Isotropic Grassmannian enumeration, adjacency and clique structure."""

import hashlib
import json
import os
import random
import shutil
from itertools import product

import pytest

from oracles import all_subspaces, interval, layers
from sympol import _kernels, grassmann, serialize
from sympol.errors import DimensionError
from sympol.grassmann import (
    adjacency_masks,
    adjacent,
    grassmannian,
    grassmannian_size,
    hyperplanes_of,
    maximal_adjacency_cliques,
    member_points,
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


# The exhaustive checks below reach one grid past BASE_GRID.  The list is
# de-duplicated in order, so (2, 5) joining BASE_GRID keeps the ids unique.
CHECK_GRID = tuple(dict.fromkeys(BASE_GRID + ((2, 5),)))


def test_counts_match_closed_form(small_space):
    sp = small_space
    for k in layers(sp):
        g = grassmannian(sp, k)
        assert len(g) == grassmannian_size(sp.n, sp.p, k)
        assert len({s.rows for s in g}) == len(g)


# The canonical-prefix build against the full scan of every subspace, filtered
# by the form afterwards: the two share no code past the kernels.
@pytest.mark.parametrize("n,p", CHECK_GRID)
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


def has_free_column(s):
    """Whether some column after s's last pivot is 0 in every row of s."""
    last = max(r.index(1) for r in s.rows)
    return any(all(r[c] == 0 for r in s.rows) for c in range(last + 1, s.ambient))


# _levelwise builds each level once, from prefixes: a cold build of G_(n-1)
# takes one perp per member of G_0..G_(n-2) with a free column, none for any
# other member or for the empty subspace, and stores every layer below it.
# A layer loaded from disk is extended, not rebuilt: with only G_1's file,
# copied from a build in another directory, G_2 takes one perp per member of
# G_1 with a free column, and G_0 is never built.
@pytest.mark.parametrize(
    "n,p,loaded",
    [pytest.param(n, p, None, id=f"{n}-{p}") for n, p in ENUM_GRID]
    + [pytest.param(3, 3, 1, id="3-3-from-k1")],
)
def test_cold_build_extends_each_level_once(n, p, loaded, tmp_path, monkeypatch):
    sp = SymplecticSpace.standard(n, p)
    cache = tmp_path / "cache"
    cache.mkdir()
    low = 0
    if loaded is not None:
        monkeypatch.setenv("SYMPOL_CACHE_DIR", str(tmp_path / "built"))
        grassmannian(sp, loaded)
        name = os.path.basename(grassmann._cache_path(tmp_path / "built", sp, loaded))
        shutil.copy(tmp_path / "built" / name, cache / name)
        low = loaded
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(cache))
    inner = SymplecticSpace.perp
    calls = []

    def counted(self, s):
        calls.append(s.rows)
        return inner(self, s)

    monkeypatch.setattr(SymplecticSpace, "perp", counted)
    grassmannian(sp, n - 1)
    stored = [os.path.basename(grassmann._cache_path(cache, sp, k)) for k in range(low, n)]
    assert sorted(os.listdir(cache)) == stored
    expected = [
        s.rows for k in range(low, n - 1) for s in grassmannian(sp, k) if has_free_column(s)
    ]
    assert calls == expected
    assert 0 < len(expected) < sum(grassmannian_size(n, p, j) for j in range(low, n - 1))


# _levelwise forms each member u of G_k once, as Subspace(p, d, s.rows + (q,))
# with s = u.rows[:-1] in G_(k-1); every row tuple it forms is checked
# against rref, and the formed members against the layers.
@pytest.mark.parametrize("n,p", ENUM_GRID)
def test_one_point_extensions_match_row_reduction(n, p, monkeypatch):
    sp = SymplecticSpace.standard(n, p)
    formed = []

    def checked(p, ambient, rows):
        assert rows == _kernels.rref(rows, ambient, p)
        formed.append(rows)
        return Subspace(p, ambient, rows)

    checked.span = Subspace.span
    monkeypatch.setattr(grassmann, "Subspace", checked)
    built = []
    for k in layers(sp):
        built.append(grassmann._levelwise(sp, k, built[-1] if built else ()))
    monkeypatch.undo()
    expected = [s.rows for layer in built for s in layer]
    assert formed == expected
    assert len(set(formed)) == len(formed)
    below = {()}
    for k, layer in enumerate(built):
        rows = [s.rows for s in layer]
        assert rows == [s.rows for s in grassmannian(sp, k)]
        assert all(len(u) == k + 1 and u[:-1] in below for u in rows)
        below = set(rows)


@pytest.mark.parametrize("n,p", CHECK_GRID)
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


def _points_by_scan(s):
    """The normalized vectors of GF(p)^d inside s, in lexicographic order."""
    return tuple(
        v
        for v in product(range(s.p), repeat=s.ambient)
        if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1 and s.contains_vector(v)
    )


# points() pushes canonical rows through a recipe with no sort or
# normalization; a scan of every vector of the ambient space checks it.
@pytest.mark.parametrize("n,p", CHECK_GRID)
def test_points_match_vector_scan(n, p):
    sp = SymplecticSpace.standard(n, p)
    for k in layers(sp):
        for s in grassmannian(sp, k):
            assert s.points() == _points_by_scan(s)


# At the top layer member_points reads each member's points off the
# ortho_masks rows of its own rows, a member there being its own perp;
# the points() route is the reference on every layer.
@pytest.mark.parametrize("n,p", ENUM_GRID, ids=[f"n{n}p{p}" for n, p in ENUM_GRID])
def test_member_points_match_points_route(n, p):
    sp = SymplecticSpace.standard(n, p)
    index = sp.point_index()
    for k in layers(sp):
        want = tuple(tuple(index[pt] for pt in s.points()) for s in grassmannian(sp, k))
        assert member_points(sp, k) == want


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("m", (0, 1, 2, 3, 4))
def test_full_points_match_vector_scan(p, m):
    assert Subspace.full(p, m).points() == _points_by_scan(Subspace.full(p, m))


# reconstruct reads a G_0 index as a point index, so G_0 lists the points
# in all_points() order, whether it was built or loaded back from disk
def test_point_layer_matches_space(small_space):
    g = grassmannian(small_space, 0)
    assert [s.rows[0] for s in g] == list(small_space.all_points())


@pytest.mark.parametrize("n,p", ENUM_GRID, ids=[f"n{n}p{p}" for n, p in ENUM_GRID])
def test_loaded_point_layer_matches_space(tmp_path, monkeypatch, n, p):
    sp = SymplecticSpace.standard(n, p)
    built, loaded = tmp_path / "built", tmp_path / "loaded"
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(built))
    grassmannian(sp, 0)
    shutil.copytree(built, loaded)
    path = loaded / f"grassmannian-n{n}-p{p}-k0.json"
    inode = path.stat().st_ino
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(loaded))
    g = grassmannian(sp, 0)
    assert path.stat().st_ino == inode
    assert [s.rows[0] for s in g] == list(sp.all_points())


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
# pair is checked against the geometric predicates.
@pytest.mark.parametrize("n,p", CHECK_GRID, ids=[f"n{n}p{p}" for n, p in CHECK_GRID])
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
        hyperplanes_of(Subspace(sp.p, sp.dim, ()))


# hyperplanes_of is the reference star_table and hyper_masks are tested
# against; here it is checked against the full list of subspaces one
# dimension down, filtered by containment.
@pytest.mark.parametrize("n,p", CHECK_GRID)
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


# Each entry names a hyperplane's canonical basis by the indices of its rows
# among the points of PG(m-1, p); sorting the index tuples sorts the bases,
# and every functional has its own kernel among them.
@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_coordinate_hyperplanes(p, m):
    coords = Subspace.full(p, m).points()
    table = grassmann._coordinate_hyperplanes(p, m)
    assert len(set(table)) == len(table) == len(coords) == (p**m - 1) // (p - 1)
    assert list(table) == sorted(table)
    bases = [tuple(coords[i] for i in idx) for idx in table]
    assert bases == sorted(bases)
    kernels = []
    for basis in bases:
        assert len(basis) == m - 1
        assert basis == _kernels.rref(basis, m, p)
        kernels += [
            phi
            for phi in coords
            if all(sum(a * b for a, b in zip(phi, row)) % p == 0 for row in basis)
        ]
    assert sorted(kernels) == list(coords)


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


@pytest.mark.parametrize("n,p", CHECK_GRID)
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


@pytest.mark.parametrize("n,p", BASE_GRID)
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


# Layer files are one compact JSON line; files in the indented layout that
# serialize.dumps wrote before hold the same format-1 object and still load.
def test_indented_layer_file_loads_and_compact_file_is_one_line(tmp_path, monkeypatch):
    sp = SymplecticSpace.standard(2, 3)
    name = "grassmannian-n2-p3-k1.json"
    old_dir, new_dir = tmp_path / "old", tmp_path / "new"
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(new_dir))
    fresh = grassmannian(sp, 1)
    obj = {
        "format": 1,
        "space": sp.header(),
        "k": 1,
        "elements": [[list(r) for r in s.rows] for s in fresh],
    }
    text = (new_dir / name).read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == json.loads(serialize.dumps(obj))
    old_dir.mkdir()
    path = old_dir / name
    path.write_text(serialize.dumps(obj))
    before, inode = path.read_bytes(), path.stat().st_ino
    assert before.count(b"\n") > 1
    assert grassmann._load_cached(sp, 1, str(old_dir)) is not None
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(old_dir))
    loaded = grassmannian(sp, 1)
    assert [s.rows for s in loaded] == [s.rows for s in fresh]
    assert path.read_bytes() == before
    assert path.stat().st_ino == inode


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


def _entry_as(value):
    # the leading 1 of the first member's first row, replaced by a value
    # that int() would turn back into 1
    def corrupt(sp, obj):
        row = obj["elements"][0][0]
        row[row.index(1)] = value

    return corrupt


# the next eight break the first member's canonical rows, or the layer's
# strictly increasing order, and nothing else the validator reads first


def _uncleared_pivot(sp, obj):
    r0, r1 = obj["elements"][0]
    obj["elements"][0][0] = [(a + b) % sp.p for a, b in zip(r0, r1)]


def _scaled_row(sp, obj):
    rows = obj["elements"][0]
    rows[1] = [2 * x % sp.p for x in rows[1]]


def _out_of_range_entry(sp, obj):
    row = obj["elements"][0][0]
    row[row.index(0)] = sp.p


def _swapped_rows(sp, obj):
    rows = obj["elements"][0]
    rows[0], rows[1] = rows[1], rows[0]


def _unsorted_layer(sp, obj):
    elements = obj["elements"]
    elements[0], elements[1] = elements[1], elements[0]


def _duplicate_member(sp, obj):
    obj["elements"][1] = obj["elements"][0]


def _zero_row(sp, obj):
    rows = obj["elements"][0]
    rows[1] = [0] * len(rows[1])


def _negative_entry(sp, obj):
    row = obj["elements"][0][0]
    row[row.index(0)] = -1


def _short_member(sp, obj):
    # one canonical, isotropic row: a point, still sorted before member 1
    obj["elements"][0].pop()


@pytest.mark.parametrize(
    "corrupt",
    [
        _truncate,
        _swap_in_non_isotropic,
        _drop_format,
        _other_format,
        _entry_as("1"),
        _entry_as(1.0),
        _entry_as(True),
        _uncleared_pivot,
        _scaled_row,
        _out_of_range_entry,
        _swapped_rows,
        _unsorted_layer,
        _duplicate_member,
        _zero_row,
        _negative_entry,
        _short_member,
    ],
    ids=[
        "truncated",
        "non-isotropic",
        "no-format",
        "other-format",
        "string-entry",
        "float-entry",
        "bool-entry",
        "uncleared-pivot",
        "scaled-row",
        "out-of-range-entry",
        "swapped-rows",
        "unsorted-layer",
        "duplicate-member",
        "zero-row",
        "negative-entry",
        "short-member",
    ],
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


def test_canonical_shape_matches_row_reduction():
    # the validator reads canonical form off point-index lookups and the
    # rows' leads; rref is the oracle.  Widths are the ambient widths of
    # real spaces.  Most draws are reduced rows, some with one entry
    # redrawn or a zero row inserted, so both answers come up often.
    rng = random.Random("canonical-shape")
    canonical = 0
    for _ in range(20000):
        p, width = rng.choice((2, 3, 5)), rng.choice((4, 6))
        index = SymplecticSpace.standard(width // 2, p).point_index()
        rows = [[rng.randrange(p) for _ in range(width)] for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.6:
            rows = [list(r) for r in _kernels.rref(rows, width, p)] or rows
            if rng.random() < 0.5:
                rng.choice(rows)[rng.randrange(width)] = rng.randrange(p)
            if rng.random() < 0.1:
                rows.insert(rng.randrange(len(rows) + 1), [0] * width)
        rows = tuple(map(tuple, rows))
        want = _kernels.rref(rows, width, p) == rows
        found = grassmann._canonical_indices(index, rows)
        assert found == ([index[r] for r in rows] if want else None), (rows, p)
        canonical += want
    assert 5000 < canonical < 15000

