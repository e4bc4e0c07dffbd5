"""End-to-end acceptance battery.

Each criterion is tagged with the criterion marker; the terminal summary
prints one pass or fail line per criterion.  Statements that hold only
on part of the stated range are split: the full claim is a strict
expected failure and the true scoped statement is verified next to it.
"""

import random
import time
from itertools import combinations
from math import comb

import pytest

from oracles import complement_adjacency_test, subset_members
from sympol.bases import (
    SymplecticBase,
    random_base,
    random_collineation,
)
from sympol.errors import RecognitionError, ReconstructionError
from sympol.grassmann import (
    adjacency_masks,
    adjacent,
    grassmannian,
    maximal_adjacency_cliques,
    star_index_sets,
    top_index_sets,
)
from sympol.recon import (
    GrassmannianMap,
    check_adjacency_preservation,
    check_base_preservation,
    induce,
    reconstruct,
)
from sympol.space import BASE_GRID, SymplecticSpace
from sympol.subsets import (
    BaseSubset,
    base_subset_size,
    common_base,
    common_complement_count,
    disjointness_degrees,
    first_type_size,
    maximal_inexact_families,
    maximal_inexact_oracle,
    second_type_size,
    type1_members,
    type2_members,
)

SIZE_GRID = ((2, 2), (2, 3), (3, 2), (3, 3))


@pytest.mark.criterion(1, "base subset sizes and recurrence")
def test_sizes_on_random_bases():
    start = time.monotonic()
    for n, p in SIZE_GRID:
        sp = SymplecticSpace.standard(n, p)
        for k in range(n):
            expected = base_subset_size(n, k)
            for t in range(100):
                bs = BaseSubset(random_base(sp, f"c1:{n}:{p}:{k}:{t}"), k)
                assert len(bs) == expected
                members = subset_members(bs)
                assert len({m.rows for m in members}) == expected
                if t < 10:
                    assert all(m.pdim == k and sp.is_totally_isotropic(m) for m in members)
        for k in range(n - 1):
            assert base_subset_size(n, k) * 2 * (n - k - 1) == base_subset_size(n, k + 1) * (k + 2)
    assert time.monotonic() - start < 60


@pytest.mark.criterion(2, "common base construction")
def test_common_base_all_small_pairs():
    start = time.monotonic()
    sp = SymplecticSpace.standard(2, 2)
    for k in range(2):
        g = grassmannian(sp, k)
        for i in range(len(g)):
            for j in range(i, len(g)):
                base = common_base(sp, g[i], g[j])
                members = subset_members(BaseSubset(base, k))
                assert g[i] in members and g[j] in members
    assert time.monotonic() - start < 120


@pytest.mark.criterion(2, "common base construction")
@pytest.mark.parametrize("n,p", ((2, 3), (3, 2)))
def test_common_base_random_pairs(n, p):
    start = time.monotonic()
    sp = SymplecticSpace.standard(n, p)
    rng = random.Random(f"c2:{n}:{p}")
    layers = [grassmannian(sp, k) for k in range(n)]
    for t in range(1000):
        k = t % n
        g = layers[k]
        s, u = g[rng.randrange(len(g))], g[rng.randrange(len(g))]
        base = common_base(sp, s, u)
        members = subset_members(BaseSubset(base, k))
        assert s in members and u in members
    assert time.monotonic() - start < 120


@pytest.mark.criterion(3, "maximal inexact classification vs oracle")
@pytest.mark.parametrize("n,p", BASE_GRID)
def test_classification_matches_oracle(n, p):
    start = time.monotonic()
    sp = SymplecticSpace.standard(n, p)
    bases = [SymplecticBase.standard(sp)]
    if n == 2:
        bases.append(random_base(sp, "c3"))
    for base in bases:
        for k in range(n):
            bs = BaseSubset(base, k)
            oracle = set(maximal_inexact_oracle(bs))
            constructed = {members for _, members in maximal_inexact_families(bs)}
            assert oracle == constructed
    assert time.monotonic() - start < 1800


@pytest.mark.criterion(4, "complement disjointness degrees at (3, 2)")
def test_disjointness_degrees_middle_layer():
    bs = BaseSubset(SymplecticBase.standard(SymplecticSpace.standard(3, 2)), 1)
    degrees = dict(disjointness_degrees(bs))
    firsts = [d for (kind, _), d in degrees.items() if kind == "first"]
    seconds = [d for (kind, _), d in degrees.items() if kind == "second"]
    assert firsts and all(d == 9 for d in firsts)
    assert seconds and all(d == 4 for d in seconds)


@pytest.mark.criterion(4, "complement disjointness degrees at (3, 2)")
@pytest.mark.xfail(
    strict=True,
    reason="the point layer has no second-type complements and its first-type degree is 5",
)
def test_disjointness_degrees_point_layer_as_stated():
    bs = BaseSubset(SymplecticBase.standard(SymplecticSpace.standard(3, 2)), 0)
    degrees = dict(disjointness_degrees(bs))
    firsts = [d for (kind, _), d in degrees.items() if kind == "first"]
    seconds = [d for (kind, _), d in degrees.items() if kind == "second"]
    assert firsts and all(d == 9 for d in firsts)
    assert seconds and all(d == 4 for d in seconds)


@pytest.mark.criterion(4, "complement disjointness degrees at (3, 2)")
def test_disjointness_degrees_point_layer_actual():
    bs = BaseSubset(SymplecticBase.standard(SymplecticSpace.standard(3, 2)), 0)
    degrees = dict(disjointness_degrees(bs))
    assert all(kind == "first" for (kind, _) in degrees)
    assert all(d == 5 for d in degrees.values())


@pytest.mark.criterion(5, "adjacency from common complement counts")
@pytest.mark.parametrize("n,p", ((2, 2), (3, 2)))
def test_common_complement_count_formula(n, p):
    sp = SymplecticSpace.standard(n, p)
    bs = BaseSubset(SymplecticBase.standard(sp), n - 1)
    for a, b in combinations(bs.index_sets, 2):
        m = len(a & b) - 1
        assert common_complement_count(bs, a, b) == comb(m + 1, 2)


@pytest.mark.criterion(5, "adjacency from common complement counts")
def test_adjacency_iff_three_layers():
    sp = SymplecticSpace.standard(3, 2)
    bs = BaseSubset(SymplecticBase.standard(sp), 2)
    for a, b in combinations(bs.index_sets, 2):
        assert complement_adjacency_test(bs, a, b) == adjacent(bs.subspace(a), bs.subspace(b))


@pytest.mark.criterion(5, "adjacency from common complement counts")
@pytest.mark.xfail(
    strict=True,
    reason="for n = 2 disjoint top-layer members also share choose(k, 2) = 0 complements",
)
def test_adjacency_iff_two_layers_as_stated():
    sp = SymplecticSpace.standard(2, 2)
    bs = BaseSubset(SymplecticBase.standard(sp), 1)
    for a, b in combinations(bs.index_sets, 2):
        assert complement_adjacency_test(bs, a, b) == adjacent(bs.subspace(a), bs.subspace(b))


@pytest.mark.criterion(5, "adjacency from common complement counts")
def test_adjacency_two_layers_actual_degeneracy():
    sp = SymplecticSpace.standard(2, 2)
    bs = BaseSubset(SymplecticBase.standard(sp), 1)
    disjoint = [
        (a, b)
        for a, b in combinations(bs.index_sets, 2)
        if not adjacent(bs.subspace(a), bs.subspace(b))
    ]
    assert disjoint
    assert all(complement_adjacency_test(bs, a, b) for a, b in disjoint)


@pytest.mark.criterion(6, "adjacency preservation by induced layer maps")
@pytest.mark.parametrize("n,p", BASE_GRID)
def test_induced_maps_preserve_adjacency(n, p):
    sp = SymplecticSpace.standard(n, p)
    if n != 2:
        draws = [[random_base(sp, f"c6:{t}:{s}") for s in range(50)] for t in range(100)]
    for k in range(n):
        adj, ortho = adjacency_masks(sp, k)
        below_top = k < n - 1
        size = len(adj)
        checked = 0
        for t in range(100):
            h = random_collineation(sp, f"c6:{n}:{p}:{k}:{t}")
            f = induce(h, k)
            table = f.table
            if n == 2:
                for i in range(size):
                    ti = table[i]
                    for j in range(i + 1, size):
                        tj = table[j]
                        assert adj[i] >> j & 1 == adj[ti] >> tj & 1
                        if below_top:
                            assert ortho[i] >> j & 1 == ortho[ti] >> tj & 1
                        checked += 1
            else:
                for base in draws[t]:
                    for a, b in combinations(BaseSubset(base, k).indices(), 2):
                        assert adj[a] >> b & 1 == adj[table[a]] >> table[b] & 1
                        if below_top:
                            assert ortho[a] >> b & 1 == ortho[table[a]] >> table[b] & 1
                        checked += 1
        assert checked > 0


@pytest.mark.criterion(7, "reconstruction inverts induction")
@pytest.mark.parametrize("n,p", BASE_GRID)
def test_reconstruction_round_trip(n, p):
    start = time.monotonic()
    sp = SymplecticSpace.standard(n, p)
    for k in range(n):
        for t in range(100):
            h = random_collineation(sp, f"c7:{n}:{p}:{k}:{t}")
            pm, certificate = reconstruct(induce(h, k))
            assert pm == h
            assert certificate["pass"]
    assert time.monotonic() - start < 600


@pytest.mark.criterion(8, "maximal cliques are stars and tops")
def test_cliques_upper_layers():
    checks = (((2, 2), 1), ((2, 3), 1), ((3, 2), 1), ((3, 2), 2))
    for (n, p), k in checks:
        sp = SymplecticSpace.standard(n, p)
        cliques = {frozenset(c) for c in maximal_adjacency_cliques(sp, k)}
        stars = set(star_index_sets(sp, k))
        tops = set(top_index_sets(sp, k))
        if k == n - 1:
            assert cliques == stars
        else:
            assert cliques == stars | tops


@pytest.mark.criterion(8, "maximal cliques are stars and tops")
@pytest.mark.xfail(
    strict=True,
    reason="the point layer graph is complete, so tops are not maximal there",
)
def test_cliques_point_layer_as_stated():
    sp = SymplecticSpace.standard(3, 2)
    cliques = {frozenset(c) for c in maximal_adjacency_cliques(sp, 0)}
    assert cliques == set(star_index_sets(sp, 0)) | set(top_index_sets(sp, 0))


@pytest.mark.criterion(8, "maximal cliques are stars and tops")
def test_cliques_point_layer_actual():
    sp = SymplecticSpace.standard(3, 2)
    cliques = {frozenset(c) for c in maximal_adjacency_cliques(sp, 0)}
    whole = frozenset(range(len(grassmannian(sp, 0))))
    assert cliques == {whole} == set(star_index_sets(sp, 0))


@pytest.mark.criterion(9, "family size trichotomy")
def test_trichotomy_realizes_all_orders():
    witnesses = ((3, 1), (4, 2), (5, 3))
    signs = []
    for n, k in witnesses:
        sp = SymplecticSpace.standard(n, 2)
        bs = BaseSubset(SymplecticBase.standard(sp), k)
        first = len(type1_members(bs, 0))
        second = len(type2_members(bs, 0, 1))
        assert first == first_type_size(n, k)
        assert second == second_type_size(n, k)
        signs.append((first > second) - (first < second))
    assert signs == [1, 0, -1]


def corrupt_one_member_image(sp, k, seed):
    """Swap the image of one base-subset member with an outsider image.

    Retries until the corruption trips every rejection: base subsets,
    adjacency and full reconstruction.  Returns the collected evidence.
    """
    h = random_collineation(sp, seed)
    f = induce(h, k)
    g = f.source
    base = SymplecticBase.standard(sp)
    bs = BaseSubset(base, k)
    inside = list(bs.indices())
    inside_set = set(inside)
    outside = [i for i in range(len(g)) if i not in inside_set]
    rng = random.Random(seed)
    for _ in range(200):
        mi = rng.choice(inside)
        oi = rng.choice(outside)
        table = list(f.table)
        table[mi], table[oi] = table[oi], table[mi]
        broken = GrassmannianMap(f.source, f.target, table)
        try:
            check_base_preservation(broken, (base,))
        except RecognitionError:
            pass
        else:
            continue
        pairs = [tuple(sorted((mi, t))) for t in range(len(g)) if t != mi]
        pairs += [tuple(sorted((oi, t))) for t in range(len(g)) if t != oi]
        mismatches = check_adjacency_preservation(broken, pairs=pairs)
        if not mismatches:
            continue
        try:
            reconstruct(broken)
        except ReconstructionError as exc:
            failing = [
                c
                for rec in exc.certificate["levels"]
                for c in rec["checks"]
                if not c["pass"]
            ]
            if failing:
                return mismatches, failing
    raise AssertionError("no corrupting swap tripped all three rejections")


@pytest.mark.criterion(10, "corrupted maps rejected with witnesses")
@pytest.mark.parametrize("n,p", ((2, 2), (3, 2)))
def test_negative_controls(n, p):
    sp = SymplecticSpace.standard(n, p)
    for k in range(n):
        mismatches, failing = corrupt_one_member_image(sp, k, f"c10:{n}:{p}:{k}")
        assert mismatches
        for check in failing:
            assert check["witness"]
