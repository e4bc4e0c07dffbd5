"""Base subsets, their inexact collections and the exactness oracle."""

import hashlib
import random
from itertools import combinations
from math import comb

import pytest

from oracles import (
    classify_maximal_inexact,
    complement_adjacency_test,
    layers,
    meet_at_subspace,
    pins_every_point,
    subset_members,
    unpinned_exact_example,
)
from sympol import grassmann, subsets
from sympol.bases import (
    SymplecticBase,
    base_columns,
    enumerate_all_bases,
    is_symplectic_base,
    perturb_pair,
    random_base,
)
from sympol.errors import DegenerateParameterError, DimensionError
from sympol.grassmann import adjacent, grassmannian, through_masks
from sympol.linalg import Subspace, vec_scale
from sympol.space import BASE_GRID, SymplecticSpace, bits
from sympol.subsets import (
    BaseSubset,
    base_subset_size,
    canonical_type2,
    certify_inexact,
    common_base,
    common_complement_count,
    complement_family,
    complement_type1,
    complement_type2,
    complete_to_base,
    covering_bases,
    disjointness_degrees,
    distinct_complements,
    first_type_size,
    incident_members,
    inexactness_witness,
    is_exact,
    maximal_inexact_families,
    maximal_inexact_oracle,
    meet_at,
    member_mask,
    ordered_type2_params,
    second_type_size,
    subset_universe,
    type1_members,
    type2_members,
    universe_columns,
)

ORACLE_GRID = ((2, 2), (2, 3))


def subsets_of(space, base=None):
    base = base or SymplecticBase.standard(space)
    return [BaseSubset(base, k) for k in layers(space)]


def test_sizes_and_recurrence(small_space):
    sp = small_space
    n = sp.n
    for bs in subsets_of(sp):
        assert len(bs) == base_subset_size(n, bs.k)
        assert len(set(subset_members(bs))) == len(bs)
    for k in range(n - 1):
        assert base_subset_size(n, k) * 2 * (n - k - 1) == base_subset_size(n, k + 1) * (k + 2)


def test_members_are_isotropic_of_right_dimension(small_space):
    sp = small_space
    for bs in subsets_of(sp):
        for s in subset_members(bs):
            assert s.pdim == bs.k
            assert sp.is_totally_isotropic(s)


def test_layer_bounds(small_space):
    base = SymplecticBase.standard(small_space)
    with pytest.raises(DimensionError):
        BaseSubset(base, small_space.n)
    with pytest.raises(DimensionError):
        BaseSubset(base, -1)


def test_membership_and_lookup(small_space):
    sp = small_space
    for bs in subsets_of(sp):
        some = bs.index_sets[0]
        assert some in bs
        # indices names the members the row-reduced spans name
        g = grassmannian(sp, bs.k)
        assert bs.indices() == tuple(g.index_of(s) for s in subset_members(bs))
        assert len(bs) < len(g)
        with pytest.raises(DimensionError):
            bs.subspace(frozenset(range(bs.k + 1)) | {sp.dim - 1})


def test_covering_counts_between_layers(small_space):
    sp = small_space
    for k in range(sp.n - 1):
        low = BaseSubset(SymplecticBase.standard(sp), k)
        high = BaseSubset(low.base, k + 1)
        for big in high.index_sets:
            inside = [s for s in low.index_sets if s <= big]
            assert len(inside) == k + 2
        for small in low.index_sets:
            above = [s for s in high.index_sets if small <= s]
            assert len(above) == 2 * (sp.n - k - 1)


def test_selector_identities(small_space):
    sp = small_space
    sigma = SymplecticBase.standard(sp).sigma
    for bs in subsets_of(sp):
        for i in range(sp.dim):
            assert bs.select(plus=(i,)) == bs.select(plus=(i,), minus=(sigma[i],))
    top_bs = subsets_of(sp)[sp.n - 1]
    for i in range(sp.dim):
        # in the top layer avoiding a point forces containing its partner
        assert top_bs.select(minus=(i,)) == top_bs.select(plus=(sigma[i],))


def test_incident_members(small_space):
    sp = small_space
    bs = subsets_of(sp)[sp.n - 1]
    probe = bs.index_sets[0]
    hits = incident_members(bs, probe)
    assert probe in hits
    for i in hits:
        assert i <= probe or probe <= i


def test_meets_agree_with_geometry(small_space):
    sp = small_space
    for bs in subsets_of(sp):
        fams = [members for _, members in maximal_inexact_families(bs)]
        fams.append(frozenset(bs.index_sets[: max(2, len(bs) // 3)]))
        for collection in fams:
            for i in range(sp.dim):
                idx = meet_at(collection, i)
                geo = meet_at_subspace(bs, collection, i)
                if idx is None:
                    assert geo.vdim == 0
                else:
                    assert bs.base.space.is_totally_isotropic(geo)
                    got = [t for t in range(sp.dim) if geo.contains_vector(bs.base.points[t])]
                    assert frozenset(got) == idx


def test_full_subset_pins_and_is_exact(small_space):
    sp = small_space
    for bs in subsets_of(sp):
        assert pins_every_point(bs, frozenset(bs.index_sets))
    if (sp.n, sp.p) in ORACLE_GRID:
        for bs in subsets_of(sp):
            assert is_exact(bs, frozenset(bs.index_sets))


@pytest.mark.parametrize("n,p", ORACLE_GRID)
def test_witness_decides_inexactness_on_small_layers(n, p):
    """Against the oracle: a witness certifies a second covering base,
    and on these layers every inexact collection has one."""
    sp = SymplecticSpace.standard(n, p)
    for bs in subsets_of(sp):
        whole = list(bs.index_sets)
        for r in range(2, len(whole) + 1):
            for combo in combinations(whole, r):
                collection = frozenset(combo)
                witness = inexactness_witness(bs, collection)
                exact = is_exact(bs, collection)
                if witness is not None:
                    built = certify_inexact(bs, collection)
                    assert built is not None
                    i, j, other = built
                    assert other != bs.base
                    assert not exact
                if exact:
                    assert witness is None


def test_certify_inexact_rejects_a_base_that_fails_to_cover(monkeypatch):
    sp = SymplecticSpace.standard(3, 2)
    bs = BaseSubset(SymplecticBase.standard(sp), 1)
    collection = next(
        members
        for _, members in maximal_inexact_families(bs)
        if inexactness_witness(bs, members) is not None
    )
    monkeypatch.setattr(subsets, "perturb_pair", lambda base, i, j: random_base(sp, "stranger"))
    with pytest.raises(RuntimeError, match="witness base fails to cover the collection"):
        certify_inexact(bs, collection)


def test_certify_inexact_builds_no_layer(monkeypatch, tmp_path):
    # coverage is compared span by span, so a certificate at (4, 3), where
    # G_1 is too large to build in a test, needs no layer and no cache file
    def refuse(*args):
        raise AssertionError("certify_inexact built a Grassmannian layer")

    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(grassmann, "_levelwise", refuse)
    bs = BaseSubset(SymplecticBase.standard(SymplecticSpace.standard(4, 3)), 1)
    collection = next(
        members
        for _, members in maximal_inexact_families(bs)
        if inexactness_witness(bs, members) is not None
    )
    i, j, base = certify_inexact(bs, collection)
    assert base == perturb_pair(bs.base, i, j)
    assert not any(tmp_path.iterdir())


def test_pinning_implies_exact():
    sp = SymplecticSpace.standard(2, 3)
    for bs in subsets_of(sp):
        whole = list(bs.index_sets)
        for r in range(2, len(whole) + 1):
            for combo in combinations(whole, r):
                collection = frozenset(combo)
                if pins_every_point(bs, collection):
                    assert is_exact(bs, collection)


def test_unpinned_exact_example():
    sp = SymplecticSpace.standard(3, 2)
    bs = BaseSubset(SymplecticBase.standard(sp), 1)
    collection = unpinned_exact_example(bs)
    assert not pins_every_point(bs, collection)
    assert is_exact(bs, collection)
    with pytest.raises(DimensionError):
        unpinned_exact_example(BaseSubset(bs.base, 2))


@pytest.mark.parametrize("n,p", ORACLE_GRID)
def test_classification_matches_oracle(n, p):
    sp = SymplecticSpace.standard(n, p)
    for seed in ("standard", 5):
        base = SymplecticBase.standard(sp) if seed == "standard" else random_base(sp, seed)
        for k in layers(sp):
            bs = BaseSubset(base, k)
            oracle = set(maximal_inexact_oracle(bs))
            constructed = {members for _, members in maximal_inexact_families(bs)}
            assert oracle == constructed
            for collection in oracle:
                assert classify_maximal_inexact(bs, collection) is not None


def test_classification_single_layer_bigger_space():
    sp = SymplecticSpace.standard(3, 2)
    bs = BaseSubset(SymplecticBase.standard(sp), 1)
    oracle = set(maximal_inexact_oracle(bs))
    constructed = {members for _, members in maximal_inexact_families(bs)}
    assert oracle == constructed


def test_family_counts_and_sizes(small_space):
    sp = small_space
    n = sp.n
    for bs in subsets_of(sp):
        fams = maximal_inexact_families(bs)
        labels = [label for label, _ in fams]
        assert len(set(labels)) == len(labels)
        firsts = [m for (kind, _), m in fams if kind == "first"]
        seconds = [m for (kind, _), m in fams if kind == "second"]
        if bs.k < n - 1:
            assert len(firsts) == 2 * n
            assert all(len(m) == first_type_size(n, bs.k) for m in firsts)
        else:
            assert not firsts
        if bs.k >= 1:
            assert len(seconds) == 2 * n * (n - 1)
            assert len(set(seconds)) == len(seconds)
            assert all(len(m) == second_type_size(n, bs.k) for m in seconds)
        else:
            assert not seconds


def test_second_type_parameter_twins(small_space):
    sp = small_space
    base = SymplecticBase.standard(sp)
    sigma = base.sigma
    bs = BaseSubset(base, 1)
    params = ordered_type2_params(sigma)
    assert len(params) == 2 * sp.n * (2 * sp.n - 2)
    canon = {canonical_type2(sigma, i, j) for i, j in params}
    assert len(canon) == 2 * sp.n * (sp.n - 1)
    for i, j in params:
        ti, tj = sigma[j], sigma[i]
        assert type2_members(bs, i, j) == type2_members(bs, ti, tj)
        assert complement_type2(bs, i, j) == complement_type2(bs, ti, tj)
    with pytest.raises(DegenerateParameterError):
        type2_members(bs, 0, sigma[0])
    with pytest.raises(DegenerateParameterError):
        complement_type2(bs, 0, 0)


def test_complements_partition(small_space):
    sp = small_space
    for bs in subsets_of(sp):
        whole = frozenset(bs.index_sets)
        for label, members in maximal_inexact_families(bs):
            kind, param = label
            if kind == "first":
                comp = complement_type1(bs, param)
            else:
                comp = complement_type2(bs, *param)
            assert members | comp == whole
            assert not members & comp


def test_disjointness_degree_laws(small_space):
    sp = small_space
    n = sp.n
    for bs in subsets_of(sp):
        degrees = dict(disjointness_degrees(bs))
        firsts = [d for (kind, _), d in degrees.items() if kind == "first"]
        seconds = [d for (kind, _), d in degrees.items() if kind == "second"]
        if bs.k == 0:
            assert firsts and not seconds
            assert all(d == 2 * n - 1 for d in firsts)
        elif bs.k < n - 1:
            assert all(d == 4 * n - 3 for d in firsts)
            assert all(d == 4 for d in seconds)
        else:
            assert not firsts
            assert all(d == 4 * n * n - 12 * n + 14 for d in seconds)


def test_distinct_complement_counts(small_space):
    sp = small_space
    n = sp.n
    for bs in subsets_of(sp):
        count = len(distinct_complements(bs))
        if bs.k == 0:
            assert count == 2 * n
        elif bs.k < n - 1:
            assert count == 2 * n * n
        else:
            assert count == 2 * n * (n - 1)


def scoped_disjointness_holds(bs, with_top_case):
    """Exhaustive check of the complement disjointness criterion."""
    sigma = bs.base.sigma
    comp = {(i, j): complement_type2(bs, i, j) for i, j in ordered_type2_params(sigma)}
    for (i, j), a in comp.items():
        for (i2, j2), b in comp.items():
            if (i, j) == (i2, j2):
                continue
            if a & b:
                continue
            ok = i2 == sigma[i] or i2 == j or j2 == i
            if with_top_case:
                ok = ok or j2 == sigma[j]
            if not ok:
                return False
    return True


def test_disjointness_criterion_scoped(small_space):
    sp = small_space
    for k in range(1, sp.n - 1):
        assert scoped_disjointness_holds(BaseSubset(SymplecticBase.standard(sp), k), False)
    top_bs = BaseSubset(SymplecticBase.standard(sp), sp.n - 1)
    assert scoped_disjointness_holds(top_bs, True)


def test_disjointness_criterion_needs_top_case():
    # at the top layer complements with j2 = sigma(j) can also be disjoint
    sp = SymplecticSpace.standard(2, 2)
    assert not scoped_disjointness_holds(BaseSubset(SymplecticBase.standard(sp), 1), False)


def test_common_complement_count_formula(small_space):
    sp = small_space
    bs = BaseSubset(SymplecticBase.standard(sp), sp.n - 1)
    for a in bs.index_sets:
        for b in bs.index_sets:
            if sorted(map(sorted, (a, b)))[0] != sorted(a):
                continue
            m = len(a & b) - 1
            assert common_complement_count(bs, a, b) == comb(m + 1, 2)


def test_complement_adjacency_iff_in_three_layers():
    sp = SymplecticSpace.standard(3, 2)
    bs = BaseSubset(SymplecticBase.standard(sp), 2)
    for a in bs.index_sets:
        for b in bs.index_sets:
            if a == b:
                continue
            geom = adjacent(bs.subspace(a), bs.subspace(b))
            assert complement_adjacency_test(bs, a, b) == geom


def test_complement_adjacency_degenerates_for_two_layers():
    sp = SymplecticSpace.standard(2, 2)
    bs = BaseSubset(SymplecticBase.standard(sp), 1)
    bad = [
        (a, b)
        for a in bs.index_sets
        for b in bs.index_sets
        if a != b
        and complement_adjacency_test(bs, a, b)
        and not adjacent(bs.subspace(a), bs.subspace(b))
    ]
    # disjoint top pairs share zero complements, which equals choose(1, 2)
    assert bad
    with pytest.raises(DimensionError):
        complement_adjacency_test(BaseSubset(bs.base, 0), frozenset((0,)), frozenset((1,)))


def test_subset_universe_alignment():
    sp = SymplecticSpace.standard(2, 2)
    universe = subset_universe(sp, 1)
    assert len(universe) == 90
    size = base_subset_size(2, 1)
    assert all(mask.bit_count() == size for mask in universe)
    bs = BaseSubset(SymplecticBase.standard(sp), 1)
    home = member_mask(bs, bs.index_sets)
    assert home in universe


def span_route_mask(base, k):
    """Base subset mask from row-reduced spans of base points (oracle)."""
    sp = base.space
    gr = grassmannian(sp, k)
    mask = 0
    for combo in combinations(range(sp.dim), k + 1):
        if any(base.sigma[i] in combo for i in combo):
            continue
        span = Subspace.span(sp.p, sp.dim, [base.points[i] for i in combo])
        mask |= 1 << gr.index_of(span)
    return mask


# every base at (2, 2) and (2, 3); a fixed stride of the 30,240 at (3, 2)
@pytest.mark.parametrize("n,p,stride", ((2, 2, 1), (2, 3, 1), (3, 2, 7)))
def test_subset_universe_matches_span_route(n, p, stride):
    sp = SymplecticSpace.standard(n, p)
    bases = enumerate_all_bases(sp)
    for k in layers(sp):
        universe = subset_universe(sp, k)
        for i in range(0, len(bases), stride):
            assert universe[i] == span_route_mask(bases[i], k)


def index_set_route_mask(base, k):
    """Base subset mask as the OR of one AND per admissible index set:
    the universe build before the threshold count (reference)."""
    mask = 0
    for i in BaseSubset(base, k).indices():
        mask |= 1 << i
    return mask


@pytest.mark.parametrize("n,p", BASE_GRID)
def test_subset_universe_matches_index_set_route(n, p):
    sp = SymplecticSpace.standard(n, p)
    bases = enumerate_all_bases(sp)
    for k in layers(sp):
        assert subset_universe(sp, k) == tuple(index_set_route_mask(b, k) for b in bases)


def scan_subset_universe(space, k, through):
    """subset_universe by one threshold count per base, over a given
    through table: the universe build before the count ran by pair
    position over index columns (reference)."""
    index = space.point_index()
    deeper = range(k, 0, -1)
    for base in enumerate_all_bases(space):
        pts = base.points
        at_least = [0] * (k + 1)
        for a, b in enumerate(base.sigma):
            if a < b:
                row = through[index[pts[a]]] | through[index[pts[b]]]
                for j in deeper:
                    at_least[j] |= at_least[j - 1] & row
                at_least[0] |= row
        yield at_least[k]


# SHA-256 of the enumeration order and every layer's universe, recorded
# before base enumeration and the universe were read off index columns.
ENUMERATION_DIGESTS = {
    (2, 2): "b162eba152076e0811dcc124749d330cf5ce27678675ca086ed7d2673362d879",
    (2, 3): "defc33f223814553dc2cf194b042ff69232a13f531270bc083033c539a72399a",
    (3, 2): "fe70c17ff5916c9a347a1b3861cbca88b0f3e9429c4e04ebdfaef1a052631338",
}


@pytest.mark.parametrize("n,p", BASE_GRID)
def test_enumeration_and_universe_are_pinned(n, p):
    sp = SymplecticSpace.standard(n, p)
    bases = enumerate_all_bases(sp)
    digest = hashlib.sha256()
    for base in bases:
        digest.update(repr(base.points).encode())
    for k in layers(sp):
        digest.update(b"|")
        for mask in subset_universe(sp, k):
            digest.update(b"%x," % mask)
    assert digest.hexdigest() == ENUMERATION_DIGESTS[n, p]
    # the index columns name the enumerated points, base by base
    pts = sp.all_points()
    columns = base_columns(sp)
    assert len(columns) == sp.dim
    assert all(len(column) == len(bases) for column in columns)
    for t, base in enumerate(bases):
        assert base.points == tuple(pts[column[t]] for column in columns)


# One member dropped from the through row of the first point of one base.
# At (3, 2) the corrupted base is the last one, and the first base it
# breaks lies past the first block of the count.
@pytest.mark.parametrize(
    "n,p,number,past_first_block", ((2, 2, 0, False), (3, 2, -1, True)), ids=("2-2", "3-2")
)
def test_subset_universe_rejects_a_corrupt_through_table(
    monkeypatch, n, p, number, past_first_block
):
    sp = SymplecticSpace.standard(n, p)
    k = 1
    size = base_subset_size(n, k)
    base = enumerate_all_bases(sp)[number]
    home = index_set_route_mask(base, k)
    through = list(through_masks(sp, k))
    point = sp.point_index()[base.points[0]]
    row = through[point] & home
    through[point] &= ~(row & -row)
    first, count = next(
        (b, mask.bit_count())
        for b, mask in enumerate(scan_subset_universe(sp, k, through))
        if mask.bit_count() != size
    )
    assert (first >= subsets.UNIVERSE_BLOCK) == past_first_block
    monkeypatch.setattr(subsets, "through_masks", lambda space, layer: tuple(through))
    subset_universe.cache_clear()
    try:
        with pytest.raises(
            RuntimeError, match=f"^base {first} meets {count} members of G_1, not {size}$"
        ):
            subset_universe(sp, k)
    finally:
        subset_universe.cache_clear()


def transpose_by_bits(universe, members):
    """universe_columns by one OR per set bit (reference)."""
    columns = [0] * members
    for b, mask in enumerate(universe):
        for m in bits(mask):
            columns[m] |= 1 << b
    return tuple(columns)


@pytest.mark.parametrize("n,p", BASE_GRID)
def test_universe_columns_transpose_the_universe(n, p):
    sp = SymplecticSpace.standard(n, p)
    for k in layers(sp):
        universe = subset_universe(sp, k)
        columns = universe_columns(sp, k)
        assert len(columns) == len(grassmannian(sp, k))
        assert columns == transpose_by_bits(universe, len(columns))


def scan_covering_bases(bs, collection):
    """covering_bases by a scan over every universe mask (reference)."""
    space = bs.base.space
    mask = member_mask(bs, collection)
    out = []
    for base, cover in zip(enumerate_all_bases(space), subset_universe(space, bs.k)):
        if mask | cover == cover:
            out.append(base)
            if len(out) == 2:
                break
    return tuple(out)


def scan_maximal_inexact_oracle(bs):
    """maximal_inexact_oracle by a scan over every universe mask (reference)."""
    member_of = dict(zip(bs.indices(), bs.index_sets))
    home = sum(1 << i for i in member_of)
    seen = {home & cover for cover in subset_universe(bs.base.space, bs.k)}
    seen.discard(home)
    keep = []
    for mask in sorted(seen, key=lambda m: -m.bit_count()):
        if not any(mask | kept == kept for kept in keep):
            keep.append(mask)
    collections = (frozenset(member_of[b] for b in bits(mask)) for mask in keep)
    return tuple(sorted(collections, key=lambda c: sorted(map(sorted, c))))


@pytest.mark.parametrize("n,p", BASE_GRID)
def test_oracle_matches_the_universe_scans(n, p):
    sp = SymplecticSpace.standard(n, p)
    bases = [SymplecticBase.standard(sp)] + [random_base(sp, f"scan{i}") for i in range(3)]
    for number, base in enumerate(bases):
        rng = random.Random(f"scan:{n}:{p}:{number}")
        for k in layers(sp):
            bs = BaseSubset(base, k)
            assert maximal_inexact_oracle(bs) == scan_maximal_inexact_oracle(bs)
            whole = list(bs.index_sets)
            collections = [(), whole[:1], whole]
            collections += [rng.sample(whole, rng.randint(1, len(whole))) for _ in range(6)]
            for collection in collections:
                got = covering_bases(bs, collection)
                want = scan_covering_bases(bs, collection)
                assert [(b.points, b.sigma) for b in got] == [(b.points, b.sigma) for b in want]


# Exactness questions read base_columns and the universe: covering_bases
# forms only the bases it returns, so enumerate_all_bases is neither called
# nor looked up, and no process that only asks them holds every base object.
@pytest.mark.parametrize("n,p", BASE_GRID)
def test_exactness_questions_build_no_base_objects(n, p):
    sp = SymplecticSpace.standard(n, p)
    before = enumerate_all_bases.cache_info()
    for base in (SymplecticBase.standard(sp), random_base(sp, "objects")):
        for k in layers(sp):
            bs = BaseSubset(base, k)
            for collection in ((), bs.index_sets[:1], type1_members(bs, 0), bs.index_sets):
                assert len(covering_bases(bs, collection)) in (1, 2)
                is_exact(bs, collection)
            maximal_inexact_oracle(bs)
    assert enumerate_all_bases.cache_info() == before


def test_universe_columns_are_built_once_on_first_use():
    sp = SymplecticSpace.standard(2, 3)
    bs = BaseSubset(random_base(sp, "lazy"), 1)
    subset_universe.cache_clear()
    universe_columns.cache_clear()
    try:
        for k in layers(sp):
            subset_universe(sp, k)
        assert universe_columns.cache_info().currsize == 0
        covering_bases(bs, bs.index_sets)
        maximal_inexact_oracle(bs)
        assert is_exact(bs, bs.index_sets)
        info = universe_columns.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    finally:
        subset_universe.cache_clear()
        universe_columns.cache_clear()


def test_member_mask_normalizes_base_points():
    sp = SymplecticSpace.standard(2, 3)
    base = random_base(sp, "scaled")
    scaled = SymplecticBase(sp, [vec_scale(2, x, sp.p) for x in base.points], base.sigma)
    for k in layers(sp):
        bs = BaseSubset(base, k)
        full = member_mask(bs, bs.index_sets)
        assert full == span_route_mask(base, k)
        assert member_mask(BaseSubset(scaled, k), bs.index_sets) == full
        with pytest.raises(DimensionError):
            member_mask(bs, [frozenset(range(k + 1)) | {sp.n}])


def test_indices_are_built_once(monkeypatch):
    sp = SymplecticSpace.standard(2, 3)
    bs = BaseSubset(random_base(sp, "once"), 1)
    calls = []

    def through_once(space, k):
        if calls:
            raise AssertionError("through_masks read twice")
        calls.append(k)
        return through_masks(space, k)

    monkeypatch.setattr(subsets, "through_masks", through_once)
    first = bs.indices()
    assert bs.indices() is first
    assert member_mask(bs, bs.index_sets) == sum(1 << i for i in first)
    assert calls == [1]


def test_member_mask_rejects_a_false_pairing():
    sp = SymplecticSpace.standard(2, 2)
    std = SymplecticBase.standard(sp)
    # positions 0 and 2 hold e_1 and f_1, which span no isotropic line
    wrong = SymplecticBase(sp, std.points, (1, 0, 3, 2))
    bs = BaseSubset(wrong, 1)
    with pytest.raises(RuntimeError, match="no single member"):
        member_mask(bs, [frozenset((0, 2))])


@pytest.mark.parametrize("n,p", ((2, 2), (2, 3)))
def test_common_base_all_pairs(n, p):
    sp = SymplecticSpace.standard(n, p)
    for k in layers(sp):
        g = grassmannian(sp, k)
        step = 1 if (n, p) == (2, 2) else max(1, len(g) // 9)
        elems = list(g)[::step]
        for a in elems:
            for b in elems:
                base = common_base(sp, a, b)
                assert is_symplectic_base(sp, base.points)
                members = subset_members(BaseSubset(base, k))
                assert a in members and b in members


def test_common_base_mixed_layers():
    sp = SymplecticSpace.standard(3, 2)
    g0 = grassmannian(sp, 0)
    g2 = grassmannian(sp, 2)
    for ai in range(0, len(g0), 13):
        for bi in range(0, len(g2), 41):
            a, b = g0[ai], g2[bi]
            base = common_base(sp, a, b)
            assert a in subset_members(BaseSubset(base, 0))
            assert b in subset_members(BaseSubset(base, 2))


def test_common_base_rejects_non_isotropic():
    sp = SymplecticSpace.standard(2, 2)
    bad = grassmannian(sp, 0)[0]
    from sympol.linalg import Subspace

    e1 = (1, 0, 0, 0)
    f1 = (0, 0, 1, 0)
    line = Subspace.span(2, 4, [e1, f1])
    with pytest.raises(DimensionError):
        common_base(sp, bad, line)


def test_complete_to_base_from_singles(small_space):
    sp = small_space
    base = SymplecticBase.standard(sp)
    singles = [base.points[i] for i in range(sp.n)]
    done = complete_to_base(sp, (), singles)
    assert is_symplectic_base(sp, done.points)
    for v in singles:
        assert v in done.points


def test_complete_to_base_rejects_degenerate():
    sp = SymplecticSpace.standard(2, 2)
    e1 = (1, 0, 0, 0)
    e2 = (0, 1, 0, 0)
    diag = (1, 1, 0, 0)
    with pytest.raises(DegenerateParameterError):
        complete_to_base(sp, (), [e1, e2, diag])


def test_size_formula_trichotomy():
    assert first_type_size(3, 1) == 8 and second_type_size(3, 1) == 7
    assert first_type_size(4, 2) == 20 and second_type_size(4, 2) == 20
    assert first_type_size(5, 3) == 48 and second_type_size(5, 3) == 52
    with pytest.raises(DimensionError):
        second_type_size(3, 0)


def test_size_formulas_match_families(small_space):
    sp = small_space
    for bs in subsets_of(sp):
        if bs.k < sp.n - 1:
            assert len(type1_members(bs, 0)) == first_type_size(sp.n, bs.k)
        if bs.k >= 1:
            assert len(type2_members(bs, 0, 1)) == second_type_size(sp.n, bs.k)


def test_complement_family_sizes(small_space):
    sp = small_space
    for bs in subsets_of(sp):
        whole = len(bs)
        for (kind, param), members in complement_family(bs):
            if kind == "first":
                assert len(members) == whole - first_type_size(sp.n, bs.k)
            else:
                assert len(members) == whole - second_type_size(sp.n, bs.k)
