"""Base subsets of an isotropic Grassmannian and their inexact structure.

A symplectic base spans a finite family of totally isotropic subspaces
in each Grassmannian layer.  This module builds those families by index
bookkeeping, decides which subcollections pin down the spanning base,
and constructs the maximal collections that do not, together with their
complements and the counting invariants attached to both.

The exactness oracle is exhaustive over subset_universe, every base
subset of a layer as a bitmask.  Each mask is a threshold count over
through_masks rows: a totally isotropic member holds at most one point
of each partner pair, since partners are non-orthogonal, and at most
k + 1 of the independent base points, exactly k + 1 only as their span.
So a member lies in the base subset exactly when it meets k + 1 of the
n partner-pair unions, and no index set is visited per base.  The
count reads the index columns of base_columns one pair position at a
time, as whole-list passes over blocks of bases, so no Python loop
visits a base and no base object is needed; the blocks bound the
memory the count holds at once.  The oracle reads the universe by
member, through universe_columns, its transpose built on first use:
covering_bases is one AND per member of the collection, and
maximal_inexact_oracle splits the set of every base once per home
member, so neither loops over the bases.  Neither reads
enumerate_all_bases either: covering_bases forms the at most two bases
it returns by base_from_row, the helper behind that lazy sequence, so an
exactness question makes no other base object.

BaseSubset.indices is the one route from a base's index sets to their
G_k indices, built once per BaseSubset: the span of k + 1 base points
is the only member holding all of them, so its index is the one bit
left in the AND of their through_masks rows.  member_mask, the oracle
and every caller outside this module read members off it.
BaseSubset.subspace row reduces the points instead and builds no
layer.  certify_inexact compares spans through it, so it runs on any
grid, however large G_k is; the tests' geometric oracles use it too.
"""

from functools import lru_cache
from itertools import combinations, islice
from math import comb
from operator import and_, or_

from sympol.bases import SymplecticBase, base_columns, base_from_row, perturb_pair
from sympol.errors import DegenerateParameterError, DimensionError
from sympol.grassmann import grassmannian_size, through_masks
from sympol.linalg import (
    Subspace,
    extend_basis,
    normalize_point,
    solve_particular,
    vec_add,
    vec_scale,
)
from sympol.space import SymplecticSpace, bits, meet, single_bit
from sympol._kernels import nullspace


def base_subset_size(n, k):
    """Member count of any base subset of the layer-k Grassmannian."""
    return 2 ** (k + 1) * comb(n, k + 1)


@lru_cache(maxsize=None)
def admissible_index_sets(sigma, k):
    """All (k+1)-subsets of base positions containing no partner pair.

    Memoized on the sigma tuple, which every enumerated base shares.
    """
    d = len(sigma)
    out = []
    for combo in combinations(range(d), k + 1):
        chosen = set(combo)
        if all(sigma[i] not in chosen for i in combo):
            out.append(frozenset(combo))
    return tuple(out)


class BaseSubset:
    """Members of the layer-k Grassmannian spanned by points of one base.

    A member is recorded by its index set, the k+1 positions whose
    points span it.  Partner positions never share an index set, and
    distinct index sets give distinct members because the base points
    are linearly independent, so the index sets are a faithful catalog.
    """

    __slots__ = ("base", "k", "index_sets", "_position", "_indices")

    def __init__(self, base: SymplecticBase, k: int):
        n = base.space.n
        if not 0 <= k <= n - 1:
            raise DimensionError(f"layer must lie in 0..{n - 1}, got {k}")
        self.base = base
        self.k = k
        self.index_sets = admissible_index_sets(base.sigma, k)
        self._position = {s: i for i, s in enumerate(self.index_sets)}
        self._indices = None

    def __len__(self):
        return len(self.index_sets)

    def __iter__(self):
        return iter(self.index_sets)

    def __contains__(self, index_set):
        return index_set in self._position

    def subspace(self, index_set) -> Subspace:
        """The member spanned by the points at the given positions.

        Row reduces the points on every call.  This is the geometric
        route, for certify_inexact and the tests' oracles, and it builds
        no Grassmannian layer; the G_k index of a member comes from
        indices.
        """
        if index_set not in self._position:
            raise DimensionError(f"not a member index set: {sorted(index_set)}")
        space = self.base.space
        return Subspace.span(space.p, space.dim, [self.base.points[i] for i in index_set])

    def indices(self):
        """The G_k index of every member, aligned with index_sets.

        The span of an index set is the only member of G_k holding all
        k+1 of its base points, so its index is the one bit of the AND
        of their through_masks rows.  Built on the first call and kept.
        """
        if self._indices is None:
            space = self.base.space
            through = through_masks(space, self.k)
            index = space.point_index()
            rows = [through[index[normalize_point(x, space.p)]] for x in self.base.points]
            out = []
            for positions in self.index_sets:
                j = single_bit(meet(rows, positions))
                if j is None:
                    raise RuntimeError(
                        f"positions {sorted(positions)} span no single member of G_{self.k}"
                    )
                out.append(j)
            self._indices = tuple(out)
        return self._indices

    def select(self, plus=(), minus=()):
        """Members through every plus position avoiding every minus one."""
        plus = frozenset(plus)
        minus = frozenset(minus)
        return frozenset(i for i in self.index_sets if plus <= i and not (minus & i))


def incident_members(bs: BaseSubset, positions):
    """Members comparable with the span of the given positions."""
    outer = frozenset(positions)
    return frozenset(i for i in bs.index_sets if i <= outer or outer <= i)


def meet_at(collection, i):
    """Index form of the intersection of the members through position i.

    Returns None when no member of the collection passes through i; the
    geometric intersection is empty in that case, never otherwise.
    """
    acc = None
    for index_set in collection:
        if i in index_set:
            acc = index_set if acc is None else acc & index_set
    return acc


def inexactness_witness(bs: BaseSubset, collection):
    """A position pair (i, j) certifying a second covering subset, or None.

    The certificate needs j distinct from i and its partner, j inside
    the meet at i, and the partner of i inside the meet at the partner
    of j.  Sliding the point at i along the line to j then leaves room
    to retune the point at the partner of j, giving a different base
    whose subset still covers the collection.
    """
    sigma = bs.base.sigma
    d = len(sigma)
    meets = [meet_at(collection, i) for i in range(d)]
    for i in range(d):
        if meets[i] is None:
            continue
        for j in sorted(meets[i]):
            if j == i or j == sigma[i]:
                continue
            other = meets[sigma[j]]
            if other is not None and sigma[i] in other:
                return (i, j)
    return None


def certify_inexact(bs: BaseSubset, collection):
    """Build the second base promised by an inexactness witness.

    Returns (i, j, base) where the base is the home one with p_i moved
    to p_i + p_j and the partner of j moved to compensate, yet its
    subset covers the collection; None when no witness is found.
    """
    witness = inexactness_witness(bs, collection)
    if witness is None:
        return None
    i, j = witness
    other = perturb_pair(bs.base, i, j)
    cover = BaseSubset(other, bs.k)
    covered = {cover.subspace(t).rows for t in cover.index_sets}
    for index_set in collection:
        if bs.subspace(index_set).rows not in covered:
            raise RuntimeError("witness base fails to cover the collection")
    return (i, j, other)


def type1_members(bs: BaseSubset, i):
    """First-type family: every member avoiding position i."""
    return bs.select(minus=(i,))


def type2_members(bs: BaseSubset, i, j):
    """Second-type family for a position pair with j not i or its partner.

    Union of the members through both i and j, those through both
    partners, and those avoiding i and the partner of j.  Inexact in
    every layer; maximal precisely when k >= 1.
    """
    sigma = bs.base.sigma
    if j == i or j == sigma[i]:
        raise DegenerateParameterError(f"second-type parameters need j outside ({i}, {sigma[i]})")
    return (
        bs.select(plus=(i, j))
        | bs.select(plus=(sigma[i], sigma[j]))
        | bs.select(minus=(i, sigma[j]))
    )


def ordered_type2_params(sigma):
    d = len(sigma)
    return tuple((i, j) for i in range(d) for j in range(d) if j != i and j != sigma[i])


def canonical_type2(sigma, i, j):
    """Smaller of (i, j) and its partner-swapped twin, which spans the
    same second-type family."""
    return min((i, j), (sigma[j], sigma[i]))


def maximal_inexact_families(bs: BaseSubset):
    """Constructed maximal inexact subsets, one entry per distinct set.

    First-type entries ("first", i) exist for k < n - 1, second-type
    entries ("second", (i, j)) for k >= 1 under canonical parameters.
    """
    space = bs.base.space
    sigma = bs.base.sigma
    out = []
    if bs.k < space.n - 1:
        out.extend((("first", i), type1_members(bs, i)) for i in range(space.dim))
    if bs.k >= 1:
        for i, j in ordered_type2_params(sigma):
            if (i, j) == canonical_type2(sigma, i, j):
                out.append((("second", (i, j)), type2_members(bs, i, j)))
    return tuple(out)


def complement_type1(bs: BaseSubset, i):
    """Complement of the first-type family: members through position i."""
    return bs.select(plus=(i,))


def complement_type2(bs: BaseSubset, i, j):
    """Complement of the second-type family for (i, j).

    Members through i avoiding j joined with members through the
    partner of j avoiding the partner of i; the two blocks overlap.
    """
    sigma = bs.base.sigma
    if j == i or j == sigma[i]:
        raise DegenerateParameterError(f"second-type parameters need j outside ({i}, {sigma[i]})")
    return bs.select(plus=(i,), minus=(j,)) | bs.select(plus=(sigma[j],), minus=(sigma[i],))


def complement_family(bs: BaseSubset):
    """Complement subsets labelled by their defining parameters.

    Second-type entries run over ordered pairs, so each such set
    appears once as (i, j) and once as the partner-swapped twin; the
    disjointness degrees below follow this parameter count.
    """
    space = bs.base.space
    sigma = bs.base.sigma
    out = []
    if bs.k < space.n - 1:
        out.extend((("first", i), complement_type1(bs, i)) for i in range(space.dim))
    if bs.k >= 1:
        out.extend(
            (("second", (i, j)), complement_type2(bs, i, j))
            for i, j in ordered_type2_params(sigma)
        )
    return tuple(out)


def disjointness_degrees(bs: BaseSubset):
    """How many other complement-family entries each entry misses entirely."""
    fam = complement_family(bs)
    return tuple(
        (label, sum(1 for other, members2 in fam if other != label and not (members & members2)))
        for label, members in fam
    )


def distinct_complements(bs: BaseSubset):
    """Deduplicated complement subsets in a canonical order."""
    seen = {}
    for _, members in complement_family(bs):
        seen.setdefault(members, None)
    return tuple(sorted(seen, key=_collection_key))


def common_complement_count(bs: BaseSubset, sa, ua) -> int:
    """Number of distinct complement subsets containing both members."""
    sa = frozenset(sa)
    ua = frozenset(ua)
    for index_set in (sa, ua):
        if index_set not in bs:
            raise DimensionError(f"not a member index set: {sorted(index_set)}")
    return sum(1 for members in distinct_complements(bs) if sa in members and ua in members)


def first_type_size(n, k):
    """Member count of a first-type maximal inexact subset."""
    return base_subset_size(n, k) - 2**k * comb(n - 1, k)


def second_type_size(n, k):
    """Member count of a second-type maximal inexact subset, k >= 1.

    The three defining blocks are pairwise disjoint; the two through-
    blocks share a size and the avoiding block follows by inclusion and
    exclusion.
    """
    if k < 1:
        raise DimensionError("second-type families are maximal only for k >= 1")
    through = 2 ** (k - 1) * comb(n - 2, k - 1)
    avoiding = base_subset_size(n, k) - 2 ** (k + 1) * comb(n - 1, k) + through
    return 2 * through + avoiding


def _collection_key(collection):
    return tuple(sorted(tuple(sorted(i)) for i in collection))


def member_mask(bs: BaseSubset, collection) -> int:
    """Bitmask of a collection in the Grassmannian index order."""
    collection = tuple(collection)
    for index_set in collection:
        if index_set not in bs:
            raise DimensionError(f"not a member index set: {sorted(index_set)}")
    indices = bs.indices()
    mask = 0
    for index_set in collection:
        mask |= 1 << indices[bs._position[index_set]]
    return mask


# Bases per pass of subset_universe's count.  A pass over whole columns
# would hold up to k + 2 lists of masks for every base at once; blocks
# of this size cap that memory and change no result.
UNIVERSE_BLOCK = 1024


@lru_cache(maxsize=None)
def subset_universe(space: SymplecticSpace, k):
    """Bitmask of every base subset of the layer, one per symplectic base.

    Aligned with enumerate_all_bases and read off its base_columns, so
    the same feasibility grid applies, and it is checked before any
    layer is built.  Read off as a threshold count, with no loop over
    index sets: partners are non-orthogonal, so a totally isotropic
    member holds at most one point of each partner pair, and the 2n base
    points are independent, so a member of G_k holds at most k + 1 of
    them and holds exactly k + 1 only when it is their span.  A member
    therefore lies in the base subset exactly when it meets k + 1 of the
    n pair unions through[a] | through[sigma a]; a running counter
    k + 1 deep over those rows gives the mask.  The unions are tabulated
    once per call, for every non-orthogonal index pair a < b, since
    column entries are point indices.  The count runs one pair position
    at a time, each step one map over a block of bases, so no Python
    loop visits a base; blocks of UNIVERSE_BLOCK bases keep the
    counter's lists short.
    """
    columns = base_columns(space)
    through = through_masks(space, k)
    ortho = space.ortho_masks()
    full = (1 << len(ortho)) - 1
    unions = {}
    for a, row in enumerate(through):
        for b in bits((full ^ ortho[a]) >> (a + 1) << (a + 1)):
            unions[a, b] = row | through[b]
    union_of = unions.__getitem__
    n = space.n
    size = base_subset_size(n, k)
    masks = []
    for start in range(0, len(columns[0]), UNIVERSE_BLOCK):
        stop = start + UNIVERSE_BLOCK
        # at_least[j]: members meeting at least j + 1 pair unions so far.
        # Pair q sets entry q, empty until then, and skips each entry
        # that the n - q - 1 pairs left can no longer lift to entry k.
        at_least = [None] * (k + 1)
        for q in range(n):
            row = list(map(union_of, zip(columns[q][start:stop], columns[n + q][start:stop])))
            for j in range(min(q, k), max(0, k + q + 1 - n) - 1, -1):
                below = list(map(and_, at_least[j - 1], row)) if j else row
                at_least[j] = below if j == q else list(map(or_, at_least[j], below))
        counts = list(map(int.bit_count, at_least[k]))
        if counts.count(size) != len(counts):
            offset, count = next((t, c) for t, c in enumerate(counts) if c != size)
            raise RuntimeError(f"base {start + offset} meets {count} members of G_{k}, not {size}")
        masks += at_least[k]
    return tuple(masks)


@lru_cache(maxsize=None)
def universe_columns(space: SymplecticSpace, k):
    """subset_universe transposed: entry m masks the bases holding member m.

    Bit b of entry m is set exactly when bit m of subset_universe(space,
    k)[b] is, so b runs over enumerate_all_bases positions.  Built on
    first use, from the universe rather than from points, by bit planes.
    Each mask is laid out as width little-endian bytes.  Lane i of byte
    j reads byte j of the bases at positions i, i + 8, i + 16, ... as
    one int, so byte g of lane i belongs to base 8g + i.  The entry of
    member 8j + t moves bit t of each such byte to bit 8g + i.
    """
    universe = subset_universe(space, k)
    members = grassmannian_size(space.n, space.p, k)
    width = (members + 7) // 8
    groups = (len(universe) + 7) // 8
    blob = bytearray()
    for mask in universe:
        blob += mask.to_bytes(width, "little")
    blob += bytes(8 * groups * width - len(blob))
    ones = int.from_bytes(b"\1" * groups, "little")
    columns = []
    for j in range(width):
        lanes = [
            (int.from_bytes(blob[j + i * width :: 8 * width], "little") << i, ones << i)
            for i in range(8)
        ]
        for t in range(min(8, members - 8 * j)):
            column = 0
            for lane, keep in lanes:
                column |= (lane >> t) & keep
            columns.append(column)
    return tuple(columns)


def covering_bases(bs: BaseSubset, collection):
    """Up to two bases, the first in enumeration order, whose layer
    subset covers the collection.

    Still exhaustive: the AND of the collection's universe_columns
    entries masks every base whose subset covers it, and its two lowest
    bits name the first two.  The home base always qualifies, so a
    second one certifies that the collection is inexact.  Only the
    returned bases are formed, by base_from_row from their rows of
    base_columns, as enumerate_all_bases forms a base when it is read;
    no other base object is made.
    """
    space = bs.base.space
    columns = base_columns(space)
    covers = universe_columns(space, bs.k)
    # meet is -1 over an empty collection, so keep only real bases
    hits = meet(covers, bits(member_mask(bs, collection))) & ((1 << len(columns[0])) - 1)
    return tuple(
        base_from_row(space, [column[b] for column in columns]) for b in islice(bits(hits), 2)
    )


def is_exact(bs: BaseSubset, collection) -> bool:
    """Exactness decided by exhaustion over every base subset."""
    return len(covering_bases(bs, collection)) == 1


def maximal_inexact_oracle(bs: BaseSubset):
    """Every maximal inexact subset, by exhaustion over the universe.

    An inexact collection grows to the intersection of the home subset
    with any other covering subset, so the maximal inexact subsets are
    exactly the maximal proper intersections.  Still exhaustive: the set
    of every base is split once by the universe_columns entry of each
    home member, so each base lands in exactly one part, and the home
    members a part's bases share are its value of home & cover.
    """
    space = bs.base.space
    columns = universe_columns(space, bs.k)
    member_of = dict(zip(bs.indices(), bs.index_sets))
    # (bases, home members their subsets hold), refined one member at a time
    parts = [((1 << len(subset_universe(space, bs.k))) - 1, 0)]
    for m in member_of:
        split = []
        for bases, shared in parts:
            inside = bases & columns[m]
            if inside:
                split.append((inside, shared | 1 << m))
            if inside != bases:
                split.append((bases ^ inside, shared))
        parts = split
    home = sum(1 << i for i in member_of)
    seen = {shared for _, shared in parts}
    seen.discard(home)
    keep = []
    for mask in sorted(seen, key=lambda m: -m.bit_count()):
        if not any(mask | kept == kept for kept in keep):
            keep.append(mask)
    collections = (frozenset(member_of[b] for b in bits(mask)) for mask in keep)
    return tuple(sorted(collections, key=_collection_key))


def complete_to_base(space: SymplecticSpace, pairs, singles) -> SymplecticBase:
    """Grow a partial symplectic configuration into a full base.

    pairs holds (x, y) with omega(x, y) nonzero; singles are isotropic.
    Every other inner product among the supplied vectors must vanish
    and the vectors must be independent.  Partners for the singles come
    from solving the form conditions directly; each solution is
    automatically independent because its single is orthogonal to
    everything already placed.
    """
    p = space.p
    d = space.dim
    pairs = [tuple(pair) for pair in pairs]
    singles = [tuple(v) for v in singles]
    while len(pairs) < space.n:
        if not singles:
            rows = [space.form_row(v) for pair in pairs for v in pair]
            singles.append(nullspace(tuple(rows), d, p)[0])
        first = singles.pop()
        rest = [v for pair in pairs for v in pair] + singles
        rows = [space.form_row(v) for v in (first, *rest)]
        partner = solve_particular(rows, (1,) + (0,) * len(rest), p, d)
        if partner is None:
            raise DegenerateParameterError("supplied vectors are not a symplectic configuration")
        pairs.append((first, partner))
    points = tuple(x for x, _ in pairs) + tuple(y for _, y in pairs)
    return SymplecticBase.from_points(space, points)


def common_base(space: SymplecticSpace, s: Subspace, u: Subspace) -> SymplecticBase:
    """A symplectic base spanning two given totally isotropic subspaces.

    Splits their sum into the shared part, symplectically paired
    complements and orthogonal leftovers, then completes to a base.
    """
    for target in (s, u):
        if not space.is_totally_isotropic(target):
            raise DimensionError("common base needs totally isotropic subspaces")
    p = space.p
    d = space.dim
    shared = s.intersect(u)
    left = extend_basis(shared.rows, s.rows, p, d)
    right = extend_basis(shared.rows, u.rows, p, d)
    pairs = []
    while True:
        hit = next(((x, y) for x in left for y in right if space.omega(x, y)), None)
        if hit is None:
            break
        x, y = hit
        left.remove(x)
        right.remove(y)
        y = vec_scale(pow(space.omega(x, y), -1, p), y, p)
        left = [vec_add(a, vec_scale(-space.omega(a, y), x, p), p) for a in left]
        right = [vec_add(b, vec_scale(-space.omega(x, b), y, p), p) for b in right]
        pairs.append((x, y))
    base = complete_to_base(space, pairs, list(shared.rows) + left + right)
    for target in (s, u):
        inside = [pt for pt in base.points if target.contains_vector(pt)]
        if Subspace.span(p, d, inside) != target:
            raise RuntimeError("completed base lost an input subspace")
    return base
