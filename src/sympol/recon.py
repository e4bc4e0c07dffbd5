"""Recovering a point map from a layer map that respects base subsets.

A map between Grassmannian layers that carries base subsets to base
subsets already determines a map on points.  The functions here walk a
layer map down one dimension at a time through star intersections,
verify the transport facts that justify each step, and package the
resulting point map with a machine-checkable report.

descend and induce do no row reduction per map: the meet of a star's
images is the AND of their hyper_masks rows, and the member spanned by
a member's image points is the AND of their through_masks rows, each
accepted only when exactly one bit is left.  check_top_transport, the
check on each descent step, still lists every source member's
hyperplanes geometrically with hyperplanes_of (the coordinate
hyperplanes of GF(p)^m mapped through the member's rows, with no row
reduction), and reads the containment of each hyperplane's image off
the image member's hyper_masks row.  The final orthogonality check
compares ortho_masks rows through the point table
(PointMap.orthogonality_witness).
"""

from itertools import combinations

from sympol.bases import PointMap, SymplecticBase
from sympol.errors import (
    DescentError,
    DimensionError,
    MapCheckError,
    ReconstructionError,
    RecognitionError,
    SpaceMismatchError,
)
from sympol.grassmann import (
    Grassmannian,
    adjacency_masks,
    grassmannian,
    hyper_masks,
    hyperplanes_of,
    star_table,
    through_masks,
)
from sympol.linalg import Subspace
from sympol.subsets import (
    BaseSubset,
    base_subset_size,
    distinct_complements,
    incident_members,
    is_exact,
    maximal_inexact_families,
    type1_members,
)
from sympol.bases import recognize


class GrassmannianMap:
    """Total map between two Grassmannian layers, stored by element index."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: Grassmannian, target: Grassmannian, table):
        if (source.space.n, source.space.p) != (target.space.n, target.space.p):
            raise SpaceMismatchError(
                f"source {source.space!r} vs target {target.space!r}"
            )
        if source.k != target.k:
            raise DimensionError("source and target must be the same layer")
        table = tuple(table)
        if len(table) != len(source):
            raise MapCheckError(f"table must cover all {len(source)} source elements")
        for j in table:
            if not 0 <= j < len(target):
                raise MapCheckError(f"table value {j} out of range")
        self.source = source
        self.target = target
        self.table = table

    @classmethod
    def identity(cls, gr: Grassmannian) -> "GrassmannianMap":
        return cls(gr, gr, range(len(gr)))

    @classmethod
    def from_callable(cls, source, target, fn) -> "GrassmannianMap":
        """Tabulate fn over the source elements; images must hit the layer."""
        table = []
        for s in source.elements:
            j = target.index_of(fn(s))
            if j is None:
                raise MapCheckError("callable image left the layer", witness=s)
            table.append(j)
        return cls(source, target, table)

    def apply(self, s: Subspace) -> Subspace:
        i = self.source.index_of(s)
        if i is None:
            raise DimensionError("argument is not a source element")
        return self.target.elements[self.table[i]]

    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def __eq__(self, other):
        return (
            isinstance(other, GrassmannianMap)
            and self.source.space == other.source.space
            and self.target.space == other.target.space
            and self.source.k == other.source.k
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.source.space, self.target.space, self.source.k, self.table))

    def __repr__(self):
        return (
            f"GrassmannianMap(k={self.source.k}, {self.source.space!r}, "
            f"{len(self.table)} elements)"
        )


def _single_bit(mask):
    """The index of the one set bit of mask, or None for any other mask."""
    if mask > 0 and not mask & (mask - 1):
        return mask.bit_length() - 1
    return None


def induce(h: PointMap, k) -> GrassmannianMap:
    """Layer map sending each member to the span of its points' images.

    Bit m of the AND of the through_masks rows of the image points is set
    exactly when member m holds them all.  A totally isotropic span of
    pdim k is the one such member; a smaller one lies in at least p + 1,
    and a larger or non-isotropic one in none, so any count other than
    one means the image left the layer.
    """
    source = grassmannian(h.source, k)
    target = grassmannian(h.target, k)
    index = h.target.point_index()
    through = through_masks(h.target, k)
    table = []
    for s in source.elements:
        mask = -1
        for pt in s.points():
            mask &= through[index[h.apply(pt)]]
        j = _single_bit(mask)
        if j is None:
            raise MapCheckError("induced image left the layer", witness=s)
        table.append(j)
    return GrassmannianMap(source, target, table)


def identify_base_subset(space, k, members) -> SymplecticBase:
    """Recover the spanning base from a claimed base subset.

    Candidate points are the members themselves at the point layer and
    the pdim-0 pairwise intersections above it.  Recognition validates
    the non-orthogonality pairing, then regeneration confirms that the
    candidate base spans exactly the given members.
    """
    members = list(members)
    expected = base_subset_size(space.n, k)
    if len(set(members)) != expected:
        raise RecognitionError("size", f"{len(set(members))} members, expected {expected}")
    if k == 0:
        candidates = {m.rows[0] for m in members}
    else:
        candidates = set()
        for a, b in combinations(members, 2):
            meet = a.intersect(b)
            if meet.vdim == 1:
                candidates.add(meet.rows[0])
    if len(candidates) != space.dim:
        raise RecognitionError("points", f"{len(candidates)} candidate points, expected {space.dim}")
    points = tuple(sorted(candidates))
    sigma = recognize(space, points)
    base = SymplecticBase(space, points, sigma)
    bs = BaseSubset(base, k)
    if {bs.subspace(i).rows for i in bs.index_sets} != {m.rows for m in members}:
        raise RecognitionError("regeneration", "candidate base spans a different member list")
    return base


def image_base(f: GrassmannianMap, base: SymplecticBase) -> SymplecticBase:
    """The base spanned by the image of the base's layer subset."""
    bs = BaseSubset(base, f.source.k)
    images = [f.apply(bs.subspace(i)) for i in bs.index_sets]
    if len(set(images)) != len(images):
        raise RecognitionError("collapse", "two members share an image")
    return identify_base_subset(f.target.space, f.source.k, images)


def check_base_preservation(f: GrassmannianMap, bases):
    """Image bases for each given base; recognition failures propagate."""
    return tuple(image_base(f, base) for base in bases)


def check_adjacency_preservation(f: GrassmannianMap, pairs=None, limit=5):
    """Adjacency, and below the top layer ortho-adjacency, both ways.

    Every unordered element pair is compared by default.  Returns the
    mismatches found, capped at the limit; an empty tuple is a pass.
    """
    source, target, table = f.source, f.target, f.table
    below_top = source.k < source.space.n - 1
    src_adj, src_ortho = adjacency_masks(source.space, source.k)
    tgt_adj, tgt_ortho = adjacency_masks(target.space, target.k)
    size = len(source)
    if pairs is None:
        pairs = combinations(range(size), 2)
    bad = []
    for i, j in pairs:
        if not (0 <= i < size and 0 <= j < size):
            raise IndexError(f"pair ({i}, {j}) outside 0..{size - 1}")
        a, b = table[i], table[j]
        sa, ta = bool(src_adj[i] >> j & 1), bool(tgt_adj[a] >> b & 1)
        if sa != ta:
            bad.append((i, j, "adjacent", sa, ta))
        elif below_top:
            so, to = bool(src_ortho[i] >> j & 1), bool(tgt_ortho[a] >> b & 1)
            if so != to:
                bad.append((i, j, "ortho", so, to))
        if len(bad) >= limit:
            break
    return tuple(bad)


def _push(f, bs, into, collection):
    return frozenset(into.index_set_of(f.apply(bs.subspace(i))) for i in collection)


def type1_position_map(f: GrassmannianMap, base: SymplecticBase):
    """Position bijection read off the first-type families, for k < n - 1.

    Position i goes to the position whose first-type family in the
    image subset is the image of the one at i.
    """
    space = f.source.space
    if f.source.k >= space.n - 1:
        raise DimensionError("first-type families are maximal only below the top layer")
    bs = BaseSubset(base, f.source.k)
    other = image_base(f, base)
    bs2 = BaseSubset(other, f.source.k)
    targets = {type1_members(bs2, i): i for i in range(space.dim)}
    pi = []
    for i in range(space.dim):
        hit = targets.get(_push(f, bs, bs2, type1_members(bs, i)))
        if hit is None:
            raise MapCheckError("first-type family has no image position", witness=i)
        pi.append(hit)
    if len(set(pi)) != space.dim:
        raise MapCheckError("first-type transport is not a bijection", witness=tuple(pi))
    return tuple(pi)


def check_span_transport(f: GrassmannianMap, base: SymplecticBase) -> int:
    """Members inside each span of k + 2 positions map onto the members
    inside the transported span; returns the number of spans checked."""
    space = f.source.space
    k = f.source.k
    pi = type1_position_map(f, base)
    bs = BaseSubset(base, k)
    bs2 = BaseSubset(image_base(f, base), k)
    count = 0
    for combo in combinations(range(space.dim), k + 2):
        got = _push(f, bs, bs2, incident_members(bs, combo))
        if got != incident_members(bs2, frozenset(pi[x] for x in combo)):
            raise MapCheckError("span incidence does not transport", witness=combo)
        count += 1
    return count


def check_family_transport(f: GrassmannianMap, base: SymplecticBase):
    """Maximal inexact families and complements transport with their types.

    Set equality of the labelled image families against the image
    subset's own families covers both directions at once.
    """
    bs = BaseSubset(base, f.source.k)
    bs2 = BaseSubset(image_base(f, base), f.source.k)
    got = {(label[0], _push(f, bs, bs2, members)) for label, members in maximal_inexact_families(bs)}
    want = {(label[0], members) for label, members in maximal_inexact_families(bs2)}
    if got != want:
        raise MapCheckError("maximal inexact families do not transport")
    got_c = {_push(f, bs, bs2, members) for members in distinct_complements(bs)}
    want_c = set(distinct_complements(bs2))
    if got_c != want_c:
        raise MapCheckError("complement subsets do not transport")
    return {"families": len(got), "complements": len(got_c)}


def check_exactness_transport(f: GrassmannianMap, base: SymplecticBase, collections) -> int:
    """Exactness agrees across the map on every given collection.

    Decided by the exhaustive covering test on both sides, so the
    feasibility grid for base enumeration applies.
    """
    bs = BaseSubset(base, f.source.k)
    bs2 = BaseSubset(image_base(f, base), f.source.k)
    checked = 0
    for collection in collections:
        image = _push(f, bs, bs2, collection)
        if is_exact(bs, collection) != is_exact(bs2, image):
            raise MapCheckError("exactness is not preserved", witness=sorted(map(sorted, collection)))
        checked += 1
    return checked


def descend(f: GrassmannianMap) -> GrassmannianMap:
    """Map one layer down by intersecting the images of each star.

    The images of all members through a fixed pdim k - 1 subspace have
    a unique pdim k - 1 subspace in common, which becomes the image;
    star containment on the image side then holds by construction.  The
    common hyperplanes of the images are the AND of their hyper_masks
    rows.  The meet of totally isotropic images is totally isotropic, so
    it is a member of G_(k-1) exactly when that AND has one bit, and any
    other count raises DescentError.
    """
    k = f.source.k
    if k < 1:
        raise DimensionError("already at the point layer")
    space = f.source.space
    src_low = grassmannian(space, k - 1)
    tgt_low = grassmannian(f.target.space, k - 1)
    hyper = hyper_masks(f.target.space, k)
    image = f.table
    table = []
    for mi, star in enumerate(star_table(space, k, None)):
        mask = -1
        for si in star:
            mask &= hyper[image[si]]
        j = _single_bit(mask)
        if j is None:
            raise DescentError(
                "star images share the wrong dimension", level=k - 1, witness=src_low.elements[mi]
            )
        table.append(j)
    return GrassmannianMap(src_low, tgt_low, table)


def check_top_transport(f: GrassmannianMap, g: GrassmannianMap) -> int:
    """Images of a member's hyperplanes stay inside the member's image.

    The hyperplanes of each source member are listed geometrically by
    hyperplanes_of.  A totally isotropic image of pdim k - 1 lies in the
    member's image of pdim k exactly when it is one of that image's
    hyperplanes, so containment is one bit of the image's hyper_masks
    row.  Returns the number of (member, hyperplane) pairs checked.

    Inside reconstruct this check cannot fail when star_table is
    correct: descend maps each m to the one hyperplane shared by the
    images of m's star, and s contains m exactly when s lies in that
    star, so every bit tested here is set by construction.  It stays as
    a check of descend against the geometric hyperplanes; dropping or
    replacing it waits on the benchmark change that stops requiring
    per-op hyperplanes_of calls in the traced roundtrip run.
    """
    hyper = hyper_masks(f.target.space, f.target.k)
    count = 0
    for ni, s in enumerate(f.source.elements):
        row = hyper[f.table[ni]]
        for m in hyperplanes_of(s):
            if not row >> g.table[g.source.index_of(m)] & 1:
                raise DescentError(
                    "hyperplane image escapes the member image", level=g.source.k, witness=(s, m)
                )
            count += 1
    return count


def reconstruct(f: GrassmannianMap, check_bases=()):
    """Walk a layer map down to points and package the verified result.

    The standard base plus any bases in check_bases run through every
    verification pass: base subsets must keep mapping to base subsets
    on each level, hyperplane images must stay inside member images,
    the final point table must respect orthogonality in both
    directions, and inducing it back up must reproduce the input.
    Returns (point_map, certificate); certificate levels record the
    checks run.  Failures raise ReconstructionError carrying the
    certificate with the violated check named at its level.
    """
    space = f.source.space
    bases = (SymplecticBase.standard(space),) + tuple(check_bases)
    records = []
    report = {"space": space.header(), "k": f.source.k, "levels": records, "pass": False}

    def record(level):
        for rec in records:
            if rec["level"] == level:
                return rec
        rec = {"level": level, "checks": [], "pass": True}
        records.append(rec)
        return rec

    def fail(level, name, exc):
        rec = record(level)
        rec["checks"].append({"name": name, "pass": False, "witness": str(exc)})
        rec["pass"] = False
        raise ReconstructionError(f"{name} failed at level {level}: {exc}", report) from exc

    def passed(level, name, count):
        record(level)["checks"].append({"name": name, "count": count, "pass": True})

    try:
        check_base_preservation(f, bases)
    except RecognitionError as exc:
        fail(f.source.k, "base-subsets-preserved", exc)
    passed(f.source.k, "base-subsets-preserved", len(bases))
    g = f
    while g.source.k > 0:
        level = g.source.k - 1
        try:
            lower = descend(g)
        except DescentError as exc:
            fail(level, "star-intersection-dimension", exc)
        passed(level, "star-intersections", len(lower.source))
        try:
            hyper = check_top_transport(g, lower)
        except DescentError as exc:
            fail(level, "hyperplane-containment", exc)
        passed(level, "hyperplane-containment", hyper)
        try:
            check_base_preservation(lower, bases)
        except RecognitionError as exc:
            fail(level, "base-subsets-preserved", exc)
        passed(level, "base-subsets-preserved", len(bases))
        g = lower
    table = {
        s.rows[0]: g.target.elements[g.table[i]].rows[0]
        for i, s in enumerate(g.source.elements)
    }
    try:
        h = PointMap(space, f.target.space, table)
    except MapCheckError as exc:
        fail(0, "point-table", exc)
    if not h.preserves_orthogonality():
        fail(0, "orthogonality-both-ways", MapCheckError(f"pair {h.orthogonality_witness()}"))
    passed(0, "orthogonality-both-ways", len(table) * (len(table) - 1) // 2)
    try:
        for base in bases:
            h.apply_base(base)
    except RecognitionError as exc:
        fail(0, "bases-to-bases", exc)
    passed(0, "bases-to-bases", len(bases))
    try:
        back = induce(h, f.source.k)
    except MapCheckError as exc:
        fail(0, "induced-map-equality", exc)
    if back != f:
        fail(0, "induced-map-equality", MapCheckError("tables differ"))
    passed(0, "induced-map-equality", len(f.table))
    report["pass"] = True
    return h, report
