"""Recovering a point map from a layer map that respects base subsets.

A map between Grassmannian layers that carries base subsets to base
subsets already determines a map on points.  The functions here walk a
layer map down one dimension at a time through star intersections,
verify the transport facts that justify each step, and package the
resulting point map with a machine-checkable report.

descend and induce do no row reduction per map: the meet of a star's
images is the AND of their hyper_masks rows, and the member spanned by
a member's image points is the AND of their through_masks rows, each
accepted only when exactly one bit is left.  induce reads the image
point indices off the point table h.to, and each member's points off
member_points, built once per (space, k), so it enumerates no member's
points per map.  check_top_transport, the check on each descent step,
reads each source member's hyperplanes off hyperplane_table, built once
per (space, k).  At k = 1 its rows are member_points(space, 1), since
a line's hyperplanes are its points; above that it lists them
geometrically with hyperplanes_of: the coordinate hyperplanes of
GF(p)^m, named by point indices, read off the member's points(), with
no sort or row reduction per member.  It reads the containment of each
hyperplane's image off the image member's hyper_masks row.
reconstruct's point table is the G_0 map's table, since G_0 lists the
points in all_points() order, and the final orthogonality check pulls
each target ortho_masks row back through it and compares it with the
source row (PointMap.orthogonality_witness).

Base subsets are named by G_k index alone.  BaseSubset.indices gives
the G_k index of each member of a base's layer subset, so image_base
hands the f.table images of those indices to identify_base_subset, whose
regeneration check compares index sets, and the transport checks push
index sets through one table built per (f, base).  No member is spanned
per map; only the candidate points of identify_base_subset still come
from pairwise Subspace.intersect of the layer's elements.
"""

from functools import lru_cache
from itertools import combinations

from sympol.bases import PointMap, SymplecticBase, recognize
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
    member_points,
    star_table,
    through_masks,
)
from sympol.space import meet, single_bit
from sympol.subsets import (
    BaseSubset,
    base_subset_size,
    distinct_complements,
    incident_members,
    is_exact,
    maximal_inexact_families,
    type1_members,
)


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
        bound = len(target)
        for j in table:
            # a bool or float index would pass the range test
            if type(j) is not int or not 0 <= j < bound:
                raise MapCheckError(f"table value {j} out of range")
        self.source = source
        self.target = target
        self.table = table

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


def induce(h: PointMap, k) -> GrassmannianMap:
    """Layer map sending each member to the span of its points' images.

    The images are the target point indices in h.to, and each member's
    points come from member_points, so no member is enumerated and no
    point is looked up per map.  Bit m of the AND of the through_masks
    rows of the image points is set exactly when member m holds them
    all.  A totally isotropic span of pdim k is the one such member; a
    smaller one lies in at least p + 1, and a larger or non-isotropic
    one in none, so any count other than one means the image left the
    layer.
    """
    source = grassmannian(h.source, k)
    target = grassmannian(h.target, k)
    through = through_masks(h.target, k)
    pulled = [through[t] for t in h.to]
    table = []
    for s, row in zip(source.elements, member_points(h.source, k)):
        j = single_bit(meet(pulled, row))
        if j is None:
            raise MapCheckError("induced image left the layer", witness=s)
        table.append(j)
    return GrassmannianMap(source, target, table)


def identify_base_subset(space, k, members) -> SymplecticBase:
    """Recover the spanning base from a claimed base subset of G_k.

    The members are given by their G_k indices.  Candidate points are
    the members themselves at the point layer and the pdim-0 pairwise
    intersections of their subspaces above it.  Recognition validates
    the non-orthogonality pairing, then regeneration confirms that the
    candidate base spans exactly the given members: its
    BaseSubset.indices must be the given index set.
    """
    members = set(members)
    expected = base_subset_size(space.n, k)
    if len(members) != expected:
        raise RecognitionError("size", f"{len(members)} members, expected {expected}")
    elements = grassmannian(space, k).elements
    if k == 0:
        candidates = {elements[m].rows[0] for m in members}
    else:
        candidates = set()
        for a, b in combinations(members, 2):
            common = elements[a].intersect(elements[b])
            if common.vdim == 1:
                candidates.add(common.rows[0])
    if len(candidates) != space.dim:
        raise RecognitionError("points", f"{len(candidates)} candidate points, expected {space.dim}")
    points = tuple(sorted(candidates))
    sigma = recognize(space, points)
    base = SymplecticBase(space, points, sigma)
    if set(BaseSubset(base, k).indices()) != members:
        raise RecognitionError("regeneration", "candidate base spans a different member list")
    return base


def image_base(f: GrassmannianMap, base: SymplecticBase) -> SymplecticBase:
    """The base spanned by the image of the base's layer subset.

    The images are the f.table entries at the members' G_k indices,
    handed to identify_base_subset as they are.
    """
    images = [f.table[i] for i in BaseSubset(base, f.source.k).indices()]
    if len(set(images)) != len(images):
        raise RecognitionError("collapse", "two members share an image")
    return identify_base_subset(f.target.space, f.target.k, images)


def check_base_preservation(f: GrassmannianMap, bases):
    """Image bases for each given base; recognition failures propagate."""
    return tuple(image_base(f, base) for base in bases)


def check_adjacency_preservation(f: GrassmannianMap, pairs):
    """Adjacency, and below the top layer ortho-adjacency, both ways.

    Compares each given element pair.  Returns every mismatch, in pair
    order; an empty tuple is a pass.
    """
    source, target, table = f.source, f.target, f.table
    below_top = source.k < source.space.n - 1
    src_adj, src_ortho = adjacency_masks(source.space, source.k)
    tgt_adj, tgt_ortho = adjacency_masks(target.space, target.k)
    size = len(source)
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
    return tuple(bad)


def _index_push(f: GrassmannianMap, base: SymplecticBase):
    """The layer subsets of base and of its image base, and the bijection
    f induces between their index sets, read through G_k indices."""
    k = f.source.k
    bs = BaseSubset(base, k)
    bs2 = BaseSubset(image_base(f, base), k)
    at = dict(zip(bs2.indices(), bs2.index_sets))
    push = {i: at[f.table[j]] for i, j in zip(bs.index_sets, bs.indices())}
    return bs, bs2, push


def _pushed(push, collection):
    return frozenset(push[i] for i in collection)


def _type1_transport(f: GrassmannianMap, base: SymplecticBase):
    """The position bijection read off the first-type families, for
    k < n - 1, with the index push it was read through.

    Position i goes to the position whose first-type family in the
    image subset is the image of the one at i.
    """
    space = f.source.space
    if f.source.k >= space.n - 1:
        raise DimensionError("first-type families are maximal only below the top layer")
    bs, bs2, push = _index_push(f, base)
    targets = {type1_members(bs2, i): i for i in range(space.dim)}
    pi = []
    for i in range(space.dim):
        hit = targets.get(_pushed(push, type1_members(bs, i)))
        if hit is None:
            raise MapCheckError("first-type family has no image position", witness=i)
        pi.append(hit)
    if len(set(pi)) != space.dim:
        raise MapCheckError("first-type transport is not a bijection", witness=tuple(pi))
    return tuple(pi), bs, bs2, push


def check_span_transport(f: GrassmannianMap, base: SymplecticBase) -> int:
    """Members inside each span of k + 2 positions map onto the members
    inside the transported span; returns the number of spans checked."""
    pi, bs, bs2, push = _type1_transport(f, base)
    count = 0
    for combo in combinations(range(f.source.space.dim), f.source.k + 2):
        got = _pushed(push, incident_members(bs, combo))
        if got != incident_members(bs2, frozenset(pi[x] for x in combo)):
            raise MapCheckError("span incidence does not transport", witness=combo)
        count += 1
    return count


def check_family_transport(f: GrassmannianMap, base: SymplecticBase):
    """Maximal inexact families and complements transport with their types.

    Set equality of the labelled image families against the image
    subset's own families covers both directions at once.
    """
    bs, bs2, push = _index_push(f, base)
    got = {(label[0], _pushed(push, members)) for label, members in maximal_inexact_families(bs)}
    want = {(label[0], members) for label, members in maximal_inexact_families(bs2)}
    if got != want:
        raise MapCheckError("maximal inexact families do not transport")
    got_c = {_pushed(push, members) for members in distinct_complements(bs)}
    want_c = set(distinct_complements(bs2))
    if got_c != want_c:
        raise MapCheckError("complement subsets do not transport")
    return {"families": len(got), "complements": len(got_c)}


def check_exactness_transport(f: GrassmannianMap, base: SymplecticBase, collections) -> int:
    """Exactness agrees across the map on every given collection.

    Decided by the exhaustive covering test on both sides, so the
    feasibility grid for base enumeration applies.
    """
    bs, bs2, push = _index_push(f, base)
    checked = 0
    for collection in collections:
        image = _pushed(push, collection)
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
    pulled = [hyper[j] for j in f.table]
    table = []
    for mi, star in enumerate(star_table(space, k, None)):
        j = single_bit(meet(pulled, star))
        if j is None:
            raise DescentError(
                "star images share the wrong dimension", level=k - 1, witness=src_low.elements[mi]
            )
        table.append(j)
    return GrassmannianMap(src_low, tgt_low, table)


@lru_cache(maxsize=None)
def hyperplane_table(space, k):
    """For each member of G_k, the G_(k-1) indices of its hyperplanes.

    Row s lists the hyperplanes_of of member s in the order it returns
    them, located in G_(k-1) by index_of.  At k = 1 the hyperplanes of
    a line are its points, in points() order, and a G_0 index is a point
    index, so the table is member_points(space, 1) as it stands.  At
    k >= 2 it is built once per (space, k) from the geometry alone (each
    member's points() read at the point indices of the coordinate
    hyperplanes), never from star_table, through_masks or the mask
    tables.  The tests compare every row with hyperplanes_of, which is
    the check of descend independent of member_points.
    """
    if k == 1:
        return member_points(space, 1)
    low = grassmannian(space, k - 1)
    return tuple(
        tuple(low.index_of(m) for m in hyperplanes_of(s)) for s in grassmannian(space, k).elements
    )


def check_top_transport(f: GrassmannianMap, g: GrassmannianMap) -> int:
    """Images of a member's hyperplanes stay inside the member's image.

    The hyperplanes of each source member are read off hyperplane_table,
    built once per (space, k).  A totally isotropic image
    of pdim k - 1 lies in the member's image of pdim k exactly when it
    is one of that image's hyperplanes, so containment is one bit of the
    image's hyper_masks row.  Returns the number of (member, hyperplane)
    pairs checked, and raises at the first pair that fails.

    Inside reconstruct this check cannot fail when star_table is
    correct: descend maps each m to the one hyperplane shared by the
    images of m's star, and s contains m exactly when s lies in that
    star, so every bit tested here is set by construction.  It stays as
    a check of descend against the hyperplane lists.
    """
    k = f.source.k
    if g.source.k != k - 1:
        raise DimensionError("the lower map must sit one layer below")
    hyper = hyper_masks(f.target.space, f.target.k)
    image, lower = f.table, g.table
    count = 0
    for ni, row in enumerate(hyperplane_table(f.source.space, k)):
        mask = hyper[image[ni]]
        for mi in row:
            if not mask >> lower[mi] & 1:
                raise DescentError(
                    "hyperplane image escapes the member image",
                    level=k - 1,
                    witness=(f.source.elements[ni], g.source.elements[mi]),
                )
            count += 1
    return count


def reconstruct(f: GrassmannianMap):
    """Walk a layer map down to points and package the verified result.

    The standard base runs through every verification pass: base
    subsets must keep mapping to base subsets on each level, hyperplane
    images must stay inside member images, the final point table must
    respect orthogonality in both directions, and inducing it back up
    must reproduce the input.
    Returns (point_map, certificate); certificate levels record the
    checks run.  Failures raise ReconstructionError carrying the
    certificate with the violated check named at its level.
    """
    space = f.source.space
    base = SymplecticBase.standard(space)
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
        check_base_preservation(f, (base,))
    except RecognitionError as exc:
        fail(f.source.k, "base-subsets-preserved", exc)
    passed(f.source.k, "base-subsets-preserved", 1)
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
            check_base_preservation(lower, (base,))
        except RecognitionError as exc:
            fail(level, "base-subsets-preserved", exc)
        passed(level, "base-subsets-preserved", 1)
        g = lower
    try:
        h = PointMap(space, f.target.space, g.table)
    except MapCheckError as exc:
        fail(0, "point-table", exc)
    if not h.preserves_orthogonality():
        fail(0, "orthogonality-both-ways", MapCheckError(f"pair {h.orthogonality_witness()}"))
    passed(0, "orthogonality-both-ways", len(h.to) * (len(h.to) - 1) // 2)
    try:
        h.apply_base(base)
    except RecognitionError as exc:
        fail(0, "bases-to-bases", exc)
    passed(0, "bases-to-bases", 1)
    try:
        back = induce(h, f.source.k)
    except MapCheckError as exc:
        fail(0, "induced-map-equality", exc)
    if back != f:
        fail(0, "induced-map-equality", MapCheckError("tables differ"))
    passed(0, "induced-map-equality", len(f.table))
    report["pass"] = True
    return h, report
