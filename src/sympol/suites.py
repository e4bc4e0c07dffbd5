"""The verification suites behind `sympol verify`.

Each suite checks one statement of the paper, named by its anchor, and
is registered with the grid it runs on and, when it draws random
samples, a default trial count.  A suite registered with a trial count
is seeded: it draws its own stream from the seed, and the command
refuses to run it without --seed.  A suite's runner yields its report
entries, and each check keeps its own tally, so a failing entry's
witness is that check's own first failure.

Only the verify command and the help text read this module; the other
commands never import it, so a process that runs them does not compile
the runners.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb

from sympol.bases import SymplecticBase, random_base, random_collineation
from sympol.errors import MapCheckError, RecognitionError, ReconstructionError
from sympol.grassmann import (
    adjacency_masks,
    grassmannian,
    maximal_adjacency_cliques,
    star_index_sets,
    top_index_sets,
)
from sympol.recon import (
    GrassmannianMap,
    check_adjacency_preservation,
    check_base_preservation,
    check_exactness_transport,
    check_family_transport,
    check_span_transport,
    induce,
    reconstruct,
)
from sympol.space import BASE_GRID, ENUM_GRID, SymplecticSpace, image_mask
from sympol.subsets import (
    BaseSubset,
    base_subset_size,
    certify_inexact,
    common_base,
    common_complement_count,
    disjointness_degrees,
    distinct_complements,
    first_type_size,
    inexactness_witness,
    is_exact,
    maximal_inexact_families,
    maximal_inexact_oracle,
    second_type_size,
    type1_members,
    type2_members,
)


def _layers(cfg):
    return (cfg.k,) if cfg.k is not None else tuple(range(cfg.n))


class Suite:
    __slots__ = ("anchor", "runner", "grid", "trials")

    def __init__(self, anchor, runner, grid, trials):
        self.anchor = anchor
        self.runner = runner
        self.grid = grid
        self.trials = trials


SUITES: dict[str, Suite] = {}


def _suite(name, anchor, grid=None, trials=None):
    """Register a runner; a default trial count marks the suite seeded.

    A runner yields its report entries in order.  Each check counts its
    outcomes in its own _Tally, so a failing entry's witness is that
    check's first failure.
    """

    def deco(fn):
        SUITES[name] = Suite(anchor, fn, grid, trials)
        return fn

    return deco


class _Tally:
    """One check's passes, failures and first failure witness.

    Callers build a witness only on the failing branch, so a passing
    check never formats one.
    """

    __slots__ = ("passes", "failures", "witness")

    def __init__(self):
        self.passes = 0
        self.failures = 0
        self.witness = None

    def fail(self, witness):
        self.failures += 1
        if self.witness is None:
            self.witness = witness

    def attempt(self, trial, errors, check, *args):
        """Count one trial of a check that signals failure by raising."""
        try:
            check(*args)
        except errors as exc:
            self.fail(f"trial {trial}: {exc}")
        else:
            self.passes += 1


def _entry(check, params, expected, actual, witness=None):
    ok = expected == actual
    e = {
        "check": check,
        "params": params,
        "expected": expected,
        "actual": actual,
        "pass": ok,
    }
    if witness is not None and not ok:
        e["witness"] = witness
    return e


def _skip(check, params, reason):
    return {"check": check, "params": params, "skipped": True, "reason": reason}


def _params(cfg, k=None, **extra):
    out = {"n": cfg.n, "p": cfg.p}
    if k is not None:
        out["k"] = k
    out.update(extra)
    return out


@_suite(
    "sizes",
    "|B_k| = 2^(k+1)*C(n,k+1) and s_k = s_(k+1)*(k+2)/(2*(n-k-1))",
    trials=100,
)
def run_sizes(space, cfg, trials, rng):
    for k in _layers(cfg):
        expected = base_subset_size(cfg.n, k)
        actual = expected
        witness = None
        for t in range(trials):
            got = len(BaseSubset(random_base(space, rng.getrandbits(64)), k))
            if got != expected:
                actual, witness = got, f"trial {t}"
                break
        yield _entry("member-count", _params(cfg, k, trials=trials), expected, actual, witness)
        if k < cfg.n - 1:
            from_above = base_subset_size(cfg.n, k + 1) * (k + 2) // (2 * (cfg.n - k - 1))
            yield _entry("recurrence", _params(cfg, k), expected, from_above)


@_suite(
    "common-base",
    "any two totally isotropic subspaces lie in a common symplectic base",
    grid=ENUM_GRID,
    trials=1000,
)
def run_common_base(space, cfg, trials, rng):
    for k in _layers(cfg):
        g = grassmannian(space, k)
        if (cfg.n, cfg.p) == (2, 2):
            pairs = [(i, j) for i in range(len(g)) for j in range(i, len(g))]
        else:
            pairs = [(rng.randrange(len(g)), rng.randrange(len(g))) for _ in range(trials)]
        cover = _Tally()
        for i, j in pairs:
            try:
                base = common_base(space, g[i], g[j])
            except (ValueError, RuntimeError) as exc:
                cover.fail(f"pair ({i}, {j}): {exc}")
                continue
            inside = BaseSubset(base, k).indices()
            if i in inside and j in inside:
                cover.passes += 1
            else:
                cover.fail(f"pair ({i}, {j}): member missing from the built base")
        params = _params(cfg, k, pairs=len(pairs))
        yield _entry("pair-coverage", params, len(pairs), cover.passes, cover.witness)


@_suite(
    "classification",
    "maximal inexact subsets: B(-i) for k < n-1 and, for k >= 1, "
    "R(i,j) = B(+i,+j) | B(+s(i),+s(j)) | B(-i,-s(j)) with s the partner involution",
    grid=BASE_GRID,
)
def run_classification(space, cfg, trials, rng):
    for k in _layers(cfg):
        bs = BaseSubset(SymplecticBase.standard(space), k)
        families = maximal_inexact_families(bs)
        constructed = {members for _, members in families}
        oracle = set(maximal_inexact_oracle(bs))
        expected_count = (2 * cfg.n if k < cfg.n - 1 else 0) + (
            2 * cfg.n * (cfg.n - 1) if k >= 1 else 0
        )
        yield _entry("family-count", _params(cfg, k), expected_count, len(oracle))
        diff = sorted(sorted(map(sorted, coll)) for coll in (oracle ^ constructed))
        yield _entry("oracle-equals-construction", _params(cfg, k), 0, len(diff), diff[:2] or None)
        if k < cfg.n - 1:
            first_sizes = sorted({len(m) for lab, m in families if lab[0] == "first"})
            yield _entry("first-type-size", _params(cfg, k), [first_type_size(cfg.n, k)], first_sizes)
        if k >= 1:
            second_sizes = sorted({len(m) for lab, m in families if lab[0] == "second"})
            yield _entry("second-type-size", _params(cfg, k), [second_type_size(cfg.n, k)], second_sizes)


@_suite(
    "complement-counts",
    "complement disjointness degrees by layer: first type 2n-1 at k = 0 and 4n-3 "
    "for 0 < k < n-1; second type 4 for 0 < k < n-1 and 4n^2-12n+14 at k = n-1 (n <= 3)",
)
def run_complement_counts(space, cfg, trials, rng):
    n = cfg.n
    for k in _layers(cfg):
        bs = BaseSubset(SymplecticBase.standard(space), k)
        degs = disjointness_degrees(bs)
        first = sorted({c for lab, c in degs if lab[0] == "first"})
        second = sorted({c for lab, c in degs if lab[0] == "second"})
        if k == 0:
            yield _entry("first-type-degree", _params(cfg, k), [2 * n - 1], first)
            yield _entry("second-type-degrees", _params(cfg, k), [], second)
            expected_distinct = 2 * n
        elif k < n - 1:
            yield _entry("first-type-degree", _params(cfg, k), [4 * n - 3], first)
            yield _entry("second-type-degree", _params(cfg, k), [4], second)
            expected_distinct = 2 * n * n
        else:
            yield _entry("first-type-degrees", _params(cfg, k), [], first)
            if n <= 3:
                yield _entry("second-type-degree", _params(cfg, k), [4 * n * n - 12 * n + 14], second)
            else:
                yield _skip(
                    "second-type-degree",
                    _params(cfg, k),
                    "top-layer degree constant derived only for n <= 3",
                )
            expected_distinct = 2 * n * (n - 1)
        yield _entry(
            "distinct-complements",
            _params(cfg, k),
            expected_distinct,
            len(distinct_complements(bs)),
        )


@_suite(
    "adjacency-count",
    "at k = n-1 the distinct complements containing both members number C(m+1,2) "
    "with m the meet pdim; for n >= 3 adjacency holds exactly when the count is C(k,2)",
)
def run_adjacency_count(space, cfg, trials, rng):
    n = cfg.n
    k = n - 1
    if cfg.k is not None and cfg.k != k:
        yield _skip(
            "count-formula",
            _params(cfg, cfg.k),
            "complement counting reads adjacency only in the top layer",
        )
        return
    bs = BaseSubset(SymplecticBase.standard(space), k)
    formula, iff = _Tally(), _Tally()
    for sa, ua in combinations(bs.index_sets, 2):
        meet = len(sa & ua)
        cnt = common_complement_count(bs, sa, ua)
        # the meet has pdim m = meet - 1, so C(m+1, 2) = C(meet, 2)
        if cnt != comb(meet, 2):
            formula.fail([sorted(sa), sorted(ua), cnt])
        if (meet == k) != (cnt == comb(k, 2)):
            iff.fail([sorted(sa), sorted(ua), cnt])
    params = _params(cfg, k, pairs=comb(len(bs), 2))
    yield _entry("count-formula", params, 0, formula.failures, formula.witness)
    if n >= 3:
        yield _entry("adjacency-iff", params, 0, iff.failures, iff.witness)
    else:
        yield _skip(
            "adjacency-iff",
            _params(cfg, k),
            "for n = 2 disjoint top-layer members also share C(k,2) = 0 complements",
        )


@_suite(
    "disjoint-criterion",
    "for 0 < k < n-1, B(+i,-j) disjoint from B(+i',-j') forces i' = s(i) or "
    "i' = j or j' = i; at k = n-1 the fourth case j' = s(j) joins",
)
def run_disjoint_criterion(space, cfg, trials, rng):
    sigma = SymplecticBase.standard(space).sigma
    for k in _layers(cfg):
        if k == 0:
            yield _skip(
                "disjointness-implication",
                _params(cfg, k),
                "at the point layer B(+i,-j) = {p_i}, so disjointness puts no constraint on j and j'",
            )
            continue
        top = k == cfg.n - 1
        bs = BaseSubset(SymplecticBase.standard(space), k)
        params_list = [(i, j) for i in range(space.dim) for j in range(space.dim) if j != i]
        sets = {(i, j): bs.select(plus=(i,), minus=(j,)) for i, j in params_list}
        implied = _Tally()
        for (i, j), (i2, j2) in product(params_list, repeat=2):
            if sets[i, j] & sets[i2, j2]:
                continue
            if i2 == sigma[i] or i2 == j or j2 == i or (top and j2 == sigma[j]):
                implied.passes += 1
            else:
                implied.fail([i, j, i2, j2])
        yield _entry(
            "disjointness-implication-top" if top else "disjointness-implication",
            _params(cfg, k, disjoint_pairs=implied.passes + implied.failures),
            0,
            implied.failures,
            implied.witness,
        )


@_suite(
    "inexact-certificate",
    "a pair (i,j) with j in the meet at i, s(i) in the meet at s(j), and j outside "
    "{i, s(i)} certifies the collection inexact",
    trials=25,
)
def run_inexact_certificate(space, cfg, trials, rng):
    for k in _layers(cfg):
        bs = BaseSubset(random_base(space, rng.getrandbits(64)), k)
        collections = [members for _, members in maximal_inexact_families(bs)]
        for _ in range(trials):
            size = rng.randrange(2, len(bs) + 1)
            collections.append(frozenset(rng.sample(bs.index_sets, size)))
        witnessed = [coll for coll in collections if inexactness_witness(bs, coll) is not None]
        certified = _Tally()
        for coll in witnessed:
            try:
                certify_inexact(bs, coll)
                certified.passes += 1
            except RuntimeError as exc:
                certified.fail(str(exc))
        yield _entry(
            "witnessed-collections-certified",
            _params(cfg, k, collections=len(collections)),
            len(witnessed),
            certified.passes,
            certified.witness,
        )
        if (cfg.n, cfg.p) in BASE_GRID:
            contradictions = sum(1 for coll in witnessed if is_exact(bs, coll))
            params = _params(cfg, k, witnessed=len(witnessed))
            yield _entry("witness-implies-inexact", params, 0, contradictions)
        else:
            yield _skip(
                "witness-implies-inexact",
                _params(cfg, k),
                "exhaustive exactness oracle is limited to the base-enumerable grid",
            )


@_suite(
    "trichotomy",
    "the two maximal-inexact sizes c1 = |B(-i)| and c2 = |R(i,j)| realize every "
    "order: c1 > c2, c1 = c2, c1 < c2",
)
def run_trichotomy(space, cfg, trials, rng):
    signs = {}
    for n, k in ((3, 1), (4, 2), (5, 3)):
        bs = BaseSubset(SymplecticBase.standard(SymplecticSpace(n, 2)), k)
        c1 = len(type1_members(bs, 0))
        c2 = len(type2_members(bs, 0, 1))
        params = {"n": n, "k": k, "c1": c1, "c2": c2}
        yield _entry("first-type-size", params, first_type_size(n, k), c1)
        yield _entry("second-type-size", params, second_type_size(n, k), c2)
        signs[">" if c1 > c2 else ("<" if c1 < c2 else "=")] = (n, k)
    yield _entry(
        "all-orders-realized",
        {"witnesses": {s: list(w) for s, w in sorted(signs.items())}},
        ["<", "=", ">"],
        sorted(signs),
    )


@_suite(
    "adjacency-preservation",
    "a map induced by a collineation preserves adjacency, and ortho-adjacency below the top layer",
    grid=BASE_GRID,
    trials=100,
)
def run_adjacency_preservation(space, cfg, trials, rng):
    for k in _layers(cfg):
        g = grassmannian(space, k)
        adj, ortho = adjacency_masks(space, k)
        below_top = k < cfg.n - 1
        exhaustive = cfg.n == 2
        member_sets = []
        if not exhaustive:
            for _ in range(50):
                member_sets.append(BaseSubset(random_base(space, rng.getrandbits(64)), k).indices())
        adj_kept, ortho_kept = _Tally(), _Tally()
        pairs_checked = 0
        for t in range(trials):
            tb = induce(random_collineation(space, rng.getrandbits(64)), k).table
            if exhaustive:
                for i in range(len(g)):
                    pairs_checked += adj[i].bit_count()
                    if image_mask(adj[i], tb) != adj[tb[i]]:
                        adj_kept.fail(f"trial {t}, element {i}")
                    if below_top and image_mask(ortho[i], tb) != ortho[tb[i]]:
                        ortho_kept.fail(f"trial {t}, element {i}")
            else:
                for idxs in member_sets:
                    for i, j in combinations(idxs, 2):
                        pairs_checked += 1
                        if (adj[i] >> j & 1) != (adj[tb[i]] >> tb[j] & 1):
                            adj_kept.fail(f"trial {t}, pair ({i}, {j})")
                        if below_top and (ortho[i] >> j & 1) != (ortho[tb[i]] >> tb[j] & 1):
                            ortho_kept.fail(f"trial {t}, pair ({i}, {j})")
        scope = "all-pairs" if exhaustive else "pairs-within-50-base-subsets"
        params = _params(cfg, k, trials=trials, pairs=pairs_checked, scope=scope)
        yield _entry("adjacency-transported", params, 0, adj_kept.failures, adj_kept.witness)
        if below_top:
            yield _entry("ortho-adjacency-transported", params, 0, ortho_kept.failures, ortho_kept.witness)


@_suite(
    "preserves-base-subsets",
    "a map induced by a collineation sends every base subset to a base subset",
    grid=BASE_GRID,
    trials=25,
)
def run_preserves_base_subsets(space, cfg, trials, rng):
    for k in _layers(cfg):
        preserved = _Tally()
        for t in range(trials):
            f = induce(random_collineation(space, rng.getrandbits(64)), k)
            bases = (SymplecticBase.standard(space),) + tuple(
                random_base(space, rng.getrandbits(64)) for _ in range(3)
            )
            preserved.attempt(t, RecognitionError, check_base_preservation, f, bases)
        params = _params(cfg, k, trials=trials, bases_per_map=4)
        yield _entry("base-subsets-to-base-subsets", params, trials, preserved.passes, preserved.witness)


@_suite(
    "transport",
    "a base-subset-preserving map transports maximal-inexact types, complements, "
    "exactness, and incidence with spans of k+2 base positions",
    grid=BASE_GRID,
    trials=10,
)
def run_transport(space, cfg, trials, rng):
    errors = (MapCheckError, RecognitionError)
    for k in _layers(cfg):
        below_top = k < cfg.n - 1
        family, span, exact = _Tally(), _Tally(), _Tally()
        for t in range(trials):
            f = induce(random_collineation(space, rng.getrandbits(64)), k)
            base = random_base(space, rng.getrandbits(64))
            bs = BaseSubset(base, k)
            family.attempt(t, errors, check_family_transport, f, base)
            if below_top:
                span.attempt(t, errors, check_span_transport, f, base)
            collections = [members for _, members in maximal_inexact_families(bs)]
            collections.append(frozenset(rng.sample(bs.index_sets, max(2, len(bs) // 2))))
            exact.attempt(t, errors, check_exactness_transport, f, base, collections)
        params = _params(cfg, k, trials=trials)
        yield _entry("family-transport", params, trials, family.passes, family.witness)
        if below_top:
            yield _entry("span-transport", params, trials, span.passes, span.witness)
        yield _entry("exactness-transport", params, trials, exact.passes, exact.witness)


@_suite(
    "round-trip",
    "reconstruct(induce(h, k)) returns h exactly and the rebuilt map induces back to the input",
    grid=BASE_GRID,
    trials=100,
)
def run_round_trip(space, cfg, trials, rng):
    for k in _layers(cfg):
        inverted = _Tally()
        for t in range(trials):
            h = random_collineation(space, rng.getrandbits(64))
            try:
                pm, certificate = reconstruct(induce(h, k))
            except ReconstructionError as exc:
                inverted.fail(f"trial {t}: {exc}")
                continue
            if pm == h and certificate["pass"]:
                inverted.passes += 1
            else:
                inverted.fail(f"trial {t}: recovered table differs")
        params = _params(cfg, k, trials=trials)
        yield _entry("reconstruct-inverts-induce", params, trials, inverted.passes, inverted.witness)


def _corrupting_swap(f, bs_indices, outside, rng):
    """A seeded table swap that trips all three rejection checks.

    Swapping the images of one base-subset member and one outsider
    generically breaks everything; the rare swaps that accidentally
    land on another valid image are skipped.
    """
    nverts = len(f.source)
    for _ in range(200):
        a = rng.choice(bs_indices)
        b = rng.choice(outside)
        table = list(f.table)
        table[a], table[b] = table[b], table[a]
        bad = GrassmannianMap(f.source, f.target, table)
        try:
            check_base_preservation(bad, (SymplecticBase.standard(f.source.space),))
            continue
        except RecognitionError as exc:
            base_witness = str(exc)
        pairs = [(min(a, j), max(a, j)) for j in range(nverts) if j != a]
        pairs += [(min(b, j), max(b, j)) for j in range(nverts) if j != b]
        mismatches = check_adjacency_preservation(bad, pairs)[:3]
        if not mismatches:
            continue
        try:
            reconstruct(bad)
            continue
        except ReconstructionError as exc:
            failing = [
                c["name"]
                for rec in exc.certificate["levels"]
                for c in rec["checks"]
                if not c["pass"]
            ]
        return bad, (a, b), base_witness, mismatches, failing
    return None


@_suite(
    "negative-controls",
    "corrupted layer maps are rejected: base-subset preservation, adjacency "
    "transport, and reconstruction all fail with explicit witnesses",
    grid=BASE_GRID,
    trials=5,
)
def run_negative_controls(space, cfg, trials, rng):
    for k in _layers(cfg):
        g = grassmannian(space, k)
        inside = sorted(BaseSubset(SymplecticBase.standard(space), k).indices())
        outside = sorted(set(range(len(g))) - set(inside))
        detected = 0
        sample = None
        for t in range(trials):
            f = induce(random_collineation(space, rng.getrandbits(64)), k)
            found = _corrupting_swap(f, inside, outside, rng)
            if found is None:
                continue
            detected += 1
            _, swap, base_witness, mismatches, failing = found
            if sample is None:
                sample = {
                    "swap": list(swap),
                    "base_rejection": base_witness,
                    "adjacency_mismatches": [list(m[:3]) for m in mismatches],
                    "reconstruct_failing_checks": failing,
                }
        yield _entry(
            "corruptions-rejected-three-ways",
            _params(cfg, k, trials=trials, example=sample),
            trials,
            detected,
        )


@_suite(
    "cliques",
    "maximal adjacency cliques are the whole layer at k = 0, the stars and tops "
    "for 0 < k < n-1, and the stars at k = n-1",
    grid=BASE_GRID,
)
def run_cliques(space, cfg, trials, rng):
    for k in _layers(cfg):
        cliques = set(maximal_adjacency_cliques(space, k))
        expected = set(star_index_sets(space, k))
        if 0 < k < cfg.n - 1:
            expected |= set(top_index_sets(space, k))
        yield _entry("clique-count", _params(cfg, k), len(expected), len(cliques))
        diff = cliques ^ expected
        witness = [sorted(c) for c in list(diff)[:2]] or None
        yield _entry("cliques-identified", _params(cfg, k), 0, len(diff), witness)


def print_entries(entries):
    """Print one PASS, FAIL or SKIP line per stamped report entry."""
    for e in entries:
        params = " ".join(f"{key}={value}" for key, value in e["params"].items())
        if e.get("skipped"):
            print(f"SKIP {e['suite']}.{e['check']} {params}: {e['reason']}")
        else:
            status = "PASS" if e["pass"] else "FAIL"
            line = f"{status} {e['suite']}.{e['check']} {params} expected={e['expected']} actual={e['actual']}"
            if "witness" in e:
                line += f" witness={e['witness']}"
            print(line)


def run_suites(space, cfg, names):
    """The report entries of the named suites, in order, each stamped
    with its suite name and anchor.  A suite whose grid leaves out
    (n, p) gives one feasibility skip and runs nothing."""
    for name in names:
        suite = SUITES[name]
        if suite.grid is not None and (cfg.n, cfg.p) not in suite.grid:
            found = [_skip("feasibility", _params(cfg), f"suite runs only for (n, p) in {suite.grid}")]
        else:
            trials = cfg.trials if cfg.trials is not None else suite.trials
            found = suite.runner(space, cfg, trials, random.Random(f"{cfg.seed}:{name}"))
        for e in found:
            yield {"suite": name, "anchor": suite.anchor, **e}
