"""Command line front end: enumeration, verification suites, map plumbing.

Subcommands
  enumerate            build Grassmannian caches and a layer count table
  verify               run a named verification suite and write a report
  induce               lift a point-map file to a Grassmannian layer
  reconstruct          recover a point map from a layer-map file
  random-collineation  emit a seeded symplectic collineation

Every command is deterministic for a fixed seed, and randomized suites
refuse to run without one.  Reports are JSON with a CSV summary next
to them.  Exit status 0 means everything checked passed, 1 means a
mathematical check failed (witnesses are in the report), 2 means the
request itself was unusable or infeasible.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import random
import sys
from math import comb

from sympol.bases import SymplecticBase, random_base, random_collineation
from sympol.errors import (
    DimensionError,
    MapCheckError,
    RecognitionError,
    ReconstructionError,
    SchemaError,
    SpaceMismatchError,
)
from sympol.grassmann import (
    adjacency_masks,
    default_cache_dir,
    grassmannian,
    grassmannian_size,
    maximal_adjacency_cliques,
    star_index_sets,
    top_index_sets,
)
from sympol.recon import (
    check_adjacency_preservation,
    check_base_preservation,
    check_exactness_transport,
    check_family_transport,
    check_span_transport,
    induce,
    reconstruct,
)
from sympol.serialize import (
    atomic_write_json,
    atomic_write_text,
    decode_grassmannian_map,
    decode_point_map,
    encode_grassmannian_map,
    encode_point_map,
    load_json,
    write_report_csv,
)
from sympol.space import BASE_GRID, CLIQUE_GRID, ENUM_GRID, SymplecticSpace, image_mask
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


class Suite:
    __slots__ = ("name", "anchor", "runner", "randomized", "grid", "default_trials")

    def __init__(self, name, anchor, runner, randomized, grid, default_trials):
        self.name = name
        self.anchor = anchor
        self.runner = runner
        self.randomized = randomized
        self.grid = grid
        self.default_trials = default_trials


SUITES: dict[str, Suite] = {}


def _suite(name, anchor, randomized=False, grid=None, default_trials=1):
    def deco(fn):
        SUITES[name] = Suite(name, anchor, fn, randomized, grid, default_trials)
        return fn

    return deco


def _entry(name, check, params, expected, actual, witness=None):
    ok = expected == actual
    e = {
        "suite": name,
        "anchor": SUITES[name].anchor,
        "check": check,
        "params": params,
        "expected": expected,
        "actual": actual,
        "pass": ok,
    }
    if witness is not None and not ok:
        e["witness"] = witness
    return e


def _skip(name, check, params, reason):
    return {
        "suite": name,
        "anchor": SUITES[name].anchor,
        "check": check,
        "params": params,
        "skipped": True,
        "reason": reason,
    }


def _layers(cfg):
    return (cfg.k,) if cfg.k is not None else tuple(range(cfg.n))


def _params(cfg, k=None, **extra):
    out = {"n": cfg.n, "p": cfg.p}
    if k is not None:
        out["k"] = k
    out.update(extra)
    return out


@_suite(
    "sizes",
    "|B_k| = 2^(k+1)*C(n,k+1) and s_k = s_(k+1)*(k+2)/(2*(n-k-1))",
    randomized=True,
    default_trials=100,
)
def run_sizes(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    entries = []
    for k in _layers(cfg):
        expected = base_subset_size(cfg.n, k)
        actual = expected
        witness = None
        for t in range(cfg.trials):
            got = len(BaseSubset(random_base(space, rng.getrandbits(64)), k))
            if got != expected:
                actual, witness = got, f"trial {t}"
                break
        entries.append(
            _entry("sizes", "member-count", _params(cfg, k, trials=cfg.trials), expected, actual, witness)
        )
        if k < cfg.n - 1:
            from_above = base_subset_size(cfg.n, k + 1) * (k + 2) // (2 * (cfg.n - k - 1))
            entries.append(_entry("sizes", "recurrence", _params(cfg, k), expected, from_above))
    return entries


@_suite(
    "common-base",
    "any two totally isotropic subspaces lie in a common symplectic base",
    randomized=True,
    default_trials=1000,
)
def run_common_base(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    entries = []
    for k in _layers(cfg):
        g = grassmannian(space, k)
        if (cfg.n, cfg.p) == (2, 2):
            pairs = [(i, j) for i in range(len(g)) for j in range(i, len(g))]
        else:
            pairs = [(rng.randrange(len(g)), rng.randrange(len(g))) for _ in range(cfg.trials)]
        ok = 0
        witness = None
        for i, j in pairs:
            s, u = g[i], g[j]
            try:
                bs = BaseSubset(common_base(space, s, u), k)
            except (ValueError, RuntimeError) as exc:
                witness = witness or f"pair ({i}, {j}): {exc}"
                continue
            if bs.index_set_of(s) is not None and bs.index_set_of(u) is not None:
                ok += 1
            else:
                witness = witness or f"pair ({i}, {j}): member missing from the built base"
        entries.append(
            _entry("common-base", "pair-coverage", _params(cfg, k, pairs=len(pairs)), len(pairs), ok, witness)
        )
    return entries


@_suite(
    "classification",
    "maximal inexact subsets: B(-i) for k < n-1 and, for k >= 1, "
    "R(i,j) = B(+i,+j) | B(+s(i),+s(j)) | B(-i,-s(j)) with s the partner involution",
    grid=BASE_GRID,
)
def run_classification(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    entries = []
    for k in _layers(cfg):
        bs = BaseSubset(SymplecticBase.standard(space), k)
        families = maximal_inexact_families(bs)
        constructed = {members for _, members in families}
        oracle = set(maximal_inexact_oracle(bs))
        expected_count = (2 * cfg.n if k < cfg.n - 1 else 0) + (
            2 * cfg.n * (cfg.n - 1) if k >= 1 else 0
        )
        entries.append(
            _entry("classification", "family-count", _params(cfg, k), expected_count, len(oracle))
        )
        diff = sorted(
            sorted(map(sorted, coll)) for coll in (oracle ^ constructed)
        )
        entries.append(
            _entry(
                "classification",
                "oracle-equals-construction",
                _params(cfg, k),
                0,
                len(diff),
                witness=diff[:2] or None,
            )
        )
        first_sizes = {len(m) for lab, m in families if lab[0] == "first"}
        second_sizes = {len(m) for lab, m in families if lab[0] == "second"}
        if k < cfg.n - 1:
            entries.append(
                _entry(
                    "classification",
                    "first-type-size",
                    _params(cfg, k),
                    [first_type_size(cfg.n, k)],
                    sorted(first_sizes),
                )
            )
        if k >= 1:
            entries.append(
                _entry(
                    "classification",
                    "second-type-size",
                    _params(cfg, k),
                    [second_type_size(cfg.n, k)],
                    sorted(second_sizes),
                )
            )
    return entries


@_suite(
    "complement-counts",
    "complement disjointness degrees by layer: first type 2n-1 at k = 0 and 4n-3 "
    "for 0 < k < n-1; second type 4 for 0 < k < n-1 and 4n^2-12n+14 at k = n-1 (n <= 3)",
)
def run_complement_counts(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    n = cfg.n
    entries = []
    for k in _layers(cfg):
        bs = BaseSubset(SymplecticBase.standard(space), k)
        degs = disjointness_degrees(bs)
        first = sorted({c for lab, c in degs if lab[0] == "first"})
        second = sorted({c for lab, c in degs if lab[0] == "second"})
        if k == 0:
            entries.append(_entry("complement-counts", "first-type-degree", _params(cfg, k), [2 * n - 1], first))
            entries.append(_entry("complement-counts", "second-type-degrees", _params(cfg, k), [], second))
            expected_distinct = 2 * n
        elif k < n - 1:
            entries.append(_entry("complement-counts", "first-type-degree", _params(cfg, k), [4 * n - 3], first))
            entries.append(_entry("complement-counts", "second-type-degree", _params(cfg, k), [4], second))
            expected_distinct = 2 * n * n
        else:
            entries.append(_entry("complement-counts", "first-type-degrees", _params(cfg, k), [], first))
            if n <= 3:
                entries.append(
                    _entry(
                        "complement-counts",
                        "second-type-degree",
                        _params(cfg, k),
                        [4 * n * n - 12 * n + 14],
                        second,
                    )
                )
            else:
                entries.append(
                    _skip(
                        "complement-counts",
                        "second-type-degree",
                        _params(cfg, k),
                        "top-layer degree constant derived only for n <= 3",
                    )
                )
            expected_distinct = 2 * n * (n - 1)
        entries.append(
            _entry(
                "complement-counts",
                "distinct-complements",
                _params(cfg, k),
                expected_distinct,
                len(distinct_complements(bs)),
            )
        )
    return entries


@_suite(
    "adjacency-count",
    "at k = n-1 the distinct complements containing both members number C(m+1,2) "
    "with m the meet pdim; for n >= 3 adjacency holds exactly when the count is C(k,2)",
)
def run_adjacency_count(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    n = cfg.n
    k = n - 1
    if cfg.k is not None and cfg.k != k:
        return [
            _skip(
                "adjacency-count",
                "count-formula",
                _params(cfg, cfg.k),
                "complement counting reads adjacency only in the top layer",
            )
        ]
    bs = BaseSubset(SymplecticBase.standard(space), k)
    idx = list(bs.index_sets)
    formula_bad = 0
    iff_bad = 0
    pairs = 0
    witness = None
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            sa, ua = idx[a], idx[b]
            pairs += 1
            m = len(sa & ua) - 1
            cnt = common_complement_count(bs, sa, ua)
            if cnt != comb(m + 1, 2):
                formula_bad += 1
                witness = witness or [sorted(sa), sorted(ua), cnt]
            if (len(sa & ua) == k) != (cnt == comb(k, 2)):
                iff_bad += 1
    entries = [
        _entry(
            "adjacency-count",
            "count-formula",
            _params(cfg, k, pairs=pairs),
            0,
            formula_bad,
            witness,
        )
    ]
    if n >= 3:
        entries.append(_entry("adjacency-count", "adjacency-iff", _params(cfg, k, pairs=pairs), 0, iff_bad))
    else:
        entries.append(
            _skip(
                "adjacency-count",
                "adjacency-iff",
                _params(cfg, k),
                "for n = 2 disjoint top-layer members also share C(k,2) = 0 complements",
            )
        )
    return entries


@_suite(
    "disjoint-criterion",
    "for 0 < k < n-1, B(+i,-j) disjoint from B(+i',-j') forces i' = s(i) or "
    "i' = j or j' = i; at k = n-1 the fourth case j' = s(j) joins",
)
def run_disjoint_criterion(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    sigma = SymplecticBase.standard(space).sigma
    entries = []
    for k in _layers(cfg):
        if k == 0:
            entries.append(
                _skip(
                    "disjoint-criterion",
                    "disjointness-implication",
                    _params(cfg, k),
                    "at the point layer B(+i,-j) = {p_i}, so disjointness puts no constraint on j and j'",
                )
            )
            continue
        top = k == cfg.n - 1
        bs = BaseSubset(SymplecticBase.standard(space), k)
        params_list = [(i, j) for i in range(space.dim) for j in range(space.dim) if j != i]
        sets = {(i, j): bs.select(plus=(i,), minus=(j,)) for i, j in params_list}
        violations = 0
        checked = 0
        witness = None
        for i, j in params_list:
            for i2, j2 in params_list:
                if sets[i, j] & sets[i2, j2]:
                    continue
                checked += 1
                hit = i2 == sigma[i] or i2 == j or j2 == i or (top and j2 == sigma[j])
                if not hit:
                    violations += 1
                    witness = witness or [i, j, i2, j2]
        entries.append(
            _entry(
                "disjoint-criterion",
                "disjointness-implication-top" if top else "disjointness-implication",
                _params(cfg, k, disjoint_pairs=checked),
                0,
                violations,
                witness,
            )
        )
    return entries


@_suite(
    "inexact-certificate",
    "a pair (i,j) with j in the meet at i, s(i) in the meet at s(j), and j outside "
    "{i, s(i)} certifies the collection inexact",
    randomized=True,
    default_trials=25,
)
def run_inexact_certificate(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    entries = []
    for k in _layers(cfg):
        bs = BaseSubset(random_base(space, rng.getrandbits(64)), k)
        collections = [members for _, members in maximal_inexact_families(bs)]
        for _ in range(cfg.trials):
            size = rng.randrange(2, len(bs) + 1)
            collections.append(frozenset(rng.sample(bs.index_sets, size)))
        witnessed = []
        certified = 0
        witness = None
        for coll in collections:
            if inexactness_witness(bs, coll) is None:
                continue
            witnessed.append(coll)
            try:
                certify_inexact(bs, coll)
                certified += 1
            except RuntimeError as exc:
                witness = witness or str(exc)
        entries.append(
            _entry(
                "inexact-certificate",
                "witnessed-collections-certified",
                _params(cfg, k, collections=len(collections)),
                len(witnessed),
                certified,
                witness,
            )
        )
        if (cfg.n, cfg.p) in BASE_GRID:
            contradictions = sum(1 for coll in witnessed if is_exact(bs, coll))
            entries.append(
                _entry(
                    "inexact-certificate",
                    "witness-implies-inexact",
                    _params(cfg, k, witnessed=len(witnessed)),
                    0,
                    contradictions,
                )
            )
        else:
            entries.append(
                _skip(
                    "inexact-certificate",
                    "witness-implies-inexact",
                    _params(cfg, k),
                    "exhaustive exactness oracle is limited to the base-enumerable grid",
                )
            )
    return entries


@_suite(
    "trichotomy",
    "the two maximal-inexact sizes c1 = |B(-i)| and c2 = |R(i,j)| realize every "
    "order: c1 > c2, c1 = c2, c1 < c2",
)
def run_trichotomy(cfg, rng):
    witnesses = ((3, 1), (4, 2), (5, 3))
    signs = {}
    entries = []
    for n, k in witnesses:
        space = SymplecticSpace(n, 2)
        bs = BaseSubset(SymplecticBase.standard(space), k)
        c1 = len(type1_members(bs, 0))
        c2 = len(type2_members(bs, 0, 1))
        params = {"n": n, "k": k, "c1": c1, "c2": c2}
        entries.append(_entry("trichotomy", "first-type-size", params, first_type_size(n, k), c1))
        entries.append(_entry("trichotomy", "second-type-size", params, second_type_size(n, k), c2))
        signs[">" if c1 > c2 else ("<" if c1 < c2 else "=")] = (n, k)
    entries.append(
        _entry(
            "trichotomy",
            "all-orders-realized",
            {"witnesses": {s: list(w) for s, w in sorted(signs.items())}},
            ["<", "=", ">"],
            sorted(signs),
        )
    )
    return entries


@_suite(
    "adjacency-preservation",
    "a map induced by a collineation preserves adjacency, and ortho-adjacency below the top layer",
    randomized=True,
    grid=BASE_GRID,
    default_trials=100,
)
def run_adjacency_preservation(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    entries = []
    for k in _layers(cfg):
        g = grassmannian(space, k)
        adj, ortho = adjacency_masks(space, k)
        exhaustive = cfg.n == 2
        member_sets = []
        if not exhaustive:
            for _ in range(50):
                bs = BaseSubset(random_base(space, rng.getrandbits(64)), k)
                member_sets.append([g.index_of(m) for m in bs.members()])
        adj_bad = 0
        ortho_bad = 0
        pairs_checked = 0
        witness = None
        for t in range(cfg.trials):
            tb = induce(random_collineation(space, rng.getrandbits(64)), k).table
            if exhaustive:
                for i in range(len(g)):
                    pairs_checked += adj[i].bit_count()
                    if image_mask(adj[i], tb) != adj[tb[i]]:
                        adj_bad += 1
                        witness = witness or f"trial {t}, element {i}"
                    if k < cfg.n - 1 and image_mask(ortho[i], tb) != ortho[tb[i]]:
                        ortho_bad += 1
                        witness = witness or f"trial {t}, element {i}"
            else:
                for idxs in member_sets:
                    for a in range(len(idxs)):
                        for b in range(a + 1, len(idxs)):
                            i, j = idxs[a], idxs[b]
                            pairs_checked += 1
                            if (adj[i] >> j & 1) != (adj[tb[i]] >> tb[j] & 1):
                                adj_bad += 1
                                witness = witness or f"trial {t}, pair ({i}, {j})"
                            if k < cfg.n - 1 and (ortho[i] >> j & 1) != (ortho[tb[i]] >> tb[j] & 1):
                                ortho_bad += 1
                                witness = witness or f"trial {t}, pair ({i}, {j})"
        scope = "all-pairs" if exhaustive else "pairs-within-50-base-subsets"
        params = _params(cfg, k, trials=cfg.trials, pairs=pairs_checked, scope=scope)
        entries.append(_entry("adjacency-preservation", "adjacency-transported", params, 0, adj_bad, witness))
        if k < cfg.n - 1:
            entries.append(
                _entry("adjacency-preservation", "ortho-adjacency-transported", params, 0, ortho_bad, witness)
            )
    return entries


@_suite(
    "preserves-base-subsets",
    "a map induced by a collineation sends every base subset to a base subset",
    randomized=True,
    grid=BASE_GRID,
    default_trials=25,
)
def run_preserves_base_subsets(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    entries = []
    for k in _layers(cfg):
        ok = 0
        witness = None
        for t in range(cfg.trials):
            f = induce(random_collineation(space, rng.getrandbits(64)), k)
            bases = (SymplecticBase.standard(space),) + tuple(
                random_base(space, rng.getrandbits(64)) for _ in range(3)
            )
            try:
                check_base_preservation(f, bases)
                ok += 1
            except RecognitionError as exc:
                witness = witness or f"trial {t}: {exc}"
        entries.append(
            _entry(
                "preserves-base-subsets",
                "base-subsets-to-base-subsets",
                _params(cfg, k, trials=cfg.trials, bases_per_map=4),
                cfg.trials,
                ok,
                witness,
            )
        )
    return entries


@_suite(
    "transport",
    "a base-subset-preserving map transports maximal-inexact types, complements, "
    "exactness, and incidence with spans of k+2 base positions",
    randomized=True,
    grid=BASE_GRID,
    default_trials=10,
)
def run_transport(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    entries = []
    for k in _layers(cfg):
        fam_ok = 0
        span_ok = 0
        exact_ok = 0
        witness = None
        for t in range(cfg.trials):
            f = induce(random_collineation(space, rng.getrandbits(64)), k)
            base = random_base(space, rng.getrandbits(64))
            bs = BaseSubset(base, k)
            try:
                check_family_transport(f, base)
                fam_ok += 1
            except (MapCheckError, RecognitionError) as exc:
                witness = witness or f"trial {t}: {exc}"
            if k < cfg.n - 1:
                try:
                    check_span_transport(f, base)
                    span_ok += 1
                except (MapCheckError, RecognitionError) as exc:
                    witness = witness or f"trial {t}: {exc}"
            collections = [members for _, members in maximal_inexact_families(bs)]
            collections.append(frozenset(rng.sample(bs.index_sets, max(2, len(bs) // 2))))
            try:
                check_exactness_transport(f, base, collections)
                exact_ok += 1
            except (MapCheckError, RecognitionError) as exc:
                witness = witness or f"trial {t}: {exc}"
        params = _params(cfg, k, trials=cfg.trials)
        entries.append(_entry("transport", "family-transport", params, cfg.trials, fam_ok, witness))
        if k < cfg.n - 1:
            entries.append(_entry("transport", "span-transport", params, cfg.trials, span_ok, witness))
        entries.append(_entry("transport", "exactness-transport", params, cfg.trials, exact_ok, witness))
    return entries


@_suite(
    "round-trip",
    "reconstruct(induce(h, k)) returns h exactly and the rebuilt map induces back to the input",
    randomized=True,
    grid=BASE_GRID,
    default_trials=100,
)
def run_round_trip(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    entries = []
    for k in _layers(cfg):
        ok = 0
        witness = None
        for t in range(cfg.trials):
            h = random_collineation(space, rng.getrandbits(64))
            f = induce(h, k)
            try:
                pm, certificate = reconstruct(f)
            except ReconstructionError as exc:
                witness = witness or f"trial {t}: {exc}"
                continue
            if pm == h and certificate["pass"]:
                ok += 1
            else:
                witness = witness or f"trial {t}: recovered table differs"
        entries.append(
            _entry(
                "round-trip",
                "reconstruct-inverts-induce",
                _params(cfg, k, trials=cfg.trials),
                cfg.trials,
                ok,
                witness,
            )
        )
    return entries


def _corrupting_swap(f, bs_indices, outside, rng, tries=200):
    """A seeded table swap that trips all three rejection checks.

    Swapping the images of one base-subset member and one outsider
    generically breaks everything; the rare swaps that accidentally
    land on another valid image are skipped.
    """
    from sympol.recon import GrassmannianMap

    nverts = len(f.source)
    for _ in range(tries):
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
        mismatches = check_adjacency_preservation(bad, pairs=pairs, limit=3)
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
    randomized=True,
    grid=BASE_GRID,
    default_trials=5,
)
def run_negative_controls(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    entries = []
    for k in _layers(cfg):
        g = grassmannian(space, k)
        bs = BaseSubset(SymplecticBase.standard(space), k)
        inside = sorted(g.index_of(m) for m in bs.members())
        outside = sorted(set(range(len(g))) - set(inside))
        detected = 0
        sample = None
        for t in range(cfg.trials):
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
        entries.append(
            _entry(
                "negative-controls",
                "corruptions-rejected-three-ways",
                _params(cfg, k, trials=cfg.trials, example=sample),
                cfg.trials,
                detected,
            )
        )
    return entries


@_suite(
    "cliques",
    "maximal adjacency cliques are the whole layer at k = 0, the stars and tops "
    "for 0 < k < n-1, and the stars at k = n-1",
    grid=CLIQUE_GRID,
)
def run_cliques(cfg, rng):
    space = SymplecticSpace(cfg.n, cfg.p)
    entries = []
    for k in _layers(cfg):
        cliques = set(maximal_adjacency_cliques(space, k))
        stars = set(star_index_sets(space, k))
        if k == 0 or k == cfg.n - 1:
            expected = stars
        else:
            expected = stars | set(top_index_sets(space, k))
        entries.append(
            _entry("cliques", "clique-count", _params(cfg, k), len(expected), len(cliques))
        )
        diff = cliques ^ expected
        entries.append(
            _entry(
                "cliques",
                "cliques-identified",
                _params(cfg, k),
                0,
                len(diff),
                witness=[sorted(c) for c in list(diff)[:2]] or None,
            )
        )
    return entries


def _print_entries(entries):
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


def _usage(message):
    print(f"error: {message}", file=sys.stderr)
    return 2


def cmd_enumerate(cfg):
    if (cfg.n, cfg.p) not in ENUM_GRID:
        return _usage(f"(n, p) = ({cfg.n}, {cfg.p}) is outside the supported grid {ENUM_GRID}")
    if cfg.k is not None and not 0 <= cfg.k < cfg.n:
        return _usage(f"k must lie in 0..{cfg.n - 1}")
    space = SymplecticSpace(cfg.n, cfg.p)
    cache = default_cache_dir()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "p", "k", "count", "closed_form"])
    status = 0
    for k in _layers(cfg):
        g = grassmannian(space, k)
        formula = grassmannian_size(cfg.n, cfg.p, k)
        writer.writerow([cfg.n, cfg.p, k, len(g), formula])
        marker = "" if len(g) == formula else "  MISMATCH"
        if len(g) != formula:
            status = 1
        print(f"G_{k}(n={cfg.n}, p={cfg.p}): {len(g)} elements (closed form {formula}){marker}")
    out = cfg.out or os.path.join(cache, f"counts-n{cfg.n}-p{cfg.p}.csv")
    atomic_write_text(out, buf.getvalue())
    print(f"counts written to {out}; caches under {cache}")
    return status


def cmd_verify(cfg):
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    if cfg.k is not None and not 0 <= cfg.k < cfg.n:
        return _usage(f"k must lie in 0..{cfg.n - 1}")
    if cfg.trials is not None and cfg.trials < 1:
        return _usage(f"--trials must be at least 1, got {cfg.trials}")
    if cfg.seed is None and any(SUITES[n].randomized for n in names):
        return _usage("randomized suites need --seed for reproducibility")
    entries = []
    for name in names:
        suite = SUITES[name]
        if suite.grid is not None and (cfg.n, cfg.p) not in suite.grid:
            entries.append(
                _skip(name, "feasibility", _params(cfg), f"suite runs only for (n, p) in {suite.grid}")
            )
            continue
        run_cfg = argparse.Namespace(**vars(cfg))
        run_cfg.trials = cfg.trials if cfg.trials is not None else suite.default_trials
        rng = random.Random(f"{cfg.seed}:{name}")
        entries.extend(suite.runner(run_cfg, rng))
    _print_entries(entries)
    overall = all(e.get("pass", True) for e in entries)
    report = {
        "command": "verify",
        "config": {
            "n": cfg.n,
            "p": cfg.p,
            "k": cfg.k,
            "seed": cfg.seed,
            "trials": cfg.trials,
            "suite": cfg.suite,
        },
        "entries": entries,
        "pass": overall,
    }
    out = cfg.out or "verify-report.json"
    atomic_write_json(out, report)
    write_report_csv(os.path.splitext(out)[0] + ".csv", entries)
    checked = sum(1 for e in entries if not e.get("skipped"))
    skipped = len(entries) - checked
    print(f"{'PASS' if overall else 'FAIL'}: {checked} checks, {skipped} skipped; report at {out}")
    if not overall:
        return 1
    if checked == 0:
        return _usage("nothing ran: every requested check was infeasible here")
    return 0


def cmd_induce(cfg):
    try:
        h = decode_point_map(load_json(cfg.map))
    except (SchemaError, MapCheckError, SpaceMismatchError, RecognitionError) as exc:
        return _usage(str(exc))
    if not 0 <= cfg.k < h.source.n:
        return _usage(f"k must lie in 0..{h.source.n - 1}")
    if not h.preserves_orthogonality():
        pair = h.orthogonality_witness()
        print(f"point map is not symplectic: orthogonality flips on {pair}", file=sys.stderr)
        return 1
    f = induce(h, cfg.k)
    out = cfg.out or "layer-map.json"
    atomic_write_json(out, encode_grassmannian_map(f))
    print(f"layer {cfg.k} map on {len(f.source)} elements written to {out}")
    return 0


def cmd_reconstruct(cfg):
    try:
        f = decode_grassmannian_map(load_json(cfg.map))
    except (SchemaError, SpaceMismatchError, DimensionError, MapCheckError) as exc:
        return _usage(str(exc))
    cert_path = cfg.certificate or "certificate.json"
    try:
        h, certificate = reconstruct(f)
    except ReconstructionError as exc:
        atomic_write_json(cert_path, exc.certificate)
        print(f"reconstruction failed: {exc}", file=sys.stderr)
        print(f"certificate written to {cert_path}", file=sys.stderr)
        return 1
    out = cfg.out or "embedding.json"
    atomic_write_json(out, encode_point_map(h))
    atomic_write_json(cert_path, certificate)
    print(f"point map written to {out}, certificate to {cert_path}")
    return 0


def cmd_random_collineation(cfg):
    if (cfg.n, cfg.p) not in ENUM_GRID:
        return _usage(f"(n, p) = ({cfg.n}, {cfg.p}) is outside the supported grid {ENUM_GRID}")
    space = SymplecticSpace(cfg.n, cfg.p)
    h = random_collineation(space, f"{cfg.seed}:collineation")
    out = cfg.out or "collineation.json"
    atomic_write_json(out, encode_point_map(h))
    print(f"collineation for seed {cfg.seed} written to {out}")
    return 0


def _epilog():
    lines = [
        "feasibility grids (hard-coded):",
        f"  enumeration and map plumbing   {ENUM_GRID}",
        f"  exactness oracle               {BASE_GRID}",
        f"  collineation suites            {BASE_GRID}",
        f"  clique search                  {CLIQUE_GRID}",
        "",
        "verification suites:",
    ]
    for name, suite in SUITES.items():
        tag = " (seeded)" if suite.randomized else ""
        lines.append(f"  {name}{tag}")
        lines.append(f"      {suite.anchor}")
    return "\n".join(lines)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sympol",
        description=__doc__.split("\n\n")[0],
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(p, k_help="restrict to one layer"):
        p.add_argument("--n", type=int, required=True, help="half the vector space dimension")
        p.add_argument("--p", type=int, required=True, help="field order (prime)")
        p.add_argument("--k", type=int, default=None, help=k_help)

    pe = sub.add_parser("enumerate", help="build Grassmannian caches and a count table")
    add_grid(pe)
    pe.add_argument("--cache", default=None, help="cache directory (default: SYMPOL_CACHE_DIR or ~/.cache/sympol)")
    pe.add_argument("--out", default=None, help="CSV output path")
    pe.set_defaults(func=cmd_enumerate)

    pv = sub.add_parser(
        "verify",
        help="run a verification suite",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_grid(pv)
    pv.add_argument("--suite", required=True, choices=list(SUITES) + ["all"])
    pv.add_argument("--seed", default=None, help="mandatory for seeded suites")
    pv.add_argument("--trials", type=int, default=None, help="override the per-suite trial count")
    pv.add_argument("--out", default=None, help="report JSON path (CSV lands next to it)")
    pv.add_argument("--cache", default=None, help="cache directory")
    pv.set_defaults(func=cmd_verify)

    pi = sub.add_parser("induce", help="lift a point-map file to a Grassmannian layer")
    pi.add_argument("--map", required=True, help="point-map JSON file")
    pi.add_argument("--k", type=int, required=True, help="target layer")
    pi.add_argument("--out", default=None, help="layer-map JSON path")
    pi.set_defaults(func=cmd_induce)

    pr = sub.add_parser("reconstruct", help="recover a point map from a layer-map file")
    pr.add_argument("--map", required=True, help="layer-map JSON file")
    pr.add_argument("--out", default=None, help="point-map JSON path")
    pr.add_argument("--certificate", default=None, help="certificate JSON path")
    pr.add_argument("--cache", default=None, help="cache directory")
    pr.set_defaults(func=cmd_reconstruct)

    pc = sub.add_parser("random-collineation", help="emit a seeded symplectic collineation")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--seed", required=True)
    pc.add_argument("--out", default=None, help="point-map JSON path")
    pc.set_defaults(func=cmd_random_collineation)
    return parser


def main(argv=None):
    cfg = build_parser().parse_args(argv)
    cache = getattr(cfg, "cache", None)
    if not cache:
        return cfg.func(cfg)
    # --cache sets SYMPOL_CACHE_DIR for this command only
    previous = os.environ.get("SYMPOL_CACHE_DIR")
    os.environ["SYMPOL_CACHE_DIR"] = cache
    try:
        return cfg.func(cfg)
    finally:
        if previous is None:
            del os.environ["SYMPOL_CACHE_DIR"]
        else:
            os.environ["SYMPOL_CACHE_DIR"] = previous


if __name__ == "__main__":
    sys.exit(main())
