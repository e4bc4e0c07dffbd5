"""One fresh-process session of a library workload: set-up, then ops.

Run by run.py with SYMPOL_CACHE_DIR pointing at an empty directory and
PERFBENCH_T0 holding the parent's perf_counter() reading at spawn time
(the clock is system-wide, so set-up time includes interpreter start
and imports).  The session writes one JSON record to --out.

    python3 perfbench/session.py --workload roundtrip-3-2 --seed 1 \
        --ops-seconds 4 --min-ops 10 --max-ops 100000 --trace 0 --out rec.json
    python3 perfbench/session.py --provenance prov.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import sys
import time

perf = time.perf_counter


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Oracle32:
    """Exhaustive exactness oracle at (n, p) = (3, 2)."""

    def __init__(self):
        from sympol import SymplecticSpace

        self.space = SymplecticSpace.standard(3, 2)

    def setup(self):
        from sympol.bases import enumerate_all_bases
        from sympol.subsets import subset_universe

        bases = enumerate_all_bases(self.space)
        universes = [subset_universe(self.space, k) for k in range(3)]
        return digest((len(bases), universes))

    def op(self, seed, i):
        from sympol.bases import random_base
        from sympol.subsets import (
            BaseSubset,
            inexactness_witness,
            is_exact,
            maximal_inexact_families,
            maximal_inexact_oracle,
        )

        k = i % 3
        bs = BaseSubset(random_base(self.space, f"{seed}:{i}"), k)
        oracle = maximal_inexact_oracle(bs)
        constructed = {members for _, members in maximal_inexact_families(bs)}
        if set(oracle) != constructed:
            raise AssertionError(f"oracle and constructed families differ at k={k}")
        rng = random.Random(f"{seed}:{i}:collection")
        collection = frozenset(rng.sample(bs.index_sets, rng.randint(1, len(bs))))
        witness = inexactness_witness(bs, collection)
        exact = is_exact(bs, collection)
        if witness is not None and exact:
            raise AssertionError(f"witness {witness} found but is_exact reports exact")
        keys = [sorted(sorted(s) for s in c) for c in oracle]
        return digest((k, bs.base.points, keys, sorted(map(sorted, collection)), witness, exact))


class Roundtrip32:
    """Induce a seeded collineation to G_2 and reconstruct it at (3, 2)."""

    def __init__(self):
        from sympol import SymplecticSpace

        self.space = SymplecticSpace.standard(3, 2)

    def setup(self):
        from sympol.grassmann import adjacency_masks, grassmannian, star_table

        # Warm exactly the memo keys the ops use: grassmannian() with the
        # disk cache on, and star_table with cache_dir passed positionally
        # as descend() does.
        layers = [grassmannian(self.space, k) for k in range(3)]
        stars = [star_table(self.space, k, None) for k in (1, 2)]
        masks = adjacency_masks(self.space, 2)
        return digest(([[s.rows for s in g] for g in layers], stars, masks))

    def op(self, seed, i):
        from sympol.bases import random_collineation
        from sympol.grassmann import adjacency_masks
        from sympol.recon import induce, reconstruct

        h = random_collineation(self.space, f"{seed}:{i}")
        f = induce(h, 2)
        adj = adjacency_masks(self.space, 2)[0]
        for a, row in enumerate(adj):
            image = 0
            for b in _bits(row):
                image |= 1 << f.table[b]
            if image != adj[f.table[a]]:
                raise AssertionError(f"induced map breaks adjacency at member {a}")
        pm, cert = reconstruct(f)
        if pm != h or not cert["pass"]:
            raise AssertionError("reconstruction did not recover the collineation")
        return digest((f.table, sorted(pm.table.items()), json.dumps(cert, sort_keys=True)))


WORKLOADS = {"oracle-3-2": Oracle32, "roundtrip-3-2": Roundtrip32}


def count_files(path):
    return sum(len(files) for _, _, files in os.walk(path))


def provenance():
    import sympol

    return {
        "backend": sympol.BACKEND,
        "version": sympol.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sympol_file": sympol.__file__,
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--provenance"]:
        with open(argv[1], "w") as fh:
            json.dump(provenance(), fh)
        return 0
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True)
    ap.add_argument("--ops-seconds", type=float, required=True)
    ap.add_argument("--min-ops", type=int, required=True, help="ops always run; run_s ends after them")
    ap.add_argument("--max-ops", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="span output path when tracing")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    t0 = float(os.environ["PERFBENCH_T0"])
    cache_dir = os.environ["SYMPOL_CACHE_DIR"]

    rec = None
    if args.trace:
        import tracer

        rec = tracer.install()
    from tracer import memo_snapshot

    workload = WORKLOADS[args.workload]()
    files = {"before_setup": count_files(cache_dir)}
    setup_digest = workload.setup()
    t_setup = perf()
    files["after_setup"] = count_files(cache_dir)
    memo_setup = memo_snapshot()
    trace_setup = rec.snapshot() if rec else None

    ops = []
    i = 0
    while i < args.max_ops and (i < args.min_ops or perf() - t_setup < args.ops_seconds):
        if rec:
            rec.op = i
        a = perf()
        try:
            out = {"ok": True, "digest": workload.op(args.seed, i)}
        except Exception as exc:  # an op failure is recorded, the loop goes on
            out = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        out["s"] = perf() - a
        ops.append(out)
        i += 1
        if i == args.min_ops:
            t_user = perf()
    t_end = perf()
    files["after_ops"] = count_files(cache_dir)
    memo_ops = memo_snapshot()
    cold = sorted(label for label in memo_setup if memo_ops[label][1] != memo_setup[label][1])

    result = {
        "setup_s": t_setup - t0,
        "run_s": t_user - t0,
        "op_phase_s": t_end - t_setup,
        "setup_digest": setup_digest,
        "ops": ops,
        "cache_files": files,
        "memo_missed_in_ops": cold,
    }
    if rec:
        rec.op = "end"
        result["trace"] = {"setup": trace_setup, "final": rec.snapshot(), "dropped_spans": rec.dropped_spans}
        if args.spans:
            rec.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
