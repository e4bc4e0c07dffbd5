"""Outside-in call tracing for sympol, installed by the benchmark.

`install()` wraps the public functions listed in TARGETS and rebinds
every reference to them in every loaded `sympol.*` module namespace, so
calls made through `from x import f` bindings are seen too.  Nothing
under `src/` is edited.  Each wrapper records, per traced name, the
call count, the inclusive time of outermost calls and the self time
(its duration minus the time of traced calls made inside it).  Spans
(name, start, end, parent, op) are kept in memory for the coarse names
and written out at the end; the hot kernel and geometry names are only
aggregated, so that tracing a set-up of a million row reductions stays
small.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

perf = time.perf_counter

# (module, attribute or Class.method, traced name).  The traced name's
# first component is the layer.  The list covers what the benchmark's
# workloads call; time in functions not listed counts as self time of the
# nearest listed caller.
TARGETS = (
    ("sympol._kernels", "rref", "_kernels.rref"),
    ("sympol._kernels", "residue", "_kernels.residue"),
    ("sympol._kernels", "nullspace", "_kernels.nullspace"),
    ("sympol._kernels", "intersect", "_kernels.intersect"),
    ("sympol.linalg", "Subspace.span", "linalg.span"),
    ("sympol.linalg", "Subspace.intersect", "linalg.intersect"),
    ("sympol.linalg", "Subspace.contains", "linalg.contains"),
    ("sympol.linalg", "Subspace.contains_vector", "linalg.contains_vector"),
    ("sympol.linalg", "Subspace.points", "linalg.points"),
    ("sympol.linalg", "intersect_all", "linalg.intersect_all"),
    ("sympol.space", "SymplecticSpace.perp", "space.perp"),
    ("sympol.space", "SymplecticSpace.all_points", "space.all_points"),
    ("sympol.space", "SymplecticSpace.ortho_masks", "space.ortho_masks"),
    ("sympol.bases", "enumerate_all_bases", "bases.enumerate_all_bases"),
    ("sympol.bases", "random_collineation", "bases.random_collineation"),
    ("sympol.bases", "random_base", "bases.random_base"),
    ("sympol.bases", "recognize", "bases.recognize"),
    ("sympol.bases", "PointMap.__init__", "bases.point_map_init"),
    ("sympol.bases", "PointMap.from_matrix", "bases.point_map_from_matrix"),
    ("sympol.bases", "PointMap.preserves_orthogonality", "bases.preserves_orthogonality"),
    ("sympol.bases", "PointMap.apply_base", "bases.apply_base"),
    ("sympol.grassmann", "grassmannian", "grassmann.grassmannian"),
    ("sympol.grassmann", "_grassmannian_memo", "grassmann.memo"),
    ("sympol.grassmann", "_levelwise", "grassmann.build"),
    ("sympol.grassmann", "_load_cached", "grassmann.load_cached"),
    ("sympol.grassmann", "hyperplanes_of", "grassmann.hyperplanes_of"),
    ("sympol.grassmann", "star_table", "grassmann.star_table"),
    ("sympol.grassmann", "adjacency_masks", "grassmann.adjacency_masks"),
    ("sympol.grassmann", "adjacent", "grassmann.adjacent"),
    ("sympol.grassmann", "Grassmannian.pair_relation", "grassmann.pair_relation"),
    ("sympol.subsets", "subset_universe", "subsets.subset_universe"),
    ("sympol.subsets", "covering_bases", "subsets.covering_bases"),
    ("sympol.subsets", "is_exact", "subsets.is_exact"),
    ("sympol.subsets", "maximal_inexact_oracle", "subsets.oracle"),
    ("sympol.subsets", "maximal_inexact_families", "subsets.families"),
    ("sympol.subsets", "inexactness_witness", "subsets.inexactness_witness"),
    ("sympol.subsets", "member_mask", "subsets.member_mask"),
    ("sympol.recon", "induce", "recon.induce"),
    ("sympol.recon", "descend", "recon.descend"),
    ("sympol.recon", "check_top_transport", "recon.check_top_transport"),
    ("sympol.recon", "check_base_preservation", "recon.check_base_preservation"),
    ("sympol.recon", "identify_base_subset", "recon.identify_base_subset"),
    ("sympol.recon", "reconstruct", "recon.reconstruct"),
    ("sympol.serialize", "load_json", "serialize.load_json"),
    ("sympol.serialize", "atomic_write_text", "serialize.atomic_write_text"),
    ("sympol.serialize", "atomic_write_json", "serialize.atomic_write_json"),
    ("sympol.serialize", "decode_point_map", "serialize.decode_point_map"),
    ("sympol.serialize", "decode_grassmannian_map", "serialize.decode_grassmannian_map"),
    ("sympol.serialize", "encode_point_map", "serialize.encode_point_map"),
    ("sympol.serialize", "encode_grassmannian_map", "serialize.encode_grassmannian_map"),
    ("sympol.cli", "main", "cli.main"),
    ("sympol.cli", "cmd_enumerate", "cli.enumerate"),
    ("sympol.cli", "cmd_random_collineation", "cli.random_collineation"),
    ("sympol.cli", "cmd_induce", "cli.induce"),
    ("sympol.cli", "cmd_reconstruct", "cli.reconstruct"),
)

# Names called so often that keeping one span per call would swamp memory;
# they are aggregated only.
HOT_LAYERS = ("_kernels", "linalg", "space")
HOT_NAMES = frozenset(
    {
        "grassmann.hyperplanes_of",
        "grassmann.adjacent",
        "grassmann.pair_relation",
        "grassmann.grassmannian",
        "bases.recognize",
    }
)
MAX_SPANS = 200_000

# lru_cache objects whose hit and miss counts are read from cache_info().
MEMOS = (
    ("sympol.grassmann", "_grassmannian_memo", "grassmann"),
    ("sympol.grassmann", "star_table", "star_table"),
    ("sympol.grassmann", "_adjacency_masks_memo", "adjacency_masks"),
    ("sympol.subsets", "subset_universe", "universe"),
    ("sympol.bases", "enumerate_all_bases", "bases"),
)


def memo_snapshot():
    """{label: (hits, misses)} for the package's memo tables."""
    out = {}
    for mod, attr, label in MEMOS:
        info = getattr(sys.modules[mod], attr).cache_info()
        out[label] = (info.hits, info.misses)
    return out


class Recorder:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.stack = []  # frames: [name, child_time, span_id]
        self.active = {}  # name -> nesting depth, for inclusive time
        self.stats = {}  # name -> [calls, inclusive_s, self_s]
        self.counters = {}
        self.spans = []
        self.dropped_spans = 0
        self.op = "setup"
        self.memo_start = memo_snapshot()
        self.misses_seen = {
            "bases.bases_enumerated": self.memo_start["bases"][1],
            "grassmann.members": self.memo_start["grassmann"][1],
        }

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, after=None):
        rec = self
        keep = name.split(".")[0] not in HOT_LAYERS and name not in HOT_NAMES
        stats = rec.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec.stack
            span_id = None
            if keep:
                if len(rec.spans) < MAX_SPANS:
                    parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    span_id = len(rec.spans)
                    rec.spans.append([name, 0.0, 0.0, parent, rec.op])
                else:
                    rec.dropped_spans += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            depth = rec.active.get(name, 0)
            rec.active[name] = depth + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(rec, fn, args, kwargs, result)
                return result
            finally:
                t1 = perf()
                stack.pop()
                rec.active[name] = depth
                dur = t1 - t0
                stats[0] += 1
                if depth == 0:
                    stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span_id is not None:
                    rec.spans[span_id][1] = t0
                    rec.spans[span_id][2] = t1

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1, "parent": parent, "op": op}))
                fh.write("\n")

    def snapshot(self):
        """Plain-data copy of counts, times and counters so far."""
        counters = dict(self.counters)
        now = memo_snapshot()
        for label, (hits, misses) in now.items():
            h0, m0 = self.memo_start[label]
            counters[f"memo.{label}.hits"] = hits - h0
            counters[f"memo.{label}.misses"] = misses - m0
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counters": counters,
        }


def _count_fresh_results(counter):
    """Post-call hook for an lru_cache'd function: add the size of each result
    the call had to build rather than take from the memo."""

    def hook(rec, fn, args, kwargs, result):
        misses = fn.cache_info().misses
        if misses > rec.misses_seen[counter]:
            rec.misses_seen[counter] = misses
            rec.count(counter, len(result))

    return hook


def _after_load_cached(rec, fn, args, kwargs, result):
    if result is not None:
        rec.count("grassmann.disk_loads")


def _after_write_text(rec, fn, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    rec.count("serialize.bytes_written", len(text.encode()))
    if rec.active.get("grassmann.memo"):
        rec.count("grassmann.disk_writes")


def _after_load_json(rec, fn, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rec.count("serialize.bytes_read", os.path.getsize(path))


HOOKS = {
    "bases.enumerate_all_bases": _count_fresh_results("bases.bases_enumerated"),
    "grassmann.memo": _count_fresh_results("grassmann.members"),
    "grassmann.load_cached": _after_load_cached,
    "serialize.atomic_write_text": _after_write_text,
    "serialize.load_json": _after_load_json,
}


def install():
    """Wrap every target, rebind each reference to it in sympol's modules, return the Recorder."""
    for mod in {m for m, _, _ in TARGETS} | {"sympol"}:
        importlib.import_module(mod)
    rec = Recorder()
    modules = [m for name, m in sys.modules.items() if m is not None and name.split(".")[0] == "sympol"]
    for mod_name, attr, name in TARGETS:
        mod = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(rec.wrap(raw.__func__, name, HOOKS.get(name))))
            else:
                setattr(cls, meth, rec.wrap(raw, name, HOOKS.get(name)))
            continue
        orig = getattr(mod, attr)
        traced = rec.wrap(orig, name, HOOKS.get(name))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, traced)
    return rec
