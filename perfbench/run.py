"""The sympol benchmark: three seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload roundtrip-3-2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Workloads (closed loop, one client; each session is a fresh process
tree with its own empty SYMPOL_CACHE_DIR, and one runs at a time):

  oracle-3-2     library calls at (n, p) = (3, 2).  Set-up enumerates all
                 30,240 symplectic bases and the base-subset universe of
                 layers 0..2.  An op checks the exhaustive maximal-inexact
                 oracle against the constructed families for a seeded base
                 and layer i mod 3, then checks is_exact against the
                 inexactness witness on a seeded subcollection.
  roundtrip-3-2  library calls at (3, 2).  Set-up builds G_0..G_2, the star
                 tables of layers 1 and 2 and the adjacency masks of G_2.
                 An op induces a seeded collineation to G_2, checks that it
                 carries adjacency onto itself, reconstructs it and requires
                 the original map back with a passing certificate.
  cli-3-3        the sympol CLI at (3, 3), one process per command.  Set-up
                 is a cold `sympol enumerate`; an op is the pipeline
                 random-collineation -> induce --k 2 -> reconstruct, whose
                 output file must equal the collineation file byte for byte.

With --trace 0 the run makes several fresh sessions (WORKLOADS below)
and shares --seconds of op time between them.  It prints the end-to-end
metrics: setup_s, and run_s (set-up plus a fixed op count), are medians
over sessions; op latencies are pooled over sessions; peak_rss_mib is
the median over sessions of their largest process; fail_ratio is
printed by name but carried in the result as failed / attempted.  With --trace 1 it
runs a fixed number of ops three times: untraced, traced (perfbench/
tracer.py wraps sympol's public functions from outside), and untraced on
a held-out seed; it prints the per-layer metrics and the tracing
overhead.  Either way the last stdout line is one JSON object with keys
correct, attempted, failed and metrics.  Records and spans are kept
under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from session import count_files

perf = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0

# sessions: fresh set-ups per untraced run; user_ops: ops counted into
# run_s after set-up (what one user session waits for); trace_ops: fixed
# op count of each traced-run session, so that traced counts repeat exactly.
WORKLOADS = {
    "oracle-3-2": {"sessions": 3, "user_ops": 300, "trace_ops": 30},
    "roundtrip-3-2": {"sessions": 5, "user_ops": 10, "trace_ops": 6},
    "cli-3-3": {"sessions": 3, "user_ops": 1, "trace_ops": 1},
}
HELD_OUT_OFFSET = 1_000_003

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

ALL = ("oracle-3-2", "roundtrip-3-2", "cli-3-3")
OR, RT, CL = ALL
# Metric names must start with a letter, so the sympol._kernels layer is
# reported as "kernels"; its traced names keep the module's own spelling.
# Per-layer metrics: (name, unit, scope, source, workloads where it must be
# nonzero).  scope "run" totals the traced session (set-up plus the fixed
# ops); "op" divides the op phase by the op count.  Sources: ("calls", f)
# counts calls to traced name f; ("incl", f) is the wall time inside
# outermost calls to f; ("self", layer) sums self time over the layer's
# traced names; ("self_of", f, ...) sums self time of the names given;
# ("counter", c) reads a counter set by the tracer's hooks.
PER_LAYER = (
    ("kernels.rref_calls", "count", "run", ("calls", "_kernels.rref"), ALL),
    ("kernels.intersect_calls", "count", "op", ("calls", "_kernels.intersect"), (RT,)),
    ("kernels.nullspace_calls", "count", "op", ("calls", "_kernels.nullspace"), (RT,)),
    ("kernels.residue_calls", "count", "run", ("calls", "_kernels.residue"), ALL),
    ("kernels.self_s", "s", "run", ("self", "_kernels"), ALL),
    ("linalg.span_calls", "count", "run", ("calls", "linalg.span"), (OR, RT)),
    ("linalg.intersect_calls", "count", "op", ("calls", "linalg.intersect"), (RT,)),
    ("linalg.self_s", "s", "op", ("self", "linalg"), (RT,)),
    ("space.perp_calls", "count", "run", ("calls", "space.perp"), ALL),
    ("space.self_s", "s", "run", ("self", "space"), ALL),
    ("bases.enumerate_all_bases_s", "s", "run", ("incl", "bases.enumerate_all_bases"), (OR,)),
    ("bases.bases_enumerated", "count", "run", ("counter", "bases.bases_enumerated"), (OR,)),
    ("bases.random_collineation_s", "s", "op", ("incl", "bases.random_collineation"), (RT, CL)),
    ("bases.preserves_orthogonality_s", "s", "op", ("incl", "bases.preserves_orthogonality"), (RT, CL)),
    ("bases.self_s", "s", "run", ("self", "bases"), ALL),
    ("grassmann.build_s", "s", "run", ("incl", "grassmann.build"), ALL),
    ("grassmann.members", "count", "run", ("counter", "grassmann.members"), ALL),
    ("grassmann.memo_misses", "count", "run", ("counter", "memo.grassmann.misses"), ALL),
    ("grassmann.star_table_s", "s", "run", ("incl", "grassmann.star_table"), (RT, CL)),
    ("grassmann.disk_loads", "count", "run", ("counter", "grassmann.disk_loads"), (CL,)),
    ("grassmann.disk_writes", "count", "run", ("counter", "grassmann.disk_writes"), ALL),
    ("grassmann.hyperplanes_of_calls", "count", "op", ("calls", "grassmann.hyperplanes_of"), (RT, CL)),
    ("grassmann.hyperplanes_of_s", "s", "op", ("incl", "grassmann.hyperplanes_of"), (RT, CL)),
    ("grassmann.adjacency_masks_s", "s", "run", ("incl", "grassmann.adjacency_masks"), (RT,)),
    ("grassmann.self_s", "s", "run", ("self", "grassmann"), ALL),
    ("subsets.subset_universe_s", "s", "run", ("incl", "subsets.subset_universe"), (OR,)),
    ("subsets.universe_memo_hits", "count", "run", ("counter", "memo.universe.hits"), (OR,)),
    ("subsets.covering_bases_calls", "count", "op", ("calls", "subsets.covering_bases"), (OR,)),
    ("subsets.covering_bases_s", "s", "op", ("incl", "subsets.covering_bases"), (OR,)),
    ("subsets.oracle_s", "s", "op", ("incl", "subsets.oracle"), (OR,)),
    ("subsets.self_s", "s", "run", ("self", "subsets"), (OR,)),
    ("recon.induce_s", "s", "op", ("incl", "recon.induce"), (RT, CL)),
    ("recon.descend_s", "s", "op", ("incl", "recon.descend"), (RT, CL)),
    ("recon.check_top_transport_s", "s", "op", ("incl", "recon.check_top_transport"), (RT, CL)),
    ("recon.check_base_preservation_s", "s", "op", ("incl", "recon.check_base_preservation"), (RT, CL)),
    ("recon.reconstruct_s", "s", "op", ("incl", "recon.reconstruct"), (RT, CL)),
    ("recon.self_s", "s", "op", ("self", "recon"), (RT, CL)),
    ("serialize.bytes_read", "B", "op", ("counter", "serialize.bytes_read"), (CL,)),
    ("serialize.load_s", "s", "op", ("incl", "serialize.load_json"), (CL,)),
    ("serialize.bytes_written", "B", "op", ("counter", "serialize.bytes_written"), (CL,)),
    ("serialize.write_s", "s", "op", ("incl", "serialize.atomic_write_text"), (CL,)),
    (
        "serialize.decode_s",
        "s",
        "op",
        ("self_of", "serialize.decode_point_map", "serialize.decode_grassmannian_map"),
        (CL,),
    ),
    ("serialize.self_s", "s", "run", ("self", "serialize"), ALL),
    ("cli.process_start_s", "s", "op", ("counter", "cli.process_start_s"), (CL,)),
    ("cli.enumerate_s", "s", "run", ("incl", "cli.enumerate"), (CL,)),
    ("cli.random_collineation_s", "s", "op", ("incl", "cli.random_collineation"), (CL,)),
    ("cli.induce_s", "s", "op", ("incl", "cli.induce"), (CL,)),
    ("cli.reconstruct_s", "s", "op", ("incl", "cli.reconstruct"), (CL,)),
    ("cli.self_s", "s", "run", ("self", "cli"), (CL,)),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------- processes


class Runner:
    """Spawns one child at a time under a run-wide deadline."""

    def __init__(self, deadline):
        self.deadline = deadline

    def spawn(self, argv, env, log_path):
        """Run a child to completion: (exit code, wall seconds, peak RSS MiB)."""
        remaining = self.deadline - perf()
        if remaining <= 0:
            raise BenchError("run deadline passed")
        env = dict(env)
        with open(log_path, "ab") as log:
            t0 = perf()
            env["PERFBENCH_T0"] = repr(t0)
            proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            reaped = False
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                reaped = True
            finally:
                timer.cancel()
                if not reaped:
                    proc.kill()
                    proc.wait()
            wall = perf() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if perf() >= self.deadline:
            raise BenchError(f"child {argv[1:3]} overran the run deadline")
        # ru_maxrss is in KiB on Linux, and covers this child alone.
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


def child_env(cache_dir, extra=None):
    env = dict(os.environ)
    env.pop("SYMPOL_PURE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SYMPOL_CACHE_DIR"] = str(cache_dir)
    env.pop("PERFBENCH_TRACE_OUT", None)
    env.update(extra or {})
    return env


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


# ---------------------------------------------------------------- sessions


def library_session(runner, workload, seed, sdir, ops_seconds, min_ops, max_ops, trace):
    cache = sdir / "cache"
    cache.mkdir(parents=True)
    out = sdir / "record.json"
    argv = [
        sys.executable, str(HERE / "session.py"),
        "--workload", workload, "--seed", str(seed),
        "--ops-seconds", repr(ops_seconds), "--min-ops", str(min_ops), "--max-ops", str(max_ops),
        "--trace", str(int(trace)), "--out", str(out),
    ]
    if trace:
        argv += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
    code, _, rss = runner.spawn(argv, child_env(cache), sdir / "log.txt")
    if code != 0 or not out.exists():
        raise BenchError(f"{workload} session exited with {code}; see {sdir / 'log.txt'}")
    rec = json.loads(out.read_text())
    rec["peak_rss_mib"] = rss
    rec["traces"] = [rec.pop("trace")] if trace else []
    return rec


def cli_session(runner, seed, sdir, ops_seconds, min_ops, max_ops, trace):
    """Cold enumerate, then collineation -> induce -> reconstruct pipelines."""
    cache = sdir / "cache"
    cache.mkdir(parents=True)
    log = sdir / "log.txt"
    launcher = [sys.executable, str(HERE / "launch.py")]
    traces = []
    rss = []

    def command(args, tag):
        extra = {}
        trace_file = OUT / f"trace-cli-3-3-seed{seed}-{tag}.json"  # spans land next to it
        if trace:
            trace_file.unlink(missing_ok=True)
            extra["PERFBENCH_TRACE_OUT"] = str(trace_file)
        code, wall, peak = runner.spawn(launcher + args, child_env(cache, extra), log)
        rss.append(peak)
        if trace and trace_file.exists():
            traces.append(json.loads(trace_file.read_text()))
        return code, wall

    files = {"before_setup": count_files(cache)}
    counts = sdir / "counts.csv"
    code, setup_s = command(["enumerate", "--n", "3", "--p", "3", "--cache", str(cache), "--out", str(counts)], "setup")
    if code != 0:
        raise BenchError(f"cli set-up exited with {code}; see {log}")
    files["after_setup"] = count_files(cache)
    setup_digest = hashlib.sha256(
        b"".join(
            (cache / name).read_bytes() for name in sorted(os.listdir(cache))
        ) + counts.read_bytes()
    ).hexdigest()[:16]
    setup_snapshot = merge_traces(traces, "final")

    ops = []
    t_ops = perf()
    i = 0
    while i < max_ops and (i < min_ops or perf() - t_ops < ops_seconds):
        h, f, e, c = (sdir / f"{name}{i}.json" for name in ("h", "f", "e", "c"))
        a = perf()
        steps = (
            (["random-collineation", "--n", "3", "--p", "3", "--seed", f"{seed}-{i}", "--out", str(h)], "rc"),
            (["induce", "--map", str(h), "--k", "2", "--out", str(f)], "in"),
            (["reconstruct", "--map", str(f), "--out", str(e), "--certificate", str(c), "--cache", str(cache)], "re"),
        )
        codes = [command(args, f"{tag}{i}")[0] for args, tag in steps]
        s = perf() - a
        if codes != [0, 0, 0]:
            ops.append({"ok": False, "error": f"exit codes {codes}", "s": s})
        elif e.read_bytes() != h.read_bytes():
            ops.append({"ok": False, "error": "embedding differs from the collineation", "s": s})
        elif not json.loads(c.read_text()).get("pass"):
            ops.append({"ok": False, "error": "certificate does not pass", "s": s})
        else:
            ops.append({"ok": True, "s": s, "digest": "-".join(file_digest(p) for p in (h, f, e, c))})
        i += 1
        if i == min_ops:
            t_user = perf()
    op_phase = perf() - t_ops
    files["after_ops"] = count_files(cache)
    return {
        "setup_s": setup_s,
        "run_s": setup_s + (t_user - t_ops),
        "op_phase_s": op_phase,
        "setup_digest": setup_digest,
        "ops": ops,
        "cache_files": files,
        "memo_missed_in_ops": [],
        "peak_rss_mib": max(rss),
        "traces": [
            {
                "setup": setup_snapshot,
                "final": merge_traces(traces, "final"),
                "dropped_spans": sum(t["dropped_spans"] for t in traces),
            }
        ]
        if trace
        else [],
    }


def probe_provenance(tmp):
    """Backend and version of the sympol that the children import, which must be the checkout's."""
    out = tmp / "provenance.json"
    code = subprocess.run(
        [sys.executable, str(HERE / "session.py"), "--provenance", str(out)],
        env=child_env(tmp), cwd=ROOT, timeout=60,
    ).returncode
    if code != 0:
        raise BenchError("cannot import sympol from the checkout")
    prov = json.loads(out.read_text())
    if not prov.pop("sympol_file").startswith(str(SRC)):
        raise BenchError(f"children import sympol from outside {SRC}")
    return prov


def session(runner, workload, seed, sdir, ops_seconds, min_ops, max_ops, trace=False):
    sdir.mkdir(parents=True)
    if workload == "cli-3-3":
        return cli_session(runner, seed, sdir, ops_seconds, min_ops, max_ops, trace)
    return library_session(runner, workload, seed, sdir, ops_seconds, min_ops, max_ops, trace)


# ---------------------------------------------------------------- checks


def check_sessions(records, label):
    """Problems found in sessions of one seed, which must agree on set-up and on each shared op."""
    problems = []
    first = records[0]
    for rec in records:
        if rec["setup_digest"] != first["setup_digest"]:
            problems.append(f"{label}: set-up digests differ between sessions of one seed")
        for a, b in zip(first["ops"], rec["ops"]):
            if a.get("digest") != b.get("digest"):
                problems.append(f"{label}: op digests differ between sessions of one seed")
                break
        files = rec["cache_files"]
        if files["before_setup"] != 0 or files["after_setup"] == 0:
            problems.append(f"{label}: cache directory was not fresh and filled by set-up: {files}")
        if rec["memo_missed_in_ops"]:
            problems.append(f"{label}: ops missed memo tables warmed by set-up: {rec['memo_missed_in_ops']}")
        for op in rec["ops"]:
            if not op["ok"]:
                problems.append(f"{label}: op failed: {op['error']}")
    return problems


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# ---------------------------------------------------------------- runs


def untraced_run(runner, workload, seed, seconds, tmp):
    """End-to-end metrics from fresh sessions sharing the op time."""
    cfg = WORKLOADS[workload]
    n = cfg["sessions"]
    records = [
        session(runner, workload, seed, tmp / f"s{j}", seconds / n, cfg["user_ops"], 10**9)
        for j in range(n)
    ]
    latencies = sorted(op["s"] for rec in records for op in rec["ops"])
    good = sum(op["ok"] for rec in records for op in rec["ops"])
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "run_s": statistics.median(r["run_s"] for r in records),
        "ops_per_s": good / sum(r["op_phase_s"] for r in records),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * percentile(latencies, 0.90),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in records),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    notes = {
        "sessions": n,
        "op_samples": len(latencies),
        "fail_ratio": 1 - good / len(latencies),
        "p90_note": "" if len(latencies) >= 100 else f"only {len(latencies)} samples: p90 is near the slowest op",
    }
    return records, check_sessions(records, workload), metrics, notes


def merge_traces(traces, phase):
    """Sum stats and counters over process snapshots for one phase ('setup' or 'final')."""
    stats, counters = {}, {}
    for t in traces:
        snap = t.get(phase)
        for name, (calls, incl, self_s) in snap["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for key, value in snap["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"stats": stats, "counters": counters}


def source_value(source, snap):
    stats, counters = snap["stats"], snap["counters"]
    kind = source[0]
    if kind == "calls":
        return stats.get(source[1], (0, 0.0, 0.0))[0]
    if kind == "incl":
        return stats.get(source[1], (0, 0.0, 0.0))[1]
    if kind == "self":
        return sum(v[2] for name, v in stats.items() if name.split(".")[0] == source[1])
    if kind == "self_of":
        return sum(stats.get(name, (0, 0.0, 0.0))[2] for name in source[1:])
    return counters.get(source[1], 0)


def layer_metrics(rec, ops):
    """Per-layer metrics from one traced session; the op phase is final minus set-up."""
    total = merge_traces(rec["traces"], "final")
    setup = merge_traces(rec["traces"], "setup")
    out = {}
    for name, unit, scope, source, _ in PER_LAYER:
        value = source_value(source, total)
        if scope == "op":
            value = (value - source_value(source, setup)) / ops
        out[name] = {"value": value, "unit": unit}
    return out


def traced_run(runner, workload, seed, tmp):
    """Per-layer metrics: the same fixed ops untraced, traced, and untraced on a held-out seed."""
    k = WORKLOADS[workload]["trace_ops"]
    held_seed = seed + HELD_OUT_OFFSET
    plain = session(runner, workload, seed, tmp / "plain", 0.0, k, k)
    traced = session(runner, workload, seed, tmp / "traced", 0.0, k, k, trace=True)
    held = session(runner, workload, held_seed, tmp / "held", 0.0, k, k)
    problems = check_sessions([plain, traced], f"{workload} traced vs untraced")
    problems += check_sessions([held], f"{workload} held-out seed {held_seed}")
    metrics = layer_metrics(traced, k)
    for name, _, _, _, active in PER_LAYER:
        if workload in active and not metrics[name]["value"] > 0:
            problems.append(f"{workload}: traced metric {name} recorded nothing; a binding was missed")
    metrics["trace.overhead_s"] = {"value": traced["run_s"] - plain["run_s"], "unit": "s"}
    notes = {
        "traced_run_s": traced["run_s"],
        "untraced_run_s": plain["run_s"],
        "dropped_spans": sum(t["dropped_spans"] for t in traced["traces"]),
        "held_out_seed": held_seed,
    }
    return [plain, traced, held], problems, metrics, notes


# ---------------------------------------------------------------- output


def source_revision():
    """Git revision when the checkout is a repository, and a digest of src/ always."""
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted(SRC.rglob("*.pyx")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return rev, h.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, runner):
    tmp = OUT / f"tmp-{os.getpid()}-{workload}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        provenance = probe_provenance(tmp)
        if trace:
            records, problems, metrics, notes = traced_run(runner, workload, seed, tmp)
        else:
            records, problems, metrics, notes = untraced_run(runner, workload, seed, seconds, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    notes["cache_files"] = [r["cache_files"] for r in records]
    ops = [op for rec in records for op in rec["ops"]]
    rev, src_digest = source_revision()
    provenance.update(git_revision=rev, source_digest=src_digest, seed=seed)
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "provenance": provenance,
        "metrics": metrics,
        "notes": notes,
        "problems": problems,
        "attempted": len(ops),
        "failed": sum(not op["ok"] for op in ops),
        "op_digests": [[op.get("digest") for op in rec["ops"]] for rec in records],
    }
    (OUT / f"record-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return record


def report(record):
    wl = record["workload"]
    prov = record["provenance"]
    print(
        f"# {wl} seed={prov['seed']} backend={prov['backend']} sympol={prov['version']} "
        f"python={prov['python']} nproc={prov['nproc']} rev={prov['git_revision'][:12]} src={prov['source_digest']}"
    )
    notes = record["notes"]
    for name, m in record["metrics"].items():
        print(f"{wl} {name} = {m['value']:.6g} {m['unit']}")
    if record["trace"]:
        print(
            f"{wl} traced run_s {notes['traced_run_s']:.3f} s vs untraced {notes['untraced_run_s']:.3f} s; "
            f"held-out seed {notes['held_out_seed']} checked; dropped spans {notes['dropped_spans']}"
        )
    else:
        print(f"{wl} fail_ratio = {notes['fail_ratio']:.6g} 1")
        print(
            f"{wl} sessions={notes['sessions']} op samples={notes['op_samples']} {notes['p90_note']}".rstrip()
        )
    print(f"{wl} cache files per session (before set-up, after set-up, after ops): "
          + " ".join(f"{c['before_setup']}/{c['after_setup']}/{c['after_ops']}" for c in notes["cache_files"]))
    for problem in record["problems"]:
        print(f"{wl} PROBLEM {problem}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0, help="op time per untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sympol" / "__init__.py").is_file():
        print(f"error: no sympol sources under {SRC}", file=sys.stderr)
        return 2
    # On SIGTERM, unwind through Runner.spawn so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    workloads = ALL if args.workload == "all" else (args.workload,)
    runner = Runner(perf() + DEADLINE_S * len(workloads))
    records = []
    try:
        for wl in workloads:
            records.append(run_workload(wl, args.seed, args.seconds, bool(args.trace), runner))
            report(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": not any(r["problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
