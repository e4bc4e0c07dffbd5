"""Command line front end: enumeration, verification suites, map plumbing.

Subcommands
  enumerate            build Grassmannian caches and a layer count table
  verify               run a named verification suite and write a report
  induce               lift a point-map file to a Grassmannian layer
  reconstruct          recover a point map from a layer-map file
  random-collineation  emit a seeded symplectic collineation

Every command is deterministic for a fixed seed.  The suites that verify
runs, and the registry naming them, live in sympol.suites.  That module
is imported only by verify and when a help text lists the suites (the
--suite choices and the epilog are read from it only when argparse
checks or formats them), so a process running any other command never
compiles it.
Reports are JSON with a CSV summary next to them.  Exit status 0 means
everything checked passed, 1 means a mathematical check failed
(witnesses are in the report), 2 means the request itself was unusable
or infeasible.
"""

from __future__ import annotations

import argparse
import os
import sys

from sympol.bases import random_collineation
from sympol.errors import (
    DimensionError,
    FeasibilityError,
    MapCheckError,
    ReconstructionError,
    SchemaError,
    SpaceMismatchError,
)
from sympol.grassmann import default_cache_dir, grassmannian, grassmannian_size
from sympol.recon import induce, reconstruct
from sympol.serialize import (
    atomic_write_json,
    decode_grassmannian_map,
    decode_point_map,
    encode_grassmannian_map,
    encode_point_map,
    load_json,
    write_csv,
    write_report_csv,
)
from sympol.space import BASE_GRID, ENUM_GRID, SymplecticSpace


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
    rows = [["n", "p", "k", "count", "closed_form"]]
    status = 0
    lines = []
    for k in (cfg.k,) if cfg.k is not None else range(cfg.n):
        g = grassmannian(space, k)
        formula = grassmannian_size(cfg.n, cfg.p, k)
        rows.append([cfg.n, cfg.p, k, len(g), formula])
        marker = "" if len(g) == formula else "  MISMATCH"
        if len(g) != formula:
            status = 1
        lines.append(f"G_{k}(n={cfg.n}, p={cfg.p}): {len(g)} elements (closed form {formula}){marker}")
    out = cfg.out or os.path.join(cache, f"counts-n{cfg.n}-p{cfg.p}.csv")
    write_csv(out, rows)
    lines.append(f"counts written to {out}; caches under {cache}")
    # printed only once every file is written, so a failed write prints nothing
    print("\n".join(lines))
    return status


def cmd_verify(cfg):
    from sympol.suites import SUITES, print_entries, run_suites

    try:
        space = SymplecticSpace.standard(cfg.n, cfg.p)
    except FeasibilityError as exc:
        return _usage(str(exc))
    names = list(SUITES) if cfg.suite == "all" else [cfg.suite]
    if cfg.k is not None and not 0 <= cfg.k < cfg.n:
        return _usage(f"k must lie in 0..{cfg.n - 1}")
    if cfg.trials is not None and cfg.trials < 1:
        return _usage(f"--trials must be at least 1, got {cfg.trials}")
    if cfg.seed is None and any(SUITES[n].trials is not None for n in names):
        return _usage("randomized suites need --seed for reproducibility")
    entries = list(run_suites(space, cfg, names))
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
    print_entries(entries)
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
    except (SchemaError, MapCheckError, SpaceMismatchError) as exc:
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
    # certificate first: a failed write never leaves an embedding without one
    atomic_write_json(cert_path, certificate)
    atomic_write_json(out, encode_point_map(h))
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
    from sympol.suites import SUITES

    lines = [
        "feasibility grids (hard-coded):",
        f"  enumeration and map plumbing   {ENUM_GRID}",
        f"  exactness oracle               {BASE_GRID}",
        f"  collineation suites            {BASE_GRID}",
        f"  clique search                  {BASE_GRID}",
        "",
        "verification suites:",
    ]
    for name, suite in SUITES.items():
        tag = " (seeded)" if suite.trials is not None else ""
        lines.append(f"  {name}{tag}")
        lines.append(f"      {suite.anchor}")
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose epilog may be a function, called when the
    help text is first formatted, so that building the parser imports
    no suite."""

    def format_help(self):
        if callable(self.epilog):
            self.epilog = self.epilog()
        return super().format_help()


class _SuiteChoices:
    """The --suite choices, every suite name and then "all", read from
    sympol.suites only when argparse checks or lists them."""

    def __iter__(self):
        from sympol.suites import SUITES

        return iter([*SUITES, "all"])


def build_parser():
    parser = _Parser(
        prog="sympol",
        description=__doc__.split("\n\n")[0],
        epilog=_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid(p):
        p.add_argument("--n", type=int, required=True, help="half the vector space dimension")
        p.add_argument("--p", type=int, required=True, help="field order (prime)")
        p.add_argument("--k", type=int, default=None, help="restrict to one layer")

    pe = sub.add_parser("enumerate", help="build Grassmannian caches and a count table")
    add_grid(pe)
    pe.add_argument("--cache", default=None, help="cache directory (default: SYMPOL_CACHE_DIR or ~/.cache/sympol)")
    pe.add_argument("--out", default=None, help="CSV output path")
    pe.set_defaults(func=cmd_enumerate)

    pv = sub.add_parser(
        "verify",
        help="run a verification suite",
        epilog=_epilog,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    add_grid(pv)
    # set after add_argument, which would otherwise list the choices at once
    pv.add_argument("--suite", required=True).choices = _SuiteChoices()
    pv.add_argument("--seed", default=None, help="mandatory for seeded suites")
    pv.add_argument("--trials", type=int, default=None, help="override the per-suite trial count")
    pv.add_argument("--out", default=None, help="report JSON path (CSV lands next to it)")
    pv.add_argument("--cache", default=None, help="cache directory")
    pv.set_defaults(func=cmd_verify)

    pi = sub.add_parser("induce", help="lift a point-map file to a Grassmannian layer")
    pi.add_argument("--map", required=True, help="point-map JSON file")
    pi.add_argument("--k", type=int, required=True, help="target layer")
    pi.add_argument("--out", default=None, help="layer-map JSON path")
    pi.add_argument("--cache", default=None, help="cache directory")
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


def _run(cfg):
    # an output or cache path that cannot be written is an unusable
    # request, not a failed check
    try:
        return cfg.func(cfg)
    except OSError as exc:
        path = "output" if exc.filename is None else exc.filename
        return _usage(f"cannot write {path}: {exc.strerror or exc}")


def main(argv=None):
    cfg = build_parser().parse_args(argv)
    cache = getattr(cfg, "cache", None)
    if not cache:
        return _run(cfg)
    # --cache sets SYMPOL_CACHE_DIR for this command only
    previous = os.environ.get("SYMPOL_CACHE_DIR")
    os.environ["SYMPOL_CACHE_DIR"] = cache
    try:
        return _run(cfg)
    finally:
        if previous is None:
            del os.environ["SYMPOL_CACHE_DIR"]
        else:
            os.environ["SYMPOL_CACHE_DIR"] = previous


if __name__ == "__main__":
    sys.exit(main())
