"""Command line behavior: exit codes, determinism and file handling."""

import csv
import hashlib
import json
import os

import pytest

from sympol import cli
from sympol.bases import PointMap, SymplecticBase
from sympol.serialize import atomic_write_json, encode_point_map
from sympol.space import SymplecticSpace


@pytest.fixture()
def run(tmp_path, monkeypatch):
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)

    def invoke(*argv):
        return cli.main([str(a) for a in argv])

    return invoke


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_enumerate_counts_and_determinism(run, tmp_path):
    out = tmp_path / "counts.csv"
    assert run("enumerate", "--n", 2, "--p", 2, "--out", out) == 0
    first = read_bytes(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "p", "k", "count", "closed_form"]
    assert [r[3] for r in rows[1:]] == [r[4] for r in rows[1:]]
    assert [int(r[2]) for r in rows[1:]] == [0, 1]
    assert run("enumerate", "--n", 2, "--p", 2, "--out", out) == 0
    assert read_bytes(out) == first


def test_enumerate_rejects_unsupported(run, tmp_path):
    assert run("enumerate", "--n", 9, "--p", 2, "--out", tmp_path / "x.csv") == 2
    assert run("enumerate", "--n", 2, "--p", 7, "--out", tmp_path / "x.csv") == 2
    assert run("enumerate", "--n", 2, "--p", 2, "--k", 5, "--out", tmp_path / "x.csv") == 2


def test_verify_single_suite(run, tmp_path):
    out = tmp_path / "report.json"
    code = run(
        "verify", "--n", 2, "--p", 2, "--suite", "sizes", "--seed", "s1", "--trials", 3, "--out", out
    )
    assert code == 0
    report = json.loads(read_bytes(out))
    assert report["pass"] is True
    assert report["command"] == "verify"
    assert all(e.get("pass", True) for e in report["entries"])
    sibling = tmp_path / "report.csv"
    with open(sibling, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "suite"
    assert len(rows) == len(report["entries"]) + 1


def test_verify_is_seed_deterministic(run, tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    args = ("verify", "--n", 2, "--p", 2, "--suite", "round-trip", "--trials", 2)
    assert run(*args, "--seed", "s", "--out", a) == 0
    assert run(*args, "--seed", "s", "--out", b) == 0
    assert run(*args, "--seed", "t", "--out", c) == 0
    assert read_bytes(a) == read_bytes(b)
    assert read_bytes(a) != read_bytes(c)


# SHA-256 digests of the (2, 2) `verify --suite all --seed s1` report pair,
# recorded when the reports were last checked by hand; they are the same
# under any PYTHONHASHSEED and any --out path.  A change to these bytes is
# a change to the tool's output and has to be deliberate.
VERIFY_ALL_S1_N2_P2 = {
    ".json": "a8676a5b300c72acd385713186ae209d5a00ed43e32e1867ca819bd6385bd986",
    ".csv": "43fe8b756dfc2792ae97edc848127b044d2580885b45c65a767abe825a33323b",
}


def test_verify_all_report_bytes_are_pinned(run, tmp_path):
    out = tmp_path / "report.json"
    assert run("verify", "--n", 2, "--p", 2, "--suite", "all", "--seed", "s1", "--out", out) == 0
    for suffix, digest in VERIFY_ALL_S1_N2_P2.items():
        assert hashlib.sha256(read_bytes(out.with_suffix(suffix))).hexdigest() == digest


def test_verify_requires_seed(run, tmp_path):
    assert run("verify", "--n", 2, "--p", 2, "--suite", "sizes", "--out", tmp_path / "r.json") == 2


@pytest.mark.parametrize("trials", [0, -3])
def test_verify_rejects_trials_below_one(run, tmp_path, capsys, trials):
    out = tmp_path / "r.json"
    args = ("verify", "--n", 2, "--p", 2, "--suite", "round-trip", "--seed", "a")
    assert run(*args, "--trials", trials, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --trials must be at least 1, got {trials}\n"
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "r.csv").exists()


def test_verify_infeasible_grid_skips(run, tmp_path):
    out = tmp_path / "r.json"
    code = run("verify", "--n", 3, "--p", 3, "--suite", "classification", "--seed", "s", "--out", out)
    assert code == 2
    report = json.loads(read_bytes(out))
    assert report["entries"][0]["skipped"]
    assert "pass" not in report["entries"][0]


def test_verify_reports_failures(run, tmp_path, monkeypatch):
    def failing(cfg, rng):
        return [
            {
                "suite": "stub",
                "check": "always-false",
                "params": {},
                "expected": 0,
                "actual": 1,
                "pass": False,
                "witness": "forced",
            }
        ]

    stub = cli.Suite("stub", "forced failure", failing, False, None, 1)
    monkeypatch.setitem(cli.SUITES, "sizes", stub)
    out = tmp_path / "r.json"
    assert run("verify", "--n", 2, "--p", 2, "--suite", "sizes", "--seed", "s", "--out", out) == 1
    report = json.loads(read_bytes(out))
    assert report["pass"] is False


def test_random_collineation_deterministic(run, tmp_path):
    a = tmp_path / "h1.json"
    b = tmp_path / "h2.json"
    assert run("random-collineation", "--n", 2, "--p", 3, "--seed", "s7", "--out", a) == 0
    assert run("random-collineation", "--n", 2, "--p", 3, "--seed", "s7", "--out", b) == 0
    assert read_bytes(a) == read_bytes(b)
    payload = json.loads(read_bytes(a))
    assert payload["space"] == {"n": 2, "p": 3, "form": "standard"}
    assert run("random-collineation", "--n", 6, "--p", 2, "--seed", "s", "--out", b) == 2


def test_induce_reconstruct_round_trip(run, tmp_path):
    h_path = tmp_path / "h.json"
    f_path = tmp_path / "f.json"
    back = tmp_path / "back.json"
    cert = tmp_path / "cert.json"
    assert run("random-collineation", "--n", 2, "--p", 2, "--seed", "rt", "--out", h_path) == 0
    assert run("induce", "--map", h_path, "--k", 1, "--out", f_path) == 0
    code = run("reconstruct", "--map", f_path, "--out", back, "--certificate", cert)
    assert code == 0
    assert json.loads(read_bytes(back)) == json.loads(read_bytes(h_path))
    certificate = json.loads(read_bytes(cert))
    assert certificate["pass"] is True
    assert certificate["k"] == 1


def test_induce_rejects_bad_inputs(run, tmp_path, capsys):
    h_path = tmp_path / "h.json"
    assert run("random-collineation", "--n", 2, "--p", 2, "--seed", "x", "--out", h_path) == 0
    assert run("induce", "--map", h_path, "--k", 4, "--out", tmp_path / "f.json") == 2
    trunc = tmp_path / "trunc.json"
    trunc.write_bytes(read_bytes(h_path)[:40])
    assert run("induce", "--map", trunc, "--k", 1, "--out", tmp_path / "f.json") == 2
    missing = tmp_path / "no-such.json"
    assert run("induce", "--map", missing, "--k", 1, "--out", tmp_path / "f.json") == 2
    assert str(missing) in capsys.readouterr().err


def test_induce_rejects_non_symplectic_map(run, tmp_path, capsys):
    sp = SymplecticSpace.standard(2, 2)
    base = SymplecticBase.standard(sp)
    table = {x: x for x in sp.all_points()}
    a, b = base.points[0], base.points[2]
    table[a], table[b] = b, a
    bad = tmp_path / "bad.json"
    atomic_write_json(bad, encode_point_map(PointMap(sp, sp, table)))
    assert run("induce", "--map", bad, "--k", 1, "--out", tmp_path / "f.json") == 1
    assert "orthogonality" in capsys.readouterr().err


def test_reconstruct_failure_writes_certificate(run, tmp_path):
    h_path = tmp_path / "h.json"
    f_path = tmp_path / "f.json"
    cert = tmp_path / "cert.json"
    assert run("random-collineation", "--n", 2, "--p", 2, "--seed", "c", "--out", h_path) == 0
    assert run("induce", "--map", h_path, "--k", 1, "--out", f_path) == 0
    payload = json.loads(read_bytes(f_path))
    payload["table"][0][1], payload["table"][1][1] = (
        payload["table"][1][1],
        payload["table"][0][1],
    )
    atomic_write_json(f_path, payload)
    code = run("reconstruct", "--map", f_path, "--out", tmp_path / "b.json", "--certificate", cert)
    assert code == 1
    certificate = json.loads(read_bytes(cert))
    assert certificate["pass"] is False
    names = [
        c["name"]
        for rec in certificate["levels"]
        for c in rec["checks"]
        if not c["pass"]
    ]
    assert names


def test_reconstruct_rejects_malformed_schema(run, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"source\": 3}\n")
    assert run("reconstruct", "--map", bad, "--out", tmp_path / "b.json") == 2
    missing = tmp_path / "no-such.json"
    assert run("reconstruct", "--map", missing, "--out", tmp_path / "b.json") == 2
    assert str(missing) in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_help_lists_feasibility(run, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("--help")
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    assert "enumerate" in text and "reconstruct" in text
    assert "(2, 2)" in text
    assert "suites" in text or "suite" in text


def test_cache_flag_overrides_env(run, tmp_path, monkeypatch):
    special = tmp_path / "special-cache"
    out = tmp_path / "c.csv"
    assert run("enumerate", "--n", 2, "--p", 2, "--cache", special, "--out", out) == 0
    assert (special / "grassmannian-n2-p2-k0.json").exists()


@pytest.mark.parametrize("before", ["set", "unset"])
def test_cache_flag_is_scoped_to_the_command(run, tmp_path, monkeypatch, before):
    if before == "unset":
        monkeypatch.delenv("SYMPOL_CACHE_DIR")
    previous = os.environ.get("SYMPOL_CACHE_DIR")
    special = tmp_path / "special-cache"
    assert run("enumerate", "--n", 2, "--p", 2, "--cache", special, "--out", tmp_path / "c.csv") == 0
    assert os.environ.get("SYMPOL_CACHE_DIR") == previous
    # a rejected request restores it too
    assert run("reconstruct", "--map", tmp_path / "missing.json", "--cache", special) == 2
    assert os.environ.get("SYMPOL_CACHE_DIR") == previous
