"""Command line behavior: exit codes, determinism and file handling."""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys

import pytest

from sympol import cli, suites
from sympol.bases import PointMap, SymplecticBase
from sympol.errors import MapCheckError
from sympol.recon import hyperplane_table
from sympol.serialize import atomic_write_json, encode_point_map
from sympol.space import SymplecticSpace


@pytest.fixture()
def run(tmp_path, monkeypatch):
    # each test gets its own cache directory, so the hyperplane memo is
    # rebuilt inside it as a fresh process would
    monkeypatch.setenv("SYMPOL_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)

    def invoke(*argv):
        return cli.main([str(a) for a in argv])

    hyperplane_table.cache_clear()
    yield invoke
    hyperplane_table.cache_clear()


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


# SHA-256 digests of the (3, 2) `verify --suite all --seed s1 --trials 2`
# report pair, recorded before base-subset members were read off G_k
# indices in reconstruct and the verify suites.  The run covers the
# sampled n = 3 branch of adjacency-preservation and the transport,
# round-trip, preserves-base-subsets and common-base suites at (3, 2).
VERIFY_ALL_S1_N3_P2_TRIALS2 = {
    ".json": "85ce68dca13e0b9912aa617913ecd0319ef18d65841ae113b0f147cd53c30be7",
    ".csv": "d032765c0b77e3145be0bc9f166286d5bff07410ad32dbab64359f5d38d006aa",
}


def test_verify_all_n3_p2_report_bytes_are_pinned(run, tmp_path):
    out = tmp_path / "report.json"
    args = ("verify", "--n", 3, "--p", 2, "--suite", "all", "--seed", "s1", "--trials", 2)
    assert run(*args, "--out", out) == 0
    for suffix, digest in VERIFY_ALL_S1_N3_P2_TRIALS2.items():
        assert hashlib.sha256(read_bytes(out.with_suffix(suffix))).hexdigest() == digest


# SHA-256 digests of the (2, 5) `verify --suite all --seed s1` report pair,
# the CSV recorded before BaseSubset.indices named the members of a base
# subset.  The JSON was re-recorded when clique search joined BASE_GRID:
# the cliques suite's skip reason names that grid.  It is the one pinned
# run of common-base at p = 5.
VERIFY_ALL_S1_N2_P5 = {
    ".json": "ca7b821036e9ff367cdc9f17c634bc1652b075f51ef06956a001cac01db16a4f",
    ".csv": "1a16287ccda9565c06058272b732418decd9a47651634bd7013db666006f5bb7",
}


def test_verify_all_n2_p5_report_bytes_are_pinned(run, tmp_path):
    out = tmp_path / "report.json"
    assert run("verify", "--n", 2, "--p", 5, "--suite", "all", "--seed", "s1", "--out", out) == 0
    for suffix, digest in VERIFY_ALL_S1_N2_P5.items():
        assert hashlib.sha256(read_bytes(out.with_suffix(suffix))).hexdigest() == digest


# SHA-256 digests of the (3, 2) `verify --suite classification --seed s1`
# report pair, recorded before the subset universe became a threshold
# count; the exhaustive oracle behind this suite reads that universe.
VERIFY_CLASSIFICATION_S1_N3_P2 = {
    ".json": "88c5aeea7c8852a310c30c944a62a5e0f69e05e7a4dc6f638dfdd5c7e8b689da",
    ".csv": "2bed7bb21761435232cd2e2177762dbb61f31b7bf633fdc98530eb7e5291b938",
}


def test_verify_classification_report_bytes_are_pinned(run, tmp_path):
    out = tmp_path / "report.json"
    args = ("verify", "--n", 3, "--p", 2, "--suite", "classification", "--seed", "s1")
    assert run(*args, "--out", out) == 0
    for suffix, digest in VERIFY_CLASSIFICATION_S1_N3_P2.items():
        assert hashlib.sha256(read_bytes(out.with_suffix(suffix))).hexdigest() == digest


@pytest.mark.parametrize("n,p", [(2, 4), (2, 1), (0, 2)])
def test_verify_rejects_unsupported_space(run, tmp_path, capsys, n, p):
    out = tmp_path / "r.json"
    args = ("verify", "--n", n, "--p", p, "--suite", "all", "--seed", "s")
    assert run(*args, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "r.csv").exists()


def test_verify_common_base_skips_outside_enum_grid(run, tmp_path, capsys):
    out = tmp_path / "r.json"
    args = ("verify", "--n", 4, "--p", 3, "--suite", "common-base", "--seed", "s")
    assert run(*args, "--out", out) == 2
    report = json.loads(read_bytes(out))
    [entry] = report["entries"]
    assert entry["skipped"] and entry["check"] == "feasibility"
    assert "SKIP common-base.feasibility" in capsys.readouterr().out
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_trial_count_decides_whether_a_suite_is_seeded(run, tmp_path, capsys, name):
    # a suite without a trial count must not read the seed; every other
    # suite must refuse to run without one
    out = tmp_path / "r.json"
    args = ("verify", "--n", 2, "--p", 2, "--suite", name, "--out", out)
    if suites.SUITES[name].trials is not None:
        assert run(*args) == 2
        assert capsys.readouterr().err == "error: randomized suites need --seed for reproducibility\n"
        assert not out.exists()
        return
    reports = []
    for seed in (("--seed", "a"), ("--seed", "b"), ()):
        assert run(*args, *seed) in (0, 2)
        reports.append(json.loads(read_bytes(out))["entries"])
    assert reports[0] == reports[1] == reports[2]


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
    def failing(space, cfg, trials, rng):
        return [
            {
                "check": "always-false",
                "params": {},
                "expected": 0,
                "actual": 1,
                "pass": False,
                "witness": "forced",
            }
        ]

    stub = suites.Suite("forced failure", failing, None, None)
    monkeypatch.setitem(suites.SUITES, "sizes", stub)
    out = tmp_path / "r.json"
    assert run("verify", "--n", 2, "--p", 2, "--suite", "sizes", "--seed", "s", "--out", out) == 1
    report = json.loads(read_bytes(out))
    assert report["pass"] is False
    # the suite name and anchor are stamped from the registry
    assert report["entries"][0]["suite"] == "sizes"
    assert report["entries"][0]["anchor"] == "forced failure"


def test_each_check_reports_its_own_first_witness(run, tmp_path, monkeypatch):
    # span transport fails on its first call and family transport on its
    # third; each FAIL entry must name its own check's failure
    calls = {"span": 0, "family": 0}

    def breaks_on(name, call):
        def check(*args):
            calls[name] += 1
            if calls[name] == call:
                raise MapCheckError(f"{name} broke")

        return check

    monkeypatch.setattr(suites, "check_span_transport", breaks_on("span", 1))
    monkeypatch.setattr(suites, "check_family_transport", breaks_on("family", 3))
    out = tmp_path / "r.json"
    argv = ("--n", 3, "--p", 2, "--k", 1, "--suite", "transport", "--trials", 4, "--seed", "s")
    assert run("verify", *argv, "--out", out) == 1
    entries = {e["check"]: e for e in json.loads(read_bytes(out))["entries"]}
    assert entries["family-transport"]["actual"] == 3
    assert entries["family-transport"]["witness"] == "trial 2: family broke"
    assert entries["span-transport"]["actual"] == 3
    assert entries["span-transport"]["witness"] == "trial 0: span broke"
    assert entries["exactness-transport"]["pass"] and "witness" not in entries["exactness-transport"]


def test_random_collineation_deterministic(run, tmp_path):
    a = tmp_path / "h1.json"
    b = tmp_path / "h2.json"
    assert run("random-collineation", "--n", 2, "--p", 3, "--seed", "s7", "--out", a) == 0
    assert run("random-collineation", "--n", 2, "--p", 3, "--seed", "s7", "--out", b) == 0
    assert read_bytes(a) == read_bytes(b)
    payload = json.loads(read_bytes(a))
    assert payload["space"] == {"n": 2, "p": 3, "form": "standard"}
    assert run("random-collineation", "--n", 6, "--p", 2, "--seed", "s", "--out", b) == 2


# SHA-256 of the `random-collineation --seed s7` output at every ENUM_GRID
# point, recorded while the collineation was still a product of transvection
# matrices; the seeded stream and its bytes must not move.
RANDOM_COLLINEATION_S7 = {
    (2, 2): "8db32aa1c41a9f8ee284e02a7a6b0d2a30248b4becad9329d0343e0478e2de60",
    (2, 3): "f1b4b21cf0b99384d18e11e57c81ca32c26edecf00a3aa0a601cd8690f1929b3",
    (2, 5): "5587fc564a065bfaabcae68023b5f0914581fb78df15660ad90d5a91cb2d421c",
    (3, 2): "444f42e9daec1e1c49b3ca5556247fce1d04ab7b74b93db7fecb1279c75123d7",
    (3, 3): "9afd768e7285dec4e239cc37a31be7fbe1b3c125bcf47583eddf4002ce125ec9",
}


@pytest.mark.parametrize("n,p", sorted(RANDOM_COLLINEATION_S7))
def test_random_collineation_bytes_are_pinned(run, tmp_path, n, p):
    out = tmp_path / "h.json"
    assert run("random-collineation", "--n", n, "--p", p, "--seed", "s7", "--out", out) == 0
    assert hashlib.sha256(read_bytes(out)).hexdigest() == RANDOM_COLLINEATION_S7[(n, p)]


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


@pytest.mark.parametrize("bad", [[5, 6], "a", 1.9, True])
def test_induce_rejects_non_integer_coordinates(run, tmp_path, capsys, bad):
    h_path = tmp_path / "h.json"
    assert run("random-collineation", "--n", 2, "--p", 2, "--seed", "x", "--out", h_path) == 0
    payload = json.loads(read_bytes(h_path))
    if isinstance(bad, list):
        payload["pairs"][0] = bad
    else:
        payload["pairs"][0][1][-1] = bad
    atomic_write_json(h_path, payload)
    capsys.readouterr()
    assert run("induce", "--map", h_path, "--k", 1, "--out", tmp_path / "f.json") == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "integer coordinates" in captured.err
    assert not (tmp_path / "f.json").exists()


def test_induce_rejects_repeated_source_point(run, tmp_path, capsys):
    h_path = tmp_path / "h.json"
    assert run("random-collineation", "--n", 2, "--p", 2, "--seed", "s7", "--out", h_path) == 0
    payload = json.loads(read_bytes(h_path))
    pairs = payload["pairs"]
    payload["pairs"] = [[pairs[0][0], pairs[1][1]]] + pairs
    atomic_write_json(h_path, payload)
    capsys.readouterr()
    assert run("induce", "--map", h_path, "--k", 1, "--out", tmp_path / "f.json") == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: point map: duplicate pair for source point {pairs[0][0]}\n"
    assert not (tmp_path / "f.json").exists()


def test_induce_rejects_non_symplectic_map(run, tmp_path, capsys):
    sp = SymplecticSpace.standard(2, 2)
    base = SymplecticBase.standard(sp)
    index = sp.point_index()
    to = list(range(len(index)))
    a, b = index[base.points[0]], index[base.points[2]]
    to[a], to[b] = to[b], to[a]
    bad = tmp_path / "bad.json"
    atomic_write_json(bad, encode_point_map(PointMap(sp, sp, to)))
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


@pytest.mark.parametrize("field,value", [("p", 4), ("n", 1)])
def test_induce_and_reconstruct_reject_unsupported_headers(run, tmp_path, capsys, field, value):
    h_path = tmp_path / "h.json"
    f_path = tmp_path / "f.json"
    assert run("random-collineation", "--n", 2, "--p", 2, "--seed", "u", "--out", h_path) == 0
    assert run("induce", "--map", h_path, "--k", 1, "--out", f_path) == 0
    capsys.readouterr()
    point_map = json.loads(read_bytes(h_path))
    point_map["space"][field] = value
    atomic_write_json(h_path, point_map)
    assert run("induce", "--map", h_path, "--k", 1, "--out", tmp_path / "g.json") == 2
    assert capsys.readouterr().err.startswith("error: point map.space: ")
    layer_map = json.loads(read_bytes(f_path))
    layer_map["source"][field] = value
    atomic_write_json(f_path, layer_map)
    args = ("--out", tmp_path / "b.json", "--certificate", tmp_path / "c.json")
    assert run("reconstruct", "--map", f_path, *args) == 2
    assert capsys.readouterr().err.startswith("error: map.source: ")
    assert not any((tmp_path / name).exists() for name in ("g.json", "b.json", "c.json"))


def test_induce_and_reconstruct_reject_headers_outside_enum_grid(run, tmp_path, capsys):
    # (4, 3) is a valid space, but its layers are far too large to build
    header = {"n": 4, "p": 3, "form": "standard"}
    point_map = tmp_path / "h.json"
    atomic_write_json(point_map, {"space": header, "target_space": header, "pairs": []})
    layer_map = tmp_path / "f.json"
    atomic_write_json(
        layer_map, {"source": header | {"k": 1}, "target": header | {"k": 1}, "table": []}
    )
    assert run("induce", "--map", point_map, "--k", 1, "--out", tmp_path / "g.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: point map.space: ") and err.count("\n") == 1
    args = ("--out", tmp_path / "b.json", "--certificate", tmp_path / "c.json")
    assert run("reconstruct", "--map", layer_map, *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: map.source: ") and err.count("\n") == 1
    assert not any((tmp_path / name).exists() for name in ("g.json", "b.json", "c.json", "cache"))


def _wrong_target_space(obj):
    obj["target"].update(p=3)


def _wrong_target_k(obj):
    obj["target"]["k"] = 0


def _k_out_of_range(obj):
    obj["source"]["k"] = obj["target"]["k"] = 2


def _entry_out_of_range(obj):
    obj["table"][0] = [0, len(obj["table"])]


@pytest.mark.parametrize(
    "mangle",
    [_wrong_target_space, _wrong_target_k, _k_out_of_range, _entry_out_of_range],
    ids=["target-space", "target-k", "k-out-of-range", "entry-out-of-range"],
)
def test_reconstruct_refuses_a_map_naming_no_single_layer_before_building(
    run, tmp_path, capsys, mangle
):
    # the identity map on the 15 lines of (2, 2), broken in one place
    header = {"n": 2, "p": 2, "form": "standard", "k": 1}
    obj = {"source": dict(header), "target": dict(header), "table": [[i, i] for i in range(15)]}
    mangle(obj)
    layer_map = tmp_path / "f.json"
    atomic_write_json(layer_map, obj)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    args = ("--out", tmp_path / "b.json", "--certificate", tmp_path / "c.json", "--cache", fresh)
    assert run("reconstruct", "--map", layer_map, *args) == 2
    assert not any(fresh.iterdir())
    err = capsys.readouterr().err
    assert err.startswith("error: map") and err.count("\n") == 1
    assert not any((tmp_path / name).exists() for name in ("b.json", "c.json", "cache"))


# SHA-256 digests of the `reconstruct` embedding and certificate for
# `random-collineation --seed s7` -> `induce` -> `reconstruct`, and of the
# failing certificate for the same layer map with the images of its first
# two members swapped; recorded before check_top_transport read a memoized
# hyperplane table.  The embedding is the collineation file itself.
RECONSTRUCT_S7 = {
    (3, 3, 2): (
        "9afd768e7285dec4e239cc37a31be7fbe1b3c125bcf47583eddf4002ce125ec9",
        "e0f4adc9dccf694e03d7b646a479dd2a9527332f1b24bf06a0e6e264b17654a1",
        "27e0790f107cc7ce6d7c8dc3c59c789da331531029d289749c983d8b75168dc5",
    ),
    (2, 5, 1): (
        "5587fc564a065bfaabcae68023b5f0914581fb78df15660ad90d5a91cb2d421c",
        "f889b0dbe4a588738ec402121a55eb6be393e46f070526e8668f6c9c63421e9f",
        "4f1342a45242ed5e021f75eccddd096648c898145f7fc05a84420274367df9c4",
    ),
}


@pytest.mark.parametrize("n,p,k", sorted(RECONSTRUCT_S7))
def test_reconstruct_outputs_are_pinned(run, tmp_path, n, p, k):
    embedding, certificate, swapped = RECONSTRUCT_S7[(n, p, k)]
    h, f, e, c = (tmp_path / name for name in ("h.json", "f.json", "e.json", "c.json"))
    assert run("random-collineation", "--n", n, "--p", p, "--seed", "s7", "--out", h) == 0
    assert run("induce", "--map", h, "--k", k, "--out", f) == 0
    assert run("reconstruct", "--map", f, "--out", e, "--certificate", c) == 0
    assert hashlib.sha256(read_bytes(e)).hexdigest() == embedding
    assert hashlib.sha256(read_bytes(c)).hexdigest() == certificate
    payload = json.loads(read_bytes(f))
    table = payload["table"]
    table[0][1], table[1][1] = table[1][1], table[0][1]
    atomic_write_json(f, payload)
    assert run("reconstruct", "--map", f, "--out", e, "--certificate", c) == 1
    assert hashlib.sha256(read_bytes(c)).hexdigest() == swapped


# every command that writes, with one output path under a regular file;
# the inputs h.json and f.json are written first by the test
UNWRITABLE = {
    "enumerate": ("enumerate", "--n", 2, "--p", 2, "--out", "blocker/counts.csv"),
    "enumerate-cache": ("enumerate", "--n", 2, "--p", 2, "--cache", "blocker/c", "--out", "x.csv"),
    "verify": (
        "verify", "--n", 2, "--p", 2, "--suite", "sizes", "--seed", "s", "--out", "blocker/r.json"
    ),
    "induce": ("induce", "--map", "h.json", "--k", 1, "--out", "blocker/f.json"),
    "reconstruct": ("reconstruct", "--map", "f.json", "--out", "blocker/e.json"),
    "reconstruct-certificate": (
        "reconstruct", "--map", "f.json", "--out", "e.json", "--certificate", "blocker/c.json"
    ),
    "random-collineation": (
        "random-collineation", "--n", 2, "--p", 2, "--seed", "s", "--out", "blocker/h.json"
    ),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE))
def test_unwritable_output_is_a_usage_error(run, tmp_path, capsys, case):
    assert run("random-collineation", "--n", 2, "--p", 2, "--seed", "w", "--out", "h.json") == 0
    assert run("induce", "--map", "h.json", "--k", 1, "--out", "f.json") == 0
    (tmp_path / "blocker").write_text("a regular file\n")
    capsys.readouterr()
    assert run(*UNWRITABLE[case]) == 2
    # nothing is printed before the write fails, and no embedding is left
    # without its certificate
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert "blocker" in err and "Traceback" not in err
    assert not (tmp_path / "e.json").exists()


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
    h_path = tmp_path / "h.json"
    assert run("random-collineation", "--n", 2, "--p", 2, "--seed", "s", "--out", h_path) == 0
    assert run("induce", "--map", h_path, "--k", 1, "--out", tmp_path / "f.json", "--cache", special) == 0
    assert sorted(os.listdir(special)) == [f"grassmannian-n2-p2-k{k}.json" for k in (0, 1)]
    assert os.environ.get("SYMPOL_CACHE_DIR") == previous
    assert run("enumerate", "--n", 2, "--p", 2, "--cache", special, "--out", tmp_path / "c.csv") == 0
    assert os.environ.get("SYMPOL_CACHE_DIR") == previous
    # a rejected request restores it too
    assert run("reconstruct", "--map", tmp_path / "missing.json", "--cache", special) == 2
    assert os.environ.get("SYMPOL_CACHE_DIR") == previous


# each command of a pipeline, in pipeline order so that each reads the
# file the one before wrote, then enumerate
PIPELINE = (
    ("random-collineation", "--n", "2", "--p", "3", "--seed", "s", "--out", "h.json"),
    ("induce", "--map", "h.json", "--k", "1", "--out", "f.json"),
    ("reconstruct", "--map", "f.json", "--out", "e.json", "--certificate", "c.json"),
    ("enumerate", "--n", "2", "--p", "3", "--out", "counts.csv"),
)

CHILD = (
    "import json, sys, sympol.cli; code = sympol.cli.main(sys.argv[1:]); "
    "print(json.dumps([code, 'sympol.suites' in sys.modules]))"
)


def test_pipeline_commands_never_import_the_suites(tmp_path):
    # a fresh interpreter per command, as a pipeline runs them
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, SYMPOL_CACHE_DIR=str(tmp_path / "cache"))
    for argv in PIPELINE:
        done = subprocess.run(
            [sys.executable, "-c", CHILD, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.splitlines()[-1]) == [0, False], argv[0]


@pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")], ids=["sympol", "verify"])
def test_help_lists_every_suite_and_anchor(run, capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        run(*argv)
    assert excinfo.value.code == 0
    text = capsys.readouterr().out
    for name, suite in suites.SUITES.items():
        tag = " (seeded)" if suite.trials is not None else ""
        assert f"\n  {name}{tag}\n      {suite.anchor}\n" in text


def test_unknown_suite_lists_the_registered_choices(run, capsys):
    # the error argparse gives for the plain list of choices
    plain = argparse.ArgumentParser(prog="sympol verify")
    plain.add_argument("--suite", choices=[*suites.SUITES, "all"])
    with pytest.raises(SystemExit):
        plain.parse_args(["--suite", "bogus"])
    want = capsys.readouterr().err.splitlines()[-1]
    with pytest.raises(SystemExit) as excinfo:
        run("verify", "--n", 2, "--p", 2, "--suite", "bogus")
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == want
    assert "{" + ",".join([*suites.SUITES, "all"]) + "}" in err
