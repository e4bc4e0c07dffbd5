"""JSON formats: round trips, canonical output and schema rejection."""

import json
import stat

import pytest

from sympol.bases import random_collineation
from sympol.errors import MapCheckError, SchemaError
from sympol.recon import induce
from sympol.serialize import (
    atomic_write_json,
    decode_grassmannian_map,
    decode_point_map,
    dumps,
    encode_grassmannian_map,
    encode_point_map,
    load_json,
    parse_space,
    write_report_csv,
)
from sympol.space import SymplecticSpace


def test_dumps_is_canonical():
    text = dumps({"b": 1, "a": [2, 3]})
    assert text.endswith("\n")
    assert text == json.dumps({"a": [2, 3], "b": 1}, sort_keys=True, indent=2) + "\n"


def test_atomic_write_and_load(tmp_path):
    path = tmp_path / "nested" / "x.json"
    atomic_write_json(path, {"k": 1})
    assert load_json(path) == {"k": 1}
    leftovers = [f for f in (tmp_path / "nested").iterdir() if f.name.startswith(".tmp-")]
    assert not leftovers
    path.write_text("{broken")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_json(path)


def test_atomic_write_mode_follows_umask(tmp_path):
    plain = tmp_path / "plain.json"
    with open(plain, "w") as fh:
        fh.write("{}")
    atomic = tmp_path / "atomic.json"
    atomic_write_json(atomic, {})
    assert stat.S_IMODE(atomic.stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_space_header_round_trip(small_space):
    assert parse_space(small_space.header()) == small_space
    with pytest.raises(SchemaError, match="missing field"):
        parse_space({"n": 2})


def test_point_map_round_trip(small_space):
    h = random_collineation(small_space, "ser")
    obj = encode_point_map(h)
    # pairs are sorted, so encoding is order-independent
    assert obj["pairs"] == sorted(obj["pairs"])
    assert decode_point_map(obj) == h
    # a source point listed twice is refused, even with the same image
    pairs = obj["pairs"]
    for extra in ([pairs[0][0], pairs[1][1]], pairs[0]):
        twice = dict(obj, pairs=[extra] + pairs)
        with pytest.raises(SchemaError, match=r"duplicate pair for source point \["):
            decode_point_map(twice)
    # a coordinate is an int, never a bool, a float or a string, and a
    # point is a list of them
    x, y = obj["pairs"][0]
    for bad in ([5, 6], [x, 5], [x, [*y[:-1], "a"]], [x, [*y[:-1], 1.9]], [x, [*y[:-1], True]]):
        obj["pairs"][0] = bad
        with pytest.raises(SchemaError, match="pairs must hold lists of integer coordinates"):
            decode_point_map(obj)
    obj["pairs"][0] = [x]
    with pytest.raises(SchemaError, match="pairs"):
        decode_point_map(obj)
    obj["target_space"].update(n=4, p=3)
    with pytest.raises(SchemaError, match="target_space: .* outside the supported grid"):
        decode_point_map(obj)


def test_grassmannian_map_round_trip(small_space):
    f = induce(random_collineation(small_space, "ser2"), 1)
    obj = encode_grassmannian_map(f)
    assert decode_grassmannian_map(obj) == f


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda o: o["table"].pop(), "cover"),
        (lambda o: o["table"].append([0, 0]), "duplicate"),
        (lambda o: o["table"].__setitem__(0, [0, 10**6]), "out of range"),
        (lambda o: o["table"].__setitem__(0, [0]), "pairs"),
        (lambda o: o["table"].__setitem__(0, [0, True]), "integer pairs"),
        (lambda o: o["table"].__setitem__(0, [False, 0]), "integer pairs"),
        (lambda o: o["table"].__setitem__(0, [0, 1.0]), "integer pairs"),
        (lambda o: o["table"].__setitem__(0, [0, "1"]), "integer pairs"),
        (lambda o: o["source"].update(k=True), "field 'k' has wrong type"),
        (lambda o: o.pop("source"), "missing field"),
        (lambda o: o["target"].update(n=4, p=3), "outside the supported grid"),
        # the point map's first source (0, 0, 0, 1) written unreduced mod 2
        (lambda o: o["pairs"][0][0].__setitem__(-1, 3), "table must cover every source point"),
        (lambda o: o["pairs"][0].__setitem__(1, o["pairs"][1][1]), "table is not injective"),
        # two images that are no target points, the zero vector written two
        # ways, are refused as such, not as sharing an image
        (
            lambda o: [o["pairs"][i].__setitem__(1, [0, 0, 0, 2 * i]) for i in (0, 1)],
            "table values must be target points",
        ),
    ],
)
def test_grassmannian_map_schema_rejection(mangle, message):
    # A (2, 2) collineation's point map and its k = 1 layer map share no
    # field, so one document holds both and each mangle breaks one of
    # them.  A broken layer map is a SchemaError; a point map whose
    # vectors are well formed but name no valid index table is refused
    # by PointMap with a MapCheckError.
    sp = SymplecticSpace.standard(2, 2)
    h = random_collineation(sp, 1)
    obj = encode_grassmannian_map(induce(h, 1)) | encode_point_map(h)
    mangle(obj)
    if all(obj[key] == value for key, value in encode_point_map(h).items()):
        decode, error = decode_grassmannian_map, SchemaError
    else:
        decode, error = decode_point_map, MapCheckError
    with pytest.raises(error, match=message):
        decode(obj)


def test_report_csv_shape(tmp_path):
    entries = [
        {"suite": "s", "check": "c", "params": {"n": 2}, "expected": 1, "actual": 1, "pass": True},
        {"suite": "s", "check": "d", "params": {}, "skipped": True, "reason": "why"},
    ]
    path = tmp_path / "r.csv"
    write_report_csv(path, entries)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("suite,")
    assert len(lines) == 3
