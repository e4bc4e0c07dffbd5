"""JSON encodings and atomic file output.

All documents carry explicit field names and 0-based indices; canonical
matrices are lists of row lists.  Writers are deterministic (sorted
keys, fixed separators, trailing newline) so identical runs produce byte
identical files.  Writes go through a temporary file and a rename, and
the file gets the mode a plain open() would give it under the umask.
"""

from __future__ import annotations

import json
import os
import tempfile

from sympol.errors import DimensionError, FeasibilityError, SchemaError, SpaceMismatchError
from sympol.space import ENUM_GRID, SymplecticSpace


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# mkstemp creates files at mode 0600, so written files are given the mode
# open() would give them; the umask can only be read by setting it, so it
# is read once here and put straight back
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write_text(path, text):
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path, obj):
    atomic_write_text(path, dumps(obj))


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _is_int(val):
    """Whether val is an int and not a bool, which JSON true and false decode to."""
    return isinstance(val, int) and not isinstance(val, bool)


def _need(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"{where}: missing field {key!r}")
    val = obj[key]
    if kind is not None and not (_is_int(val) if kind is int else isinstance(val, kind)):
        raise SchemaError(f"{where}: field {key!r} has wrong type")
    return val


def parse_space(obj, where="space") -> SymplecticSpace:
    n = _need(obj, "n", int, where)
    p = _need(obj, "p", int, where)
    form = _need(obj, "form", str, where)
    if form != "standard":
        raise SchemaError(f"{where}: unknown form {form!r}")
    try:
        return SymplecticSpace.standard(n, p)
    except FeasibilityError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_map_space(obj, where) -> SymplecticSpace:
    """parse_space, refusing an (n, p) outside ENUM_GRID before any layer
    or point table for it is built."""
    space = parse_space(obj, where)
    if (space.n, space.p) not in ENUM_GRID:
        raise SchemaError(
            f"{where}: (n, p) = ({space.n}, {space.p}) is outside the supported grid {ENUM_GRID}"
        )
    return space


def encode_point_map(h):
    return {
        "space": h.source.header(),
        "target_space": h.target.header(),
        "pairs": [[list(a), list(b)] for a, b in h.table.items()],
    }


def decode_point_map(obj):
    """Outside vectors become point indices here.  A source set other
    than the points becomes an empty table, and an image that is not a
    target point stays a vector, so PointMap refuses each in its order."""
    from sympol.bases import PointMap

    source = _parse_map_space(_need(obj, "space", dict, "point map"), "point map.space")
    target = _parse_map_space(_need(obj, "target_space", dict, "point map"), "point map.target_space")
    table = {}
    for entry in _need(obj, "pairs", list, "point map"):
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError("point map: pairs must be [source, target] lists")
        a, b = entry
        for vec in (a, b):
            if not (isinstance(vec, list) and all(_is_int(x) for x in vec)):
                raise SchemaError("point map: pairs must hold lists of integer coordinates")
        if tuple(a) in table:
            raise SchemaError(f"point map: duplicate pair for source point {a}")
        table[tuple(a)] = tuple(b)
    index, pts = target.point_index(), source.all_points()
    to = [index.get(y, y) for y in map(table.get, pts)] if table.keys() == set(pts) else ()
    return PointMap(source, target, to)


def encode_grassmannian_map(f):
    src = f.source.space.header() | {"k": f.source.k}
    tgt = f.target.space.header() | {"k": f.target.k}
    return {
        "source": src,
        "target": tgt,
        "table": [[i, j] for i, j in enumerate(f.table)],
    }


def decode_grassmannian_map(obj):
    """The layer map a document names.  Its headers must name one layer,
    with k in 0..n - 1, and its table must fit that layer's closed-form
    size; only then is G_k built or loaded."""
    from sympol.grassmann import grassmannian, grassmannian_size
    from sympol.recon import GrassmannianMap

    src_obj = _need(obj, "source", dict, "map")
    tgt_obj = _need(obj, "target", dict, "map")
    space = _parse_map_space(src_obj, "map.source")
    tgt_space = _parse_map_space(tgt_obj, "map.target")
    if space != tgt_space:
        raise SpaceMismatchError(f"map: source {space!r} vs target {tgt_space!r}")
    k, tgt_k = _need(src_obj, "k", int, "map"), _need(tgt_obj, "k", int, "map")
    if k != tgt_k or not 0 <= k < space.n:
        raise DimensionError(f"map: source k={k} and target k={tgt_k} must be one k in 0..{space.n - 1}")
    size = grassmannian_size(space.n, space.p, k)
    table = [None] * size
    for entry in _need(obj, "table", list, "map"):
        if not isinstance(entry, list) or len(entry) != 2:
            raise SchemaError("map: table entries must be [i, j] pairs")
        i, j = entry
        if not (_is_int(i) and _is_int(j)):
            raise SchemaError("map: table entries must be integer pairs")
        if not (0 <= i < size and 0 <= j < size):
            raise SchemaError("map: table index out of range")
        if table[i] is not None:
            raise SchemaError(f"map: duplicate table entry for {i}")
        table[i] = j
    if None in table:
        raise SchemaError(f"map: table must cover all {size} source elements")
    return GrassmannianMap(grassmannian(space, k), grassmannian(tgt_space, k), tuple(table))


def write_csv(path, rows):
    """Write rows, the header first, as CSV through atomic_write_text."""
    # imported here, so a process that writes no CSV never loads csv
    import csv
    import io

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    atomic_write_text(path, buf.getvalue())


def write_report_csv(path, entries):
    """Flat CSV summary of verification report entries."""
    rows = [["suite", "check", "n", "p", "k", "expected", "actual", "pass"]]
    for e in entries:
        params = e.get("params", {})
        rows.append(
            [
                e.get("suite", ""),
                e.get("check", ""),
                params.get("n", ""),
                params.get("p", ""),
                params.get("k", ""),
                e.get("expected", ""),
                e.get("actual", ""),
                "skip" if e.get("skipped") else e.get("pass"),
            ]
        )
    write_csv(path, rows)
