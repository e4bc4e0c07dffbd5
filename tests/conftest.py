import random

import pytest

from sympol.bases import SymplecticBase
from sympol.space import BASE_GRID, SymplecticSpace

_CRITERIA = {}


# Layers built by the tests are cached in one directory per session, never
# in the user's default cache; one directory keeps one memo key per layer,
# so tests share layers instead of rebuilding them.
@pytest.fixture(scope="session", autouse=True)
def session_cache_dir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        path = tmp_path_factory.mktemp("sympol-cache")
        mp.setenv("SYMPOL_CACHE_DIR", str(path))
        yield path


# The grid where every base of the space can be enumerated; the oracle
# tests and all exhaustive cross-checks stay inside it.
@pytest.fixture(params=BASE_GRID, ids=lambda np: f"n{np[0]}p{np[1]}")
def small_space(request):
    return SymplecticSpace(*request.param)


@pytest.fixture
def rng():
    return random.Random("sympol-tests")


@pytest.fixture
def standard_base(small_space):
    return SymplecticBase.standard(small_space)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): tag a test with its acceptance criterion"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, title = marker.args
    entry = _CRITERIA.setdefault(num, {"title": title, "outcomes": [], "notes": []})
    if hasattr(report, "wasxfail") and report.skipped:
        entry["outcomes"].append("xfail")
        note = str(report.wasxfail)
        if note and note not in entry["notes"]:
            entry["notes"].append(note)
    elif report.passed:
        entry["outcomes"].append("passed")
    elif report.failed:
        entry["outcomes"].append("failed")
    else:
        entry["outcomes"].append("skipped")


def pytest_terminal_summary(terminalreporter):
    if not _CRITERIA:
        return
    write = terminalreporter.write_line
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        entry = _CRITERIA[num]
        outcomes = entry["outcomes"]
        if "failed" in outcomes:
            status = "FAIL"
        elif "xfail" in outcomes:
            status = "FAIL (expected: " + "; ".join(entry["notes"]) + ")"
        elif outcomes == ["skipped"] * len(outcomes):
            status = "SKIPPED"
        else:
            status = "PASS"
        write(f"criterion {num} ({entry['title']}): {status}")
