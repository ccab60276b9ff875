"""Golden CLI reports: exit code, stderr, human text and ``--json -`` report of
``validate``, ``analyze --sasakian --legendre3`` and ``derive --steps 6`` on
the named catalog entries, the 5-dim Heisenberg models and a contact
structure that is not a nullity space.

Key trees (in their order), strings, bools, None and exit codes must match
exactly, floats to within ``FLOAT_ABS``.  The human text is pinned through
``cli._print_human`` run on the *golden* report, so the check does not depend
on the last bits that a BLAS build gives the floats.

Regenerate the data file (only when the report is meant to change) with

    PYTHONPATH=src python tests/test_report_golden.py
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from conftest import jsonable, reference_json, twisted_contact_3d

from kmgeom import catalog, cli, modelfile

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "report_golden.json")
FLOAT_ABS = 1e-12
COMMANDS = {
    "validate": ["validate"],
    "analyze": ["analyze", "--sasakian", "--legendre3"],
    "derive": ["derive", "--steps", "6"],
}
MODEL_PLACEHOLDER = "<model>"


def _entries() -> dict:
    entries = {
        name: catalog.get_entry(name) for name in catalog.list_entries() if name != "family-3d"
    }
    for name, s in (
        ("heisenberg-5-contact", catalog.heisenberg(5, "contact").structure),
        ("heisenberg-5-paracontact", catalog.heisenberg(5, "paracontact").structure),
        ("twisted-contact-3d", twisted_contact_3d()),
    ):
        entries[name] = catalog.CatalogEntry(name=name, model=s.model, structure=s)
    return entries


ENTRIES = _entries()
CASES = [f"{cmd}:{name}" for name in ENTRIES for cmd in COMMANDS]


def _capture(fn, *args) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        result = fn(*args)
    return result, out.getvalue(), err.getvalue()


def _run(case: str, raw: list | None = None) -> dict:
    """The CLI record of ``case``: exit code, stderr, human text and JSON report.

    The report is the dict handed to ``cli._write_outputs``, kept in its key
    order (the JSON text sorts its keys; the key order of the report is pinned
    too), with its values as the JSON text gives them.  ``raw`` collects the
    dict itself.
    """
    cmd, name = case.split(":", 1)
    written = []

    def write_outputs(report, json_path):
        written.append(json.loads(json.dumps(jsonable(report))))
        if raw is not None:
            raw.append(report)
        real_write_outputs(report, json_path)

    real_write_outputs, cli._write_outputs = cli._write_outputs, write_outputs
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(modelfile.dumps_entry(ENTRIES[name]))
            argv = [COMMANDS[cmd][0], path, *COMMANDS[cmd][1:], "--json", "-"]
            code, out, err = _capture(cli.main, argv)
    finally:
        cli._write_outputs = real_write_outputs
    report = written[0] if written else None
    json_text = "" if report is None else modelfile.render_json(report) + "\n"
    assert len(written) <= 1 and out.endswith(json_text)
    return {
        "exit": code,
        "stderr": err.replace(path, MODEL_PLACEHOLDER),
        "human": out[: len(out) - len(json_text)],
        "report": report,
    }


def _human(report: dict | None) -> str:
    return "" if report is None else _capture(cli._print_human, report)[1]


def _assert_close(actual, golden, where: str = "report") -> None:
    assert type(actual) is type(golden), f"{where}: {actual!r} vs golden {golden!r}"
    if isinstance(golden, dict):
        assert list(actual) == list(golden), f"{where}: keys differ"
        for key in golden:
            _assert_close(actual[key], golden[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert len(actual) == len(golden), f"{where}: lengths differ"
        for i, (a, g) in enumerate(zip(actual, golden)):
            _assert_close(a, g, f"{where}[{i}]")
    elif isinstance(golden, float):
        assert abs(actual - golden) <= FLOAT_ABS, f"{where}: {actual!r} vs golden {golden!r}"
    else:
        assert actual == golden, f"{where}: {actual!r} vs golden {golden!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_report_matches_golden(case, golden):
    record, want = _run(case), golden[case]
    assert record["exit"] == want["exit"]
    assert record["stderr"] == want["stderr"]
    _assert_close(record["report"], want["report"])
    # the human text is the rendering of the report the CLI printed beside it
    assert record["human"] == _human(record["report"])


@pytest.mark.parametrize("case", CASES)
def test_print_human_reproduces_golden_text(case, golden):
    assert _human(golden[case]["report"]) == golden[case]["human"]


@pytest.mark.parametrize("case", CASES)
def test_render_json_is_the_reference_text(case):
    raw = []
    _run(case, raw)
    for report in raw:
        assert modelfile.render_json(report) == reference_json(report)


def test_each_report_key_is_stored_by_one_row():
    """The one row of a key prints it: no key waits on the row order to pick a ``human``."""
    keys = [key for key, *_ in cli._STAGES if key is not None]
    assert len(keys) == len(set(keys))


def test_worst_identity_ties_go_to_the_smallest_name():
    identities = {"b_check": 1e-16, "c_check": 0.0, "a_check": 1e-16}
    report = {"model": {"name": "m", "dim": 3, "jacobi_residual": 0.0}, "identities": identities}
    assert "worst a_check = 1.000e-16" in _human(report)
    # the line follows from the sorted JSON: the key order does not matter
    for order in (sorted(identities), sorted(identities, reverse=True)):
        assert _human({**report, "identities": {k: identities[k] for k in order}}) == _human(report)


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({case: _run(case) for case in CASES}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(CASES)} records to {GOLDEN}")
