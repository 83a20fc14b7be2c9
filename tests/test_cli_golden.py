"""Golden CLI outputs: exit code, stdout and stderr, byte for byte.

Every case runs ``main`` in process with stdout and stderr captured (argparse
messages included) and compares the result with ``data/cli_golden.json``.
Only the ``elapsed_ns`` timings are masked.  Every mean stays at or below 50.

Regenerate the fixture, after a deliberate change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import re
from unittest import mock

import pytest

from poisson_moments.cli import CSV_HEADER, main

FIXTURE = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

_ALL_METHODS = "recurrence,shifted,closed,katti,oracle"
_PRECISIONS = {"native": [], "128": ["--precision-bits", "128"],
               "256": ["--precision-bits", "256"]}


def _table_cases():
    cases = {}
    for pname, pflags in _PRECISIONS.items():
        for fmt in ("text", "csv", "json"):
            cases[f"table-central-{pname}-{fmt}"] = [
                "table", "--mean-grid", "0.5,2,7.5", "--centers", "0,m,fl+0.3",
                "--max-order", "5", "--methods", _ALL_METHODS,
                "--format", fmt] + pflags
        cases[f"table-signed-{pname}"] = [
            "table", "--mean-grid", "1,3.5,50", "--centers", "m,-0.5",
            "--thresholds", "a,-1.5,m/2,0", "--max-order", "4",
            "--methods", _ALL_METHODS,
            "--format", {"native": "csv", "128": "json", "256": "text"}[pname],
        ] + pflags
    return cases


def _moment_cases():
    base = ["moment", "--mean", "2.5", "--order", "3", "--center", "1.5"]
    cases = {f"moment-{meth}": base + ["--method", meth]
             for meth in _ALL_METHODS.split(",") if meth != "closed"}
    cases["moment-closed"] = ["moment", "--mean", "2.5", "--order", "5",
                              "--center", "2.5", "--method", "closed"]
    cases["moment-signed-csv"] = base + ["--threshold", "2", "--format", "csv"]
    cases["moment-shifted-signed-json"] = base + [
        "--threshold", "2", "--method", "shifted", "--format", "json"]
    cases["moment-katti-256"] = base + ["--method", "katti",
                                        "--precision-bits", "256"]
    cases["moment-oracle-50"] = ["moment", "--mean", "50", "--order", "4",
                                 "--center", "0", "--method", "oracle"]
    # exit 2: usage and validation
    cases["moment-exit2-mean"] = ["moment", "--mean", "-1", "--order", "0",
                                  "--center", "0"]
    cases["moment-exit2-overflow"] = ["moment", "--mean", "2", "--order", "401",
                                      "--center", "2", "--method", "katti"]
    cases["moment-exit2-center"] = ["moment", "--mean", "2", "--order", "3",
                                    "--center", "nan"]
    cases["moment-exit2-method"] = ["moment", "--mean", "1", "--order", "0",
                                    "--center", "0", "--method", "guess"]
    cases["moment-exit2-bits"] = ["moment", "--mean", "1", "--order", "0",
                                  "--center", "0", "--precision-bits", "32"]
    cases["table-exit2-grid"] = ["table", "--mean-grid", "1",
                                 "--centers", "q+1"]
    cases["table-exit2-list-grid"] = ["table", "--mean-grid", "1,x"]
    cases["verify-exit2-empty-range"] = ["verify", "--mean-grid", "5:1:1"]
    cases["verify-exit2-empty-thresholds"] = ["verify", "--thresholds", ""]
    cases["table-exit2-mean-before-method"] = [
        "table", "--mean-grid", "-1", "--methods", "guess"]
    # exit 3: method preconditions
    cases["moment-exit3-katti-even"] = ["moment", "--mean", "1", "--order", "2",
                                        "--center", "1", "--method", "katti"]
    cases["moment-exit3-closed-off-mean"] = [
        "moment", "--mean", "1", "--order", "1", "--center", "1.5",
        "--method", "closed"]
    cases["moment-exit3-shifted-order0"] = [
        "moment", "--mean", "1", "--order", "0", "--center", "0",
        "--method", "shifted"]
    cases["moment-exit3-shifted-negative-b"] = base + [
        "--threshold", "-1", "--method", "shifted"]
    return cases


CASES = {
    **_table_cases(),
    "verify-default": ["verify"],
    "verify-native-tight-fails": ["verify", "--mean-grid", "1",
                                  "--max-order", "6", "--tol", "1e-18"],
    "verify-readme-256": ["verify", "--mean-grid", "0.5:2.5:0.5",
                          "--max-order", "6", "--precision-bits", "256",
                          "--tol", "1e-18"],
    "verify-flagged": ["verify", "--mean-grid", "2",
                       "--centers", "2.3274800020733264", "--max-order", "6"],
    # a near-root center: order 7 is flagged and rebuilt at 256 bits, while
    # the entries below it keep the native bits the order-r tables print
    "verify-near-root": ["verify", "--mean-grid", "0.5",
                         "--centers", "1.3238626510460685", "--max-order", "7"],
    "table-near-root": ["table", "--mean-grid", "0.5",
                        "--centers", "1.3238626510460685", "--max-order", "7",
                        "--methods", _ALL_METHODS],
    "verify-negative-center-threshold-128": [
        "verify", "--mean-grid", "0.5,3", "--centers", "0,m,-0.5",
        "--thresholds", "a,-1,m/2", "--max-order", "5",
        "--precision-bits", "128", "--tol", "1e-15"],
    **_moment_cases(),
    "table-empty-thresholds": ["table", "--mean-grid", "2", "--thresholds", "",
                               "--max-order", "2"],
    "poly-text": ["poly", "--max-order", "8"],
    "poly-csv": ["poly", "--max-order", "8", "--format", "csv"],
    "poly-json": ["poly", "--max-order", "8", "--format", "json"],
}

_CSV_HEADER_LINE = ",".join(CSV_HEADER) + "\n"


def _mask(text: str) -> str:
    text = re.sub(r"elapsed_ns=\d+", "elapsed_ns=*", text)
    text = re.sub(r'"elapsed_ns": \d+', '"elapsed_ns": "*"', text)
    if text.startswith(_CSV_HEADER_LINE):
        text = re.sub(r",\d+$", ",*", text, flags=re.MULTILINE)
    return text


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage lines to the terminal width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": _mask(out.getvalue()),
            "stderr": _mask(err.getvalue())}


def _load():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case():
    assert list(_load()) == list(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_cli_output_matches_golden(name):
    expected = _load()[name]
    assert expected["argv"] == CASES[name]
    assert capture(CASES[name]) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    golden = {name: capture(argv) for name, argv in CASES.items()}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} cases to {FIXTURE}")
