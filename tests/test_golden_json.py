"""Byte-for-byte ``--json`` output of a fixed set of CLI commands.

The expected stdout of each command is stored in ``tests/golden/``.
Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden_json.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import pytest

from nilcohom.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

VERIFY_H7 = ["verify-theorem", "h7", "--J", "std",
             "--lattice", "builtin:example-a",
             "--ideal", "e3,e4,e5,e6", "--f0", "e5,e6",
             "--g0", "Xbar1,Xbar3"]

SQRT2 = {"type": "sqrt", "d": 2}
ONE_ROW = [["1", "0"], ["0", "1"], ["a", "i"]]

# period file name -> (dimension, numbers, generators): the period
# numbers of tests/test_cli.py, and two blocks whose scan runs on
# certified enclosures of sqrt 2
PERIODS = {
    "sqrt2": (2, {"a": SQRT2}, ONE_ROW),
    "half": (2, {"a": {"type": "rational", "value": "1/2"}}, ONE_ROW),
    "power_tower": (2, {"a": {"type": "convergents", "family": "power-tower",
                              "base": 2, "start": 4}}, ONE_ROW),
    "dim3_sqrt2": (3, {"r": SQRT2},
                   [["1", "0", "0"], ["0", "1", "0"], ["r", "0", "1"],
                    ["0", "r", "i"]]),
    "sqrt2_liouville": (2, {"r": SQRT2,
                            "a": {"type": "convergents",
                                  "family": "liouville10"}},
                        [["1", "0"], ["0", "1"], ["r*a", "i"]]),
    # the benchmark's liouville10 period file, scanned at the default
    # bound on certified enclosures of the Liouville series
    "liouville10": (2, {"a": {"type": "convergents",
                              "family": "liouville10"}},
                    [["1", "0"], ["0", "1"], ["3*a", "i"]]),
}
SCANS = {"dim3_sqrt2": ["--scan", "10"], "sqrt2_liouville": ["--scan", "3"]}

# catalog file name -> entries: a 6-dim algebra of the benchmark's
# catalog query and the 8-dim (0,...,0,12,34), both with the standard J
CATALOGS = {
    "run_file": [
        {"name": "g6", "equations": "(0,0,0,12,2*12,-12)",
         "complex_structures": {"j": "std"}},
        {"name": "g8", "equations": "(0,0,0,0,0,0,12,34)",
         "complex_structures": {"j": "std"}},
    ],
}

CASES = {
    "hodge_kt": ["cohomology", "kodaira-thurston", "--J", "std",
                 "--hodge-table"],
    "hodge_heis3r3": ["cohomology", "heis3r3", "--J", "std", "--hodge-table"],
    "hodge_h7": ["cohomology", "h7", "--J", "std", "--hodge-table"],
    "hodge_iwasawa": ["cohomology", "(0,0,0,0,13-24,14+23)", "--J", "std",
                      "--hodge-table"],
    "hodge_8dim": ["cohomology", "(0,0,0,0,0,0,12,34)", "--J", "std",
                   "--hodge-table"],
    "de_rham_h7": ["cohomology", "h7", "--de-rham"],
    "de_rham_10dim": ["cohomology", "(0,0,0,0,0,0,0,0,12,34)", "--de-rham"],
    "catalog_run": ["catalog", "run"],
    "verify_h7": VERIFY_H7,
    "verify_h7_third": VERIFY_H7 + ["--param", "a=1/3"],
    "verify_h7_sqrt8": VERIFY_H7 + ["--param", "a=sqrt:8"],
    "verify_h7_power_tower": VERIFY_H7 + ["--param", "a=power-tower:2,4"],
    "verify_h7_quadratic": VERIFY_H7 + ["--param", "a=quadratic:1,0,-8"],
    "verify_h7_bad_g0": VERIFY_H7[:-1] + ["Xbar1,Xbar2"],
    **{f"toroidal_{name}": ["toroidal", f"period_{name}.json"]
       + SCANS.get(name, []) for name in PERIODS},
    **{f"catalog_{name}": ["catalog", "run", "--file", f"catalog_{name}.json"]
       for name in CATALOGS},
}


def run_case(argv):
    """(exit code, stdout) of ``main(argv + ["--json"])``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv) + ["--json"])
    return code, out.getvalue()


def write_input_files(directory):
    """The period and catalog documents the cases read, by file name."""
    for name, (n, numbers, generators) in PERIODS.items():
        with open(os.path.join(directory, f"period_{name}.json"), "w") as fh:
            json.dump({"dimension": n, "numbers": numbers,
                       "generators": generators}, fh)
    for name, entries in CATALOGS.items():
        with open(os.path.join(directory, f"catalog_{name}.json"), "w") as fh:
            json.dump({"entries": entries}, fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv("NILCOHOM_SCAN_BOUND", raising=False)
    write_input_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out = run_case(CASES[name])
    assert code == 0
    with open(os.path.join(GOLDEN, f"{name}.json")) as fh:
        assert out == fh.read()


if __name__ == "__main__":
    os.environ.pop("NILCOHOM_SCAN_BOUND", None)
    os.makedirs(GOLDEN, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        write_input_files(tmp)
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, argv in sorted(CASES.items()):
                code, out = run_case(argv)
                if code != 0:
                    sys.exit(f"{name}: exit {code}")
                with open(os.path.join(GOLDEN, f"{name}.json"), "w") as fh:
                    fh.write(out)
        finally:
            os.chdir(here)
