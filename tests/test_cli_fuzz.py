"""Fuzzing of the command line: malformed structure tuples, complex
structure specs, period and lattice documents, and subspace arguments
must end in one of the documented exit codes (0, 2, 3, 4), never in an
exception.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilcohom.cli import main

EXIT_CODES = {0, 2, 3, 4}

small_ints = st.integers(-3, 12)
scalars = st.one_of(
    small_ints,
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "a", "i", "r2", "a*i",
                     "r2*a", "(1", "2*", "x", "", "1e3"]),
    st.text(max_size=4))
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=6)
number_docs = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"type": st.sampled_from(["rational", "sqrt", "quadratic", "formal",
                                  "convergents", "bogus"])},
        optional={"value": scalars, "d": scalars,
                  "poly": st.lists(scalars, max_size=4),
                  "root": st.sampled_from(["plus", "minus", "x"]),
                  "family": st.sampled_from(["liouville10", "power-tower",
                                             "nope"]),
                  "base": small_ints, "start": small_ints}))
numbers = st.one_of(
    json_values,
    st.dictionaries(st.sampled_from(["a", "b", "r2"]), number_docs,
                    max_size=2))


def documents(n):
    """Period or lattice documents around dimension ``n``."""
    structured = st.fixed_dictionaries(
        {"dimension": st.one_of(st.integers(0, n + 1), scalars),
         "generators": st.one_of(
             json_values,
             st.lists(st.lists(scalars, min_size=n - 1, max_size=n + 1),
                      max_size=n + 2))},
        optional={"numbers": numbers})
    return st.one_of(st.text(max_size=20),
                     st.one_of(structured, json_values).map(json.dumps))


entries = st.one_of(
    st.sampled_from(["0", "12", "13", "-23", "1/2*34", "[1,2]", "2*14",
                     "12+34", "99", "1/0*12", "", "12-12", "[9,1]", "21",
                     "13-24", "14+23", "11"]),
    st.text(alphabet="0123456789+-*/[],() ²", max_size=6))
tuples = st.one_of(
    st.lists(entries, max_size=8).map(lambda es: "(" + ",".join(es) + ")"),
    st.text(max_size=12))
j_specs = st.one_of(
    st.sampled_from(["std", "pairs:1-2,3-4", "pairs:1-3,2-4", "pairs:1-2",
                     "pairs:", "pairs:a-b", "pairs:1-2,3-4,5-6", "[",
                     "[[0,-1],[1,0]]", "[[1]]", "[1,2]", '[["x"]]', "null"]),
    st.text(max_size=8).map(lambda t: "pairs:" + t),
    st.lists(st.lists(st.one_of(small_ints, scalars), max_size=4),
             max_size=4).map(json.dumps),
    st.text(max_size=8))

FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def run(argv):
    code = main(argv)
    assert code in EXIT_CODES, (argv, code)


@FUZZ
@given(tuples, j_specs, st.sampled_from([[], ["--de-rham"],
                                         ["--hodge-table"]]))
def test_fuzz_cohomology(capsys, text, spec, flags):
    run(["cohomology", f"--J={spec}", *flags, "--json", "--", text])
    capsys.readouterr()


@FUZZ
@given(tuples)
def test_fuzz_check(capsys, text):
    run(["check", "--", text])
    capsys.readouterr()


@FUZZ
@given(documents(2))
def test_fuzz_period_file(capsys, tmp_path, content):
    path = tmp_path / "period.json"
    path.write_text(content, encoding="utf-8")
    run(["toroidal", "--scan", "20", str(path)])
    capsys.readouterr()


VERIFY_H7 = ["verify-theorem", "h7", "--J=std", "--scan", "20"]


@FUZZ
@given(documents(6))
def test_fuzz_lattice_file(capsys, tmp_path, content):
    path = tmp_path / "lattice.json"
    path.write_text(content, encoding="utf-8")
    run([*VERIFY_H7, "--lattice", str(path), "--ideal", "e3,e4,e5,e6",
         "--f0", "e5,e6", "--g0", "Xbar1,Xbar3"])
    capsys.readouterr()


basis_lists = st.one_of(
    st.sampled_from(["e3,e4,e5,e6", "e5,e6", "e1,e2", "3,4", "e9", "e0",
                     "", "e3,,e4", "ex"]),
    st.text(max_size=6))
frame_lists = st.one_of(
    st.sampled_from(["Xbar1,Xbar3", "Xbar1,Xbar2", "X1", "Xbar9", "Xbar0",
                     "Xbar-1", "Y1", "X", ""]),
    st.text(max_size=6))


@settings(FUZZ, max_examples=60)
@given(basis_lists, basis_lists, frame_lists)
def test_fuzz_verify_arguments(capsys, ideal, f0, g0):
    run([*VERIFY_H7, "--lattice", "builtin:example-a", "--param", "a=1/2",
         f"--ideal={ideal}", f"--f0={f0}", f"--g0={g0}"])
    capsys.readouterr()
