import json
import math
import time
from collections import Counter

import pytest

import nilcohom.cxstruct as cxstruct
import nilcohom.exact.linalg as linalg
from nilcohom.cli import main
from nilcohom.exact import QQ

LEAF_DOC = """{
  "dimension": 2,
  "numbers": {"a": %s},
  "generators": [["1", "0"], ["0", "1"], ["a", "i"]]
}"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_valid(capsys, tmp_path):
    code, out, err = run(capsys, "check", "(0,0,0,12,13,23)")
    assert code == 0
    assert "class 2" in out
    assert "jacobi: ok" in out


def test_check_abelian(capsys):
    code, out, err = run(capsys, "check", "(0,0,0,0,0,0)")
    assert code == 0
    assert "class 1" in out


def test_check_parse_error_exit_2(capsys):
    code, out, err = run(capsys, "check", "(0,0,14)")
    assert code == 2
    assert "out of range" in err


def test_check_jacobi_failure_exit_3(capsys):
    code, out, err = run(capsys, "check", "(0,0,12,34)")
    assert code == 3
    assert "(1, 2, 4)" in err


def test_cohomology_de_rham(capsys):
    code, out, err = run(capsys, "cohomology", "h7", "--de-rham")
    assert code == 0
    assert "betti: [1, 3, 8, 12, 8, 3, 1]" in out


def test_cohomology_hodge_table(capsys):
    code, out, err = run(capsys, "cohomology", "abelian6", "--J", "std",
                         "--hodge-table")
    assert code == 0
    assert "1   3   3   1" in out


def test_cohomology_non_integrable_exit_4(capsys):
    code, out, err = run(capsys, "cohomology", "(0,0,0,12)",
                         "--J", "pairs:1-3,2-4", "--hodge-table")
    assert code == 4
    assert "Nijenhuis" in err
    assert "(1, 2)" in err


def test_json_output_is_byte_stable(capsys):
    code1, out1, _ = run(capsys, "cohomology", "h7", "--J", "std",
                         "--hodge-table", "--json")
    code2, out2, _ = run(capsys, "cohomology", "h7", "--J", "std",
                         "--hodge-table", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["tool"] == "nilcohom"
    assert doc["results"]["hodge_table"][0] == [1, 2, 2, 1]


@pytest.mark.parametrize("number,expect", [
    ('{"type": "sqrt", "d": 2}', "theta-certified"),
    ('{"type": "rational", "value": "1/2"}', "not-toroidal"),
    ('{"type": "convergents", "family": "power-tower", "base": 2, '
     '"start": 4}', "wild-evidence"),
])
def test_toroidal_command_verdicts(capsys, tmp_path, number, expect):
    f = tmp_path / "period.json"
    f.write_text(LEAF_DOC % number)
    code, out, err = run(capsys, "toroidal", str(f), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["verdict"]["kind"] == expect


def test_toroidal_malformed_file_exit_2(capsys, tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    code, out, err = run(capsys, "toroidal", str(f))
    assert code == 2


def test_toroidal_witness_reported(capsys, tmp_path):
    f = tmp_path / "period.json"
    f.write_text(LEAF_DOC % '{"type": "rational", "value": "1/2"}')
    code, out, err = run(capsys, "toroidal", str(f))
    assert code == 0
    assert "NotToroidal(witness=(2,))" in out
    assert "(C*)^1" in out


@pytest.mark.parametrize("spec", ["bogus", "power-tower:x",
                                  "power-tower:2,6", "sqrt:2"])
def test_toroidal_bad_convergents_exit_2(capsys, tmp_path, spec):
    f = tmp_path / "period.json"
    f.write_text(LEAF_DOC % '{"type": "formal"}')
    code, out, err = run(capsys, "toroidal", str(f), "--convergents", spec)
    assert code == 2
    assert err.startswith("error: malformed")
    assert "Traceback" not in err


def test_toroidal_normalizes_once(capsys, tmp_path, monkeypatch):
    import nilcohom.cli as cli
    import nilcohom.toroidal as toroidal

    calls = Counter()
    original = toroidal.toroidal_normalize

    def counting(pd):
        calls["toroidal_normalize"] += 1
        return original(pd)

    monkeypatch.setattr(cli, "toroidal_normalize", counting)
    monkeypatch.setattr(toroidal, "toroidal_normalize", counting)
    f = tmp_path / "period.json"
    f.write_text(LEAF_DOC % '{"type": "sqrt", "d": 2}')
    code, out, err = run(capsys, "toroidal", str(f))
    assert code == 0
    assert calls == {"toroidal_normalize": 1}


def test_theta_classify_reads_convergent_ratios_once(capsys, tmp_path,
                                                     monkeypatch):
    from nilcohom.exact.numbers import ConvergentSeries

    calls = Counter()
    original = ConvergentSeries.convergent_ratios

    def counting(self, *args, **kwargs):
        calls["convergent_ratios"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ConvergentSeries, "convergent_ratios", counting)
    f = tmp_path / "period.json"
    f.write_text(json.dumps({
        "dimension": 2,
        "numbers": {"a": {"type": "convergents", "family": "liouville10"}},
        "generators": [["1", "0"], ["0", "1"], ["3*a", "i"]]}))
    code, out, err = run(capsys, "toroidal", str(f), "--scan", "3", "--json")
    assert code == 0
    assert json.loads(out)["results"]["verdict"]["kind"] == "undetermined"
    assert calls == {"convergent_ratios": 1}


VERIFY_ARGS = ["verify-theorem", "h7", "--J", "std",
               "--lattice", "builtin:example-a",
               "--ideal", "e3,e4,e5,e6", "--f0", "e5,e6",
               "--g0", "Xbar1,Xbar3"]


def test_verify_theorem_formal(capsys):
    code, out, err = run(capsys, *VERIFY_ARGS)
    assert code == 0
    assert "verdict: theorem applies (foliation case" in out


def test_verify_theorem_rational_param(capsys):
    code, out, err = run(capsys, *VERIFY_ARGS, "--param", "a=1/2")
    assert code == 0
    assert "fibration/torus-bundle" in out


def test_verify_theorem_sqrt2(capsys):
    code, out, err = run(capsys, *VERIFY_ARGS, "--param", "a=sqrt:2")
    assert code == 0
    assert "theorem applies" in out
    assert "theta (certified)" in out


def test_verify_theorem_torus(capsys, tmp_path):
    lattice = tmp_path / "lat.json"
    lattice.write_text(json.dumps({
        "numbers": {},
        "generators": [["1", "0", "0", "0", "0", "0"],
                       ["0", "1", "0", "0", "0", "0"],
                       ["0", "0", "1", "0", "0", "0"],
                       ["0", "0", "0", "1", "0", "0"],
                       ["0", "0", "0", "0", "1", "0"],
                       ["0", "0", "0", "0", "0", "1"]],
    }))
    code, out, err = run(capsys, "verify-theorem", "(0,0,0,0,0,0)",
                         "--J", "std", "--lattice", str(lattice),
                         "--ideal", "e1,e2,e3,e4,e5,e6",
                         "--f0", "e1,e2,e3,e4,e5,e6",
                         "--g0", "Xbar1,Xbar2,Xbar3")
    assert code == 0
    assert "torus (conjecture known)" in out


def test_lattice_not_closed_under_bracket_exit_3(capsys, tmp_path):
    # [e1, sqrt2 e2] = -sqrt2 e4 is not in the Q-span of e1, sqrt2 e2,
    # e3, ..., e6, so no lattice has this rational structure (Malcev)
    lattice = tmp_path / "lat.json"
    rows = [["1" if j == i else "0" for j in range(6)] for i in range(6)]
    rows[1][1] = "r2"
    lattice.write_text(json.dumps({
        "numbers": {"r2": {"type": "sqrt", "d": 2}}, "generators": rows}))
    code, out, err = run(capsys, "verify-theorem", "h7", "--J", "std",
                         "--lattice", str(lattice),
                         "--ideal", "e3,e4,e5,e6", "--f0", "e5,e6",
                         "--g0", "Xbar1,Xbar3")
    assert code == 3
    assert out == ""
    assert "(1, 2)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("param", [[], ["--param", "a=sqrt:8"],
                                   ["--param", "a=power-tower:2,4"]])
def test_verify_theorem_splits_over_the_algebra_field(capsys, monkeypatch,
                                                      param):
    # only the lattice and the leaf carry the number field of example-a
    fields = []
    real = cxstruct.pq_splitting

    def recording(J):
        fields.append(J.ambient.field)
        return real(J)

    monkeypatch.setattr(cxstruct, "pq_splitting", recording)
    code, out, err = run(capsys, *VERIFY_ARGS, *param)
    assert code == 0
    assert fields == [QQ]


def test_catalog_run_all(capsys):
    code, out, err = run(capsys, "catalog", "run")
    assert code == 0
    assert "all checks passed" in out
    for name in ("abelian6", "h7", "heis3r3", "kodaira-thurston"):
        assert f"{name}: pass" in out


def test_catalog_filter(capsys):
    code, out, err = run(capsys, "catalog", "run", "--filter", "h7")
    assert code == 0
    assert "h7: pass" in out
    assert "abelian6" not in out


def test_catalog_malformed_file_exit_2(capsys, tmp_path):
    f = tmp_path / "cat.json"
    f.write_text('{"entries": [\n  {"name": "x" "equations": "(0)"}\n]}')
    code, out, err = run(capsys, "catalog", "run", "--file", str(f))
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("kind", ["period", "lattice", "catalog"])
def test_malformed_files_share_one_message(capsys, tmp_path, kind):
    f = tmp_path / f"{kind}.json"
    f.write_text('{"numbers": {},\n  "generators" [[1]]}')
    argv = {"period": ["toroidal", str(f)],
            "lattice": [x if x != "builtin:example-a" else str(f)
                        for x in VERIFY_ARGS],
            "catalog": ["catalog", "run", "--file", str(f)]}[kind]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: malformed {kind} file (line 2): ")


def test_catalog_user_file(capsys, tmp_path):
    f = tmp_path / "cat.json"
    f.write_text(json.dumps({"entries": [{
        "name": "kt4", "equations": "(0,0,0,12)",
        "complex_structures": {"std": "std"}}]}))
    code, out, err = run(capsys, "catalog", "run", "--file", str(f))
    assert code == 0
    assert "kt4: pass" in out


def test_scan_bound_env_default(monkeypatch, capsys, tmp_path):
    from nilcohom.cli import default_scan_bound
    from nilcohom.errors import ParseError

    monkeypatch.setenv("NILCOHOM_SCAN_BOUND", "77")
    assert default_scan_bound() == 77
    f = tmp_path / "period.json"
    f.write_text(LEAF_DOC % '{"type": "rational", "value": "1/2"}')
    code, out, err = run(capsys, "toroidal", str(f), "--json")
    assert code == 0
    assert json.loads(out)["inputs"]["scan"] == 77
    monkeypatch.setenv("NILCOHOM_SCAN_BOUND", "junk")
    with pytest.raises(ParseError, match="NILCOHOM_SCAN_BOUND"):
        default_scan_bound()


@pytest.mark.parametrize("env,argv,named", [
    (None, ["--scan", "-5"], "--scan"),
    (None, ["--scan", "0"], "--scan"),
    (None, ["--scan", "abc"], "--scan"),
    ("abc", [], "NILCOHOM_SCAN_BOUND"),
    ("-3", [], "NILCOHOM_SCAN_BOUND"),
    ("2.5", [], "NILCOHOM_SCAN_BOUND"),
])
def test_bad_scan_bound_exit_2(capsys, tmp_path, monkeypatch, env, argv,
                               named):
    if env is None:
        monkeypatch.delenv("NILCOHOM_SCAN_BOUND", raising=False)
    else:
        monkeypatch.setenv("NILCOHOM_SCAN_BOUND", env)
    f = tmp_path / "period.json"
    f.write_text(LEAF_DOC % '{"type": "rational", "value": "1/2"}')
    code, out, err = run(capsys, "toroidal", str(f), *argv)
    assert code == 2
    assert named in err and "positive integer" in err
    code, out, err = run(capsys, *VERIFY_ARGS, *argv)
    assert code == 2
    assert named in err


@pytest.mark.parametrize("number,entry", [
    ('{"type": "rational", "value": "1/2"}', "1/0"),
    ('{"type": "sqrt", "d": 4}', "a"),
    ('{"type": "quadratic", "poly": [1, 0, -4]}', "a"),
    ('{"type": "quadratic", "poly": [1, 0, 4]}', "a"),
    ('{"type": "quadratic"}', "a"),
    ('{"type": "convergents"}', "a"),
    ('{"type": "convergents", "family": "power-tower:3"}', "a"),
    ('{"type": "sqrt", "d": 2.9}', "a"),
    ('{"type": "rational", "value": true}', "a"),
    ('{"type": "quadratic", "poly": [1, 0, -2.5]}', "a"),
    ('{"type": "convergents", "family": "power-tower", "base": 2.9, '
     '"start": 4.5}', "a"),
    ('{"type": "sqrt", "d": 2, "root": "minus"}', "a"),
    ('{"type": "rational", "value": 0.1}', "a"),
])
def test_toroidal_bad_numbers_exit_2(capsys, tmp_path, number, entry):
    f = tmp_path / "period.json"
    f.write_text(json.dumps({"dimension": 2,
                             "numbers": {"a": json.loads(number)},
                             "generators": [["1", "0"], ["0", "1"],
                                            [entry, "i"]]}))
    code, out, err = run(capsys, "toroidal", str(f))
    assert code == 2
    assert err.startswith("error: malformed")


@pytest.mark.parametrize("param", ["a=sqrt:4", "a=sqrt:x", "a=1/0",
                                   "a=power-tower:2,8,9"])
def test_verify_theorem_bad_param_exit_2(capsys, param):
    code, out, err = run(capsys, *VERIFY_ARGS, "--param", param)
    assert code == 2
    assert err.startswith("error: malformed")


def test_catalog_deterministic_json(capsys):
    code1, out1, _ = run(capsys, "catalog", "run", "--filter", "kodaira",
                         "--json")
    code2, out2, _ = run(capsys, "catalog", "run", "--filter", "kodaira",
                         "--json")
    assert out1 == out2


def abelian_tuple(n):
    return "(" + ",".join(["0"] * n) + ")"


@pytest.mark.parametrize("n,flags", [
    (13, ["--de-rham"]), (40, ["--de-rham"]),
    (14, ["--J", "std", "--hodge-table"]),
    (30, ["--J", "std", "--hodge-table"]),
])
def test_too_many_letters_exit_4(capsys, n, flags):
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", abelian_tuple(n), *flags)
    assert code == 4
    assert time.perf_counter() - start < 5
    assert f"{n} letters exceed the limit of 12" in err


def test_twelve_letters_still_computed(capsys):
    # Heisenberg times R^9: (1 + 2t + 2t^2 + t^3)(1 + t)^9
    code, out, err = run(capsys, "cohomology",
                         "(0,0,0,0,0,0,0,0,0,0,0,12)", "--de-rham")
    assert code == 0
    h3 = [1, 2, 2, 1]
    betti = [sum(h3[i] * math.comb(9, k - i) for i in range(4) if k >= i)
             for k in range(13)]
    assert f"betti: {betti}" in out


def count_calls(monkeypatch, *names):
    """Count the calls of the named cxstruct functions and classes."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(cxstruct, name,
                            counting(name, getattr(cxstruct, name)))
    return calls


def test_verify_theorem_splits_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, "pq_splitting")
    code, out, err = run(capsys, *VERIFY_ARGS)
    assert code == 0
    assert calls == {"pq_splitting": 1}


@pytest.mark.parametrize("param", [[], ["--param", "a=1/2"]])
def test_verify_theorem_builds_constraint_rows_once(capsys, monkeypatch,
                                                    param):
    # the foliation case (formal a) and the fibration case (a = 1/2)
    # read Gamma-rationality and the leaf off one leaf lattice
    import nilcohom.liealg as liealg

    calls = Counter()
    original = liealg._rational_constraint_rows

    def counting(*args):
        calls["_rational_constraint_rows"] += 1
        return original(*args)

    monkeypatch.setattr(liealg, "_rational_constraint_rows", counting)
    code, out, err = run(capsys, *VERIFY_ARGS, *param)
    assert code == 0
    assert calls == {"_rational_constraint_rows": 1}


def test_hodge_table_runs_nijenhuis_once(capsys, monkeypatch):
    # integrability is read off the splitting; the Nijenhuis pass runs
    # once, and only to name the witness of a refusal
    calls = count_calls(monkeypatch, "nijenhuis", "pq_splitting")
    code, out, err = run(capsys, "cohomology", "h7", "--J", "std",
                         "--hodge-table")
    assert code == 0
    assert calls == {"pq_splitting": 1}
    code, out, err = run(capsys, "cohomology", "kt", "--J", "pairs:1-3,2-4",
                         "--hodge-table")
    assert (code, out) == (4, "")
    assert err == ("error: complex structure is not integrable: Nijenhuis "
                   "tensor nonzero on basis pair (1, 2): (0, 0, 0, -1)\n")
    assert calls == {"pq_splitting": 2, "nijenhuis": 1}


def test_catalog_derives_each_structure_once(capsys, monkeypatch):
    calls = count_calls(monkeypatch, "nijenhuis", "pq_splitting",
                        "BigradedComplex")
    code, out, err = run(capsys, "catalog", "run", "--filter",
                         "kodaira-thurston")
    assert code == 0
    assert calls == {"pq_splitting": 1, "BigradedComplex": 1}


# J^2 = -id on h7, but J is not integrable: N(e1, e2) = 3 e5 + 4 e6
TWISTED_H7_J = ("[[0,-1,0,0,0,0],[1,0,0,0,0,0],[-1,-3,-1,-2,0,0],"
                "[-1,2,1,1,0,0],[0,-3,-2,-2,1,-1],[1,-1,-2,0,2,-1]]")


@pytest.mark.parametrize("argv", [
    ["cohomology", "h7", "--J", TWISTED_H7_J, "--hodge-table"],
    ["verify-theorem", "h7", "--J", TWISTED_H7_J,
     "--lattice", "builtin:example-a", "--ideal", "e3,e4,e5,e6",
     "--f0", "e5,e6", "--g0", "Xbar1,Xbar3", "--param", "a=1/3"],
])
def test_every_command_refuses_a_non_integrable_j(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == ("error: complex structure is not integrable: Nijenhuis "
                   "tensor nonzero on basis pair (1, 2): (0, 0, 0, 0, 3, 4)\n")


@pytest.mark.parametrize("d2,code", [(8, 0), (3, 4)])
def test_period_surds_must_share_one_field(capsys, tmp_path, d2, code):
    # sqrt 8 = 2 sqrt 2 lives in Q(sqrt 2); sqrt 3 does not
    f = tmp_path / "period.json"
    f.write_text(json.dumps({
        "dimension": 2,
        "numbers": {"r": {"type": "sqrt", "d": 2},
                    "s": {"type": "sqrt", "d": d2}},
        "generators": [["1", "0"], ["0", "1"], ["r+s", "i"]]}))
    assert run(capsys, "toroidal", str(f))[0] == code


def test_formal_parameter_in_a_denominator_exit_4(capsys, tmp_path):
    # the complex part of the span is the line z1 = 0, and both
    # generators outside it carry a: whichever spans the complement, the
    # other's glueing entry is a/(a + 1) or (a + 1)/a, which is not a
    # rational combination of the declared numbers
    f = tmp_path / "period.json"
    f.write_text(json.dumps({
        "dimension": 2, "numbers": {"a": {"type": "formal"}},
        "generators": [["a", "0"], ["0", "i"], ["a+1", "1"]]}))
    code, out, err = run(capsys, "toroidal", str(f))
    assert code == 4
    assert "glueing entry (1, 2)" in err
    assert "Traceback" not in err


TWELVE_LETTERS = "(0,0,0,0,0,0,0,0,0,0,12,34)"


def test_twelve_letter_hodge_table(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", TWELVE_LETTERS, "--J", "std",
                         "--hodge-table", "--json")
    assert time.perf_counter() - start < 3
    assert code == 0
    assert json.loads(out)["results"]["hodge_table"] == [
        [1, 6, 15, 20, 15, 6, 1], [5, 29, 70, 90, 65, 25, 4],
        [10, 58, 140, 180, 130, 50, 8], [11, 66, 165, 220, 165, 66, 11],
        [8, 50, 130, 180, 140, 58, 10], [4, 25, 65, 90, 70, 29, 5],
        [1, 6, 15, 20, 15, 6, 1]]


def test_twelve_letter_de_rham(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "cohomology", TWELVE_LETTERS, "--de-rham")
    assert time.perf_counter() - start < 1
    assert code == 0
    # two Heisenberg algebras times R^6
    h3 = [1, 2, 2, 1]
    h3_squared = [sum(h3[i] * h3[k - i] for i in range(4) if 0 <= k - i < 4)
                  for k in range(7)]
    betti = [sum(h3_squared[i] * math.comb(6, k - i)
                 for i in range(7) if 0 <= k - i <= 6) for k in range(13)]
    assert f"betti: {betti}" in out


def test_catalog_run_ranks_without_fraction_free_elimination(capsys,
                                                              monkeypatch):
    calls = Counter()

    def counting(m):
        calls["rank_fraction_free"] += 1
        return real(m)

    real = linalg.rank_fraction_free
    for module in (cxstruct, linalg):
        monkeypatch.setattr(module, "rank_fraction_free", counting)
    code, out, err = run(capsys, "catalog", "run")
    assert code == 0
    assert "all checks passed" in out
    assert calls == {}


@pytest.mark.parametrize("argv", [
    ["cohomology", "h7", "--J", "std", "--hodge-table"],
    ["catalog", "run", "--filter", "kodaira-thurston"],
])
def test_corrupted_reduction_exits_3(capsys, corrupted_reductions, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert "certificate" in err


def test_ten_letter_catalog_file(capsys, tmp_path):
    f = tmp_path / "cat.json"
    f.write_text(json.dumps({"entries": [{
        "name": "g10", "equations": "(0,0,0,0,0,0,0,0,12,34)",
        "complex_structures": {"std": "std"}}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "catalog", "run", "--file", str(f),
                         "--json")
    assert time.perf_counter() - start < 10
    assert code == 0
    checks = json.loads(out)["results"]["g10"]["checks"]
    assert checks["std:elimination_oracle_agrees"]
    assert all(checks.values())


def test_toroidal_names_too_few_convergent_ratios(capsys, tmp_path):
    # a power tower from 65536 materialises only 2 convergent ratios,
    # and they increase; no wild evidence is possible from 2 of them
    f = tmp_path / "period.json"
    f.write_text(LEAF_DOC % json.dumps({
        "type": "convergents", "family": "power-tower", "base": 2,
        "start": 65536}))
    code, out, err = run(capsys, "toroidal", str(f), "--scan", "3", "--json")
    assert code == 0
    verdict = json.loads(out)["results"]["verdict"]
    assert verdict["kind"] == "undetermined"
    assert verdict["reason"].startswith(
        "fewer than 3 convergent ratios: [0.69")
