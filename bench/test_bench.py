"""Tests of the benchmark itself: the correctness check catches wrong
results, the generator is seeded, the tracer is exact and removable,
the cap fires, and a checkout without the package is refused."""

import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen_inputs as gi  # noqa: E402
import queries as Q  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

KT_DE = [{}, {}, {}, {(0, 1): 1}]


def results_of(q):
    return Q.execute(q)()


@pytest.fixture()
def checker():
    return checks.Checker(golden={})


def test_perturbed_hodge_entry_is_flagged(checker):
    q = Q.cohomology_query(KT_DE, "std")
    r = results_of(q)
    assert checker.check(q, r) == []
    r["hodge_table"][0][1] += 1
    errs = checker.check(q, r)
    assert any("Serre" in e for e in errs)
    assert any("oracle" in e for e in errs)


def test_wrong_verdict_kind_is_flagged(checker, tmp_path):
    doc = {"dimension": 2, "numbers": {"a": {"type": "sqrt", "d": 2}},
           "generators": [["1", "0"], ["0", "1"], ["a", "i"]]}
    q = Q.toroidal_query(doc, "sqrt", str(tmp_path / "p.json"))
    (tmp_path / "p.json").write_text(q.files[str(tmp_path / "p.json")])
    r = results_of(q)
    assert checker.check(q, r) == []
    r["verdict"]["kind"] = "undetermined"
    assert checker.check(q, r)
    verify = {"checklist": [], "verdict": "theorem applies",
              "leaf": {"theta": {"kind": "wild-evidence"}}}
    assert checks.Checker.verify_verdict(verify, "sqrt")
    assert not checks.Checker.verify_verdict(verify, "power-tower")


def test_golden_mismatch_is_flagged():
    q = Q.cohomology_query(KT_DE, "std")
    r = results_of(q)
    assert checks.Checker(golden={q.key: r}).check(q, r) == []
    bad = {"hodge_table": [[1, 1, 0], [1, 2, 1], [0, 1, 1]]}
    assert "golden" in checks.Checker(golden={q.key: bad}).check(q, r)[0]


def test_golden_covers_seed_zero(tmp_path):
    golden = checks.load_golden()
    stats = gi.GenStats()
    for workload in Q.WORKLOADS:
        for q in Q.build_pass(workload, 0, 0, stats, str(tmp_path)):
            assert q.key in golden, q.name
    for q in Q.build_probe(str(tmp_path)):
        assert q.key in golden, q.name


def test_passes_are_seeded(tmp_path):
    def keys(seed, k):
        return [q.key for q in Q.build_pass("leaf-verdicts", seed, k,
                                            gi.GenStats(), str(tmp_path))]
    assert keys(3, 0) == keys(3, 0)
    assert keys(3, 0) != keys(4, 0)
    assert sorted(keys(3, 0)) != sorted(keys(3, 1))


def test_generator_agrees_with_package():
    from nilcohom.catalog import resolve_complex_structure
    from nilcohom.cxstruct import is_integrable
    from nilcohom.liealg import commutator_ideal, parse_structure_equations

    rng = gi.make_rng(5, "test")
    stats = gi.GenStats()
    for _ in range(5):
        de, spec, _ = gi.integrable_pair(rng, 6, stats)
        g = parse_structure_equations(gi.format_tuple(de))
        assert is_integrable(resolve_complex_structure(g, spec))
        assert commutator_ideal(g).dim == gi.commutator_dim(de)
    assert not gi.is_jacobi([{}, {}, {(0, 1): 1}, {(0, 2): 1, (1, 2): 1},
                             {(1, 3): 1}])
    kt = parse_structure_equations("(0,0,0,12)")
    skew = [(1, 3), (2, 4)]
    assert not gi.is_integrable(KT_DE, gi.j_from_pairs(skew, 4))
    assert not is_integrable(resolve_complex_structure(kt, "pairs:1-3,2-4"))
    assert stats.tries >= stats.accepted == 5


def test_tail_latency_percentile():
    lat = [float(i) for i in range(60)]
    value, pct, beyond = run.tail_latency(lat)
    assert (value, beyond) == (49.0, 10)
    assert pct == pytest.approx(100 * 50 / 60)
    assert run.tail_latency([2.0]) == (2.0, 100.0, 0)


def test_tracer_counts_repeat_and_uninstall_restores():
    import nilcohom.cli as cli
    import nilcohom.exact.linalg as la

    originals = (la.rref, cli.hodge_table, la.Matrix.__mul__)
    q = Q.cohomology_query(KT_DE, "std")
    counts = []
    for _ in range(2):
        tr = Tracer().install()
        try:
            assert cli.hodge_table is not originals[1]
            results_of(q)
        finally:
            tr.uninstall()
        m = tr.metrics()
        counts.append({k: v for k, v in m.items()
                       if k.endswith((".calls", ".cells", ".mults", ".mul"))})
        assert m["linalg.rref.calls"] > 0 and m["cxstruct.hodge_table.s"] > 0
        assert all(s[4] is None or s[4] < s[0] for s in tr.spans)
    assert counts[0] == counts[1]
    assert (la.rref, cli.hodge_table, la.Matrix.__mul__) == originals


def test_query_cap_reports_and_counts(monkeypatch):
    de = [{}, {}, {}, {}, {}, {}, {}, {(0, 1): 1}, {(2, 3): 1}, {(4, 5): 1}]
    q = Q.cohomology_query(de)
    monkeypatch.setattr(run, "QUERY_CAP_S", 0.01)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        rec = run.run_query(q)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert rec.error == "capped at 0.01 s"
    failures = run.evaluate([rec], checks.Checker(golden={}))
    assert failures == [(q.name, rec.error)]


def test_checkout_without_package_is_refused(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dolbeault",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
