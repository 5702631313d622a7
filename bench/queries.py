"""Queries and the three workloads.

A query is one user-visible request: a ``nilcohom.cli.main`` call with
generated argv strings (and generated files), or for ``spectral`` one
library call.  A workload builds *passes*: seeded lists of queries
with a fixed composition per query class, so every pass of a workload
does comparable work whatever the seed.  ``build_pass(workload, seed,
k, ...)`` gives pass k; pass 0 also holds the workload's anchors, and
pass k > 0 draws fresh generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import gen_inputs as gi

WORKLOADS = ("dolbeault", "spectral", "leaf-verdicts")

# Built-in h7 lattice example with the Xbar1,Xbar3 leaf.
VERIFY_BASE = ["verify-theorem", "h7", "--J", "std",
               "--lattice", "builtin:example-a", "--ideal", "e3,e4,e5,e6",
               "--f0", "e5,e6", "--g0", "Xbar1,Xbar3", "--json"]

IWASAWA = "(0,0,0,0,13-24,14+23)"
KT = "(0,0,0,12)"
H7 = "(0,0,0,12,13,23)"

# A run is pass 0, which holds the workload's *anchors* (its few
# expensive queries, once per run) and one stream pass, and more stream
# passes around it.  A stream pass has a fixed composition per query class: the seed picks
# the instances, never the counts.  The number of passes is fixed by
# ``--seconds`` (``pass_count``), not by the clock, so every run of a
# workload measures the same mix of queries: with a stopping rule on the
# clock, a slow phase of the host during the 20 s Iwasawa query would
# leave room for fewer cheap queries and move every metric.  The median
# and the tail rank fall inside one query class, a few queries away from
# its edges.
DOLBEAULT_ANCHORS = {"betti12": 1, "catalog": 1, "hodge8": 4}
DOLBEAULT_MIX = {"hodge6": 1, "betti10": 5}
SPECTRAL_ANCHORS = {"hs_real4": 3}
SPECTRAL_MIX = {"frolicher4": 1}
LEAF_ANCHORS = ("formal", "power-tower")
LEAF_TOROIDAL_ANCHORS = ("rational", "sqrt", "quadratic", "formal",
                         "power-tower", "liouville10")
LEAF_CHECKS = 2
LEAF_VERIFY_MIX = {"rational": 1, "sqrt": 3, "quadratic": 1}

# Wall seconds of the anchors and of one stream pass, measured at the
# commit that introduced the benchmark on the machine described in
# bench/README.md.  They only size a run: ``pass_count`` gives a run of
# about ``seconds`` there.
NOMINAL_S = {"dolbeault": (14.0, 2.27), "spectral": (23.0, 0.45),
             "leaf-verdicts": (15.7, 3.4)}


def pass_count(workload, seconds):
    anchors_s, pass_s = NOMINAL_S[workload]
    return max(1, round((seconds - anchors_s) / pass_s))


class Query:
    """One request.

    ``key`` identifies the input (the same key means the same input and
    must give the same results); ``kind`` is the query class; ``pair``
    is the (algebra, J) pair the query works on, used for the repeat
    share; ``expect`` carries what the correctness check needs.
    """

    def __init__(self, key, kind, pair, expect, argv=None, call=None,
                 files=None):
        self.key = key
        self.kind = kind
        self.pair = pair
        self.expect = expect
        self.argv = argv
        self.call = call
        self.files = files or {}

    @property
    def name(self):
        return self.key if len(self.key) <= 120 else self.key[:117] + "..."


# ---------------------------------------------------------------------------
# execution


class QueryFailed(Exception):
    pass


def execute(q):
    """Run the query once; return a zero-argument function producing
    its ``results`` block (decoded after the timed region)."""
    if q.argv is not None:
        from nilcohom import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(q.argv)
            except SystemExit as exc:
                code = exc.code
        if code != 0:
            raise QueryFailed(f"exit code {code}: {err.getvalue().strip()}")

        def decode():
            return json.loads(out.getvalue())["results"]
        return decode
    value = q.call()
    return lambda: value


def _pages_summary(pg):
    return {
        "pages": [sorted([[p, q], v] for (p, q), v in t.items() if v)
                  for t in pg.pages],
        "d_ranks": [sorted([[p, q], v] for (p, q), v in t.items())
                    for t in pg.d_ranks],
        "stabilized_at": pg.stabilized_at,
        "e_inf_totals": {str(k): v for k, v in pg.e_inf_totals().items()},
    }


def _hs_summary(hs):
    out = _pages_summary(hs.pages)
    out["e2_direct"] = sorted([list(k), v] for k, v in hs.e2_direct.items())
    out["e2_matches"] = hs.e2_matches
    out["module_dims"] = hs.module_dims
    return out


def _frolicher_call(text, jspec):
    def call():
        from nilcohom.catalog import resolve_complex_structure
        from nilcohom.liealg import parse_structure_equations
        from nilcohom.specseq import frolicher

        g = parse_structure_equations(text)
        return _pages_summary(frolicher(g, resolve_complex_structure(g, jspec)))
    return call


def _hs_complex_call(text, jspec, labels, p):
    def call():
        from nilcohom.catalog import resolve_complex_structure
        from nilcohom.cxstruct import span_of_frame
        from nilcohom.liealg import parse_structure_equations
        from nilcohom.specseq import hochschild_serre

        g = parse_structure_equations(text)
        J = resolve_complex_structure(g, jspec)
        return _hs_summary(hochschild_serre(g, J, span_of_frame(J, labels), p))
    return call


def _hs_real_call(text):
    def call():
        from nilcohom.liealg import commutator_ideal, parse_structure_equations
        from nilcohom.specseq import hochschild_serre

        g = parse_structure_equations(text)
        return _hs_summary(hochschild_serre(g, None, commutator_ideal(g)))
    return call


# ---------------------------------------------------------------------------
# query constructors


def cohomology_query(de, jspec=None):
    text = gi.format_tuple(de)
    expect = {"tuple": text, "n": len(de), "commutator_dim": gi.commutator_dim(de)}
    if jspec is None:
        argv = ["cohomology", text, "--de-rham", "--json"]
        kind = f"betti{len(de)}"
    else:
        argv = ["cohomology", text, "--J", jspec, "--hodge-table", "--json"]
        kind = f"hodge{len(de)}"
        expect["J"] = jspec
    return Query(" ".join(argv), kind, (text, jspec), expect, argv=argv)


def catalog_query(entries, path):
    """``entries``: list of (name, de, jspec)."""
    doc = {"entries": [{"name": name, "equations": gi.format_tuple(de),
                        "complex_structures": {"j": jspec}}
                       for name, de, jspec in entries]}
    body = json.dumps(doc, sort_keys=True)
    expect = {"entries": {name: {"tuple": gi.format_tuple(de), "J": jspec,
                                 "n": len(de),
                                 "commutator_dim": gi.commutator_dim(de)}
                          for name, de, jspec in entries}}
    return Query("catalog run " + body, "catalog",
                 tuple((gi.format_tuple(de), jspec) for _, de, jspec in entries),
                 expect, argv=["catalog", "run", "--file", path, "--json"],
                 files={path: body})


def frolicher_query(text, jspec, kind):
    return Query(f"frolicher {text} {jspec}", kind, (text, jspec),
                 {"tuple": text, "J": jspec},
                 call=_frolicher_call(text, jspec))


def hs_complex_query(text, jspec, labels, p):
    return Query(f"hochschild_serre {text} {jspec} {','.join(labels)} p={p}",
                 "hs_h7", (text, jspec),
                 {"tuple": text, "J": jspec, "p": p},
                 call=_hs_complex_call(text, jspec, labels, p))


def hs_real_query(text, n):
    return Query(f"hochschild_serre {text} real commutator-ideal",
                 f"hs_real{n}", (text, None), {"tuple": text},
                 call=_hs_real_call(text))


def verify_query(kind, value):
    argv = list(VERIFY_BASE)
    if value is not None:
        argv += ["--param", f"a={value}"]
    return Query(" ".join(argv), f"verify-{kind}", (H7, "std"),
                 {"number": kind}, argv=argv)


def toroidal_query(doc, kind, path):
    body = json.dumps(doc, sort_keys=True)
    return Query("toroidal " + body, f"toroidal-{kind}", None,
                 {"number": kind}, argv=["toroidal", path, "--json"],
                 files={path: body})


def check_query(de):
    text = gi.format_tuple(de)
    argv = ["check", text, "--json"]
    return Query(" ".join(argv), "check", (text, None),
                 {"tuple": text, "n": len(de),
                  "commutator_dim": gi.commutator_dim(de)}, argv=argv)


# ---------------------------------------------------------------------------
# passes


def _dolbeault(rng, stats, k, filedir):
    qs = []
    if k == 0:
        for _ in range(DOLBEAULT_ANCHORS["betti12"]):
            qs.append(cohomology_query(
                gi.nilpotent_tuple(rng, 12, stats, zeros=10, max_terms=1)))
        for c in range(DOLBEAULT_ANCHORS["catalog"]):
            entries = []
            for name, n in (("g6", 6), ("g8", 8)):
                de, jspec, _ = gi.integrable_pair(rng, n, stats, max_terms=1)
                entries.append((name, de, jspec))
            qs.append(catalog_query(
                entries, os.path.join(filedir, f"catalog-{k}-{c}.json")))
        for _ in range(DOLBEAULT_ANCHORS["hodge8"]):
            de, jspec, _ = gi.integrable_pair(rng, 8, stats, max_terms=1)
            qs.append(cohomology_query(de, jspec))
    for _ in range(DOLBEAULT_MIX["hodge6"]):
        de, jspec, _ = gi.integrable_pair(rng, 6, stats, max_terms=1)
        qs.append(cohomology_query(de, jspec))
    for _ in range(DOLBEAULT_MIX["betti10"]):
        qs.append(cohomology_query(
            gi.nilpotent_tuple(rng, 10, stats, zeros=6, max_terms=1)))
    return qs


def _spectral(rng, stats, k, filedir):
    qs = []
    if k == 0:
        qs += [frolicher_query(IWASAWA, "std", "frolicher-iwasawa"),
               frolicher_query(KT, "std", "frolicher4")]
        for p in range(4):
            qs.append(hs_complex_query(H7, "std", ["Xbar1", "Xbar3"], p))
        # with 3 leading zeros every draw costs nearly the same
        for _ in range(SPECTRAL_ANCHORS["hs_real4"]):
            de = gi.nilpotent_tuple(rng, 4, stats, zeros=3)
            qs.append(hs_real_query(gi.format_tuple(de), 4))
    for _ in range(SPECTRAL_MIX["frolicher4"]):
        de, jspec, _ = gi.integrable_pair(rng, 4, stats)
        qs.append(frolicher_query(gi.format_tuple(de), jspec, "frolicher4"))
    return qs


def _leaf(rng, stats, k, filedir):
    qs = []
    if k == 0:
        qs += [verify_query(kind, gi.param_value(rng, kind)
                            if kind != "formal" else None)
               for kind in LEAF_ANCHORS]
        for t, kind in enumerate(LEAF_TOROIDAL_ANCHORS):
            path = os.path.join(filedir, f"period-{t}.json")
            qs.append(toroidal_query(gi.period_doc(rng, kind), kind, path))
        for _ in range(LEAF_CHECKS):
            qs.append(check_query(gi.nilpotent_tuple(rng, 6, stats)))
    for kind, count in LEAF_VERIFY_MIX.items():
        for _ in range(count):
            qs.append(verify_query(kind, gi.param_value(rng, kind)))
    return qs


_BUILDERS = {"dolbeault": _dolbeault, "spectral": _spectral,
             "leaf-verdicts": _leaf}


def build_pass(workload, seed, k, stats, filedir):
    """Pass k of a workload: its queries in seeded order, with the
    anchors in pass 0.  Files the queries read are written under
    ``filedir``."""
    rng = gi.make_rng(seed, workload, k)
    qs = _BUILDERS[workload](rng, stats, k, filedir)
    rng.shuffle(qs)
    for q in qs:
        for path, body in q.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
    return qs


def build_probe(filedir):
    """A fixed, small query set that enters every traced layer once.
    Traced runs start with it so that every per-layer metric is
    measured on every workload; it is never part of a timed run."""
    formal = {"dimension": 2, "numbers": {"a": {"type": "formal"}},
              "generators": [["i", "0"], ["0", "1"], ["i*a", "-i"]]}
    liouville = {"dimension": 2,
                 "numbers": {"a": {"type": "convergents",
                                   "family": "liouville10"}},
                 "generators": [["1", "0"], ["0", "1"], ["a", "i"]]}
    qs = [toroidal_query(formal, "formal",
                         os.path.join(filedir, "probe-formal.json")),
          toroidal_query(liouville, "liouville10",
                         os.path.join(filedir, "probe-liouville.json")),
          verify_query("sqrt", "sqrt:2"),
          hs_real_query(KT, 4)]
    qs[1].argv += ["--scan", "20"]
    qs[1].key += " --scan 20"
    kt = [{}, {}, {}, {(0, 1): 1}]
    qs.append(Query("catalog run --filter kodaira-thurston", "catalog",
                    ((KT, "std"),),
                    {"entries": {"kodaira-thurston": {
                        "tuple": KT, "J": "std", "n": 4,
                        "commutator_dim": gi.commutator_dim(kt)}}},
                    argv=["catalog", "run", "--filter", "kodaira-thurston",
                          "--json"]))
    for q in qs:
        for path, body in q.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(body)
    return qs
