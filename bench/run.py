"""nilcohom benchmark runner.

    python3 bench/run.py --workload dolbeault --seed 1 --seconds 32 --trace 0

Runs one workload (``dolbeault``, ``spectral`` or ``leaf-verdicts``) of
seeded exact-math queries against the package in ``src/`` of this
checkout: one client, one query in flight, no threads (a closed loop).
Pass 0 (the workload's anchors and one stream pass) runs in the middle
of further stream passes; ``--seconds`` fixes their number, sized so a
run measures about that long on the reference machine.  Each query has
a wall-clock cap; a capped or failing query is reported by name and
counted as failed.  Results are checked after the
timed region.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json, or with ``--trace 1`` its per-layer metrics); the line
before it carries details (tail percentile, sample counts, generator
statistics, failures).

``--write-golden`` records ``bench/golden.json`` from seed 0 instead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

QUERY_CAP_S = 60
SETUP_REPEATS = 5  # before and again after the timed passes
TAIL_BEYOND = 10

sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen_inputs as gi  # noqa: E402
import queries as Q  # noqa: E402

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from nilcohom import cli
from nilcohom.catalog import builtin_catalog
builtin_catalog()
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


class QueryCapped(BaseException):
    """Raised by SIGALRM inside a query that ran past its cap.  A
    BaseException, so no ``except Exception`` in the package swallows
    it."""


def _on_alarm(signum, frame):
    raise QueryCapped()


class Record:
    __slots__ = ("query", "latency", "decode", "error")

    def __init__(self, query, latency, decode, error):
        self.query = query
        self.latency = latency
        self.decode = decode
        self.error = error


def run_query(q):
    """One query under the cap; the cap is a timer signal in this
    process, so it starts no thread or process."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, QUERY_CAP_S)
        try:
            decode = Q.execute(q)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return Record(q, time.perf_counter() - t0, decode, None)
    except QueryCapped:
        return Record(q, time.perf_counter() - t0, None,
                      f"capped at {QUERY_CAP_S} s")
    except Exception as exc:  # any failure of the query is a result
        return Record(q, time.perf_counter() - t0, None,
                      f"{type(exc).__name__}: {exc}")


def run_pass(qs, on_query=None):
    records = []
    for i, q in enumerate(qs):
        if on_query is not None:
            on_query(i)
        records.append(run_query(q))
    return records


def measure_setup(warm=True):
    """Wall times from starting a fresh interpreter to the first query
    ready (``nilcohom.cli`` imported, ``builtin_catalog()`` built).
    Unless ``warm`` is false, one unmeasured start first writes the
    bytecode caches."""
    times = []
    for i in range(SETUP_REPEATS + warm):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE, SRC],
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up interpreter failed (exit {code})")
        if i or not warm:
            times.append(t1 - t0)
    return times


# ---------------------------------------------------------------------------
# evaluation


def evaluate(records, checker):
    """Check every record; returns a list of (query name, reason)."""
    failures = []
    first = {}
    for rec in records:
        q = rec.query
        if rec.error is not None:
            failures.append((q.name, rec.error))
            continue
        try:
            results = rec.decode()
            errs = checker.check(q, results)
        except Exception as exc:  # malformed results fail the check
            errs = [f"unreadable results: {type(exc).__name__}: {exc}"]
            results = None
        text = checks.canonical(results)
        if first.setdefault(q.key, text) != text:
            errs.append("results differ from an earlier run of the same input")
        if errs:
            failures.append((q.name, "; ".join(errs)))
    return failures


def repeat_share(records):
    seen, repeats, total = set(), 0, 0
    for rec in records:
        pair = rec.query.pair
        if pair is None:
            continue
        total += 1
        repeats += pair in seen
        seen.add(pair)
    return repeats / total if total else 0.0


def tail_latency(latencies):
    """The highest percentile with TAIL_BEYOND samples beyond it, its
    percentile and the number of samples beyond it.  Every run of a
    workload has the same number of samples, so this is the same rank
    in every run."""
    ordered = sorted(latencies)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return (ordered[rank - 1], 100.0 * rank / len(ordered),
            len(ordered) - rank)


# ---------------------------------------------------------------------------
# runs


def timed_run(workload, seed, seconds, filedir, stats):
    records, wall = [], 0.0
    passes = Q.pass_count(workload, seconds)
    # pass 0, which holds the anchors, runs in the middle, so the stream
    # passes sample the host on both sides of the long anchor queries
    # instead of in one stretch after them
    half = passes // 2
    order = [*range(1, half + 1), 0, *range(half + 1, passes)]
    for k in order:
        qs = Q.build_pass(workload, seed, k, stats, filedir)
        t0 = time.perf_counter()
        records += run_pass(qs)
        wall += time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [r.latency for r in records]
    completed = sum(1 for r in records if r.error is None)
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "queries_per_s": completed / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"passes": passes, "wall_s": wall,
              "latency_tail_percentile": pct,
              "latency_tail_samples_beyond": beyond,
              "samples": len(latencies), "repeat_share": repeat_share(records)}
    return records, metrics, detail


def traced_run(workload, seed, filedir, stats):
    from tracer import Tracer

    probe_qs = Q.build_probe(filedir)
    qs = Q.build_pass(workload, seed, 0, stats, filedir)
    # the overhead is measured on the probe, run once without and once
    # with tracing, so a traced run costs little more than one pass
    t0 = time.perf_counter()
    untraced = run_pass(probe_qs)
    untraced_wall = time.perf_counter() - t0
    tracer = Tracer().install()
    try:
        t0 = time.perf_counter()
        probe = run_pass(probe_qs,
                         lambda i: setattr(tracer, "qid", f"probe{i}"))
        probe_wall = time.perf_counter() - t0
        traced = run_pass(qs, lambda i: setattr(tracer, "qid", i))
    finally:
        tracer.uninstall()

    metrics = tracer.metrics()
    ok = lambda recs: sum(1 for r in recs if r.error is None)  # noqa: E731
    metrics["trace.traced_queries_per_s"] = ok(probe) / probe_wall
    metrics["trace.untraced_queries_per_s"] = ok(untraced) / untraced_wall
    metrics["trace.spans"] = len(tracer.spans)

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "query"],
                   "queries": {**{f"probe{i}": r.query.key
                                  for i, r in enumerate(probe)},
                               **{str(i): q.key for i, q in enumerate(qs)}},
                   "spans": tracer.spans}, fh)
    detail = {"pass_size": len(qs), "probe_size": len(probe),
              "probe_traced_wall_s": probe_wall,
              "probe_untraced_wall_s": untraced_wall,
              "repeat_share": repeat_share(traced),
              "spans_file": os.path.relpath(path, ROOT)}
    return untraced + probe + traced, metrics, detail


def write_golden(filedir):
    """Record the results of seed 0, pass 0 of every workload and of the
    trace probe; refuses when any query fails its invariant checks."""
    stats = gi.GenStats()
    qs = Q.build_probe(filedir)
    for workload in Q.WORKLOADS:
        qs += Q.build_pass(workload, 0, 0, stats, filedir)
    records = run_pass(qs)
    failures = evaluate(records, checks.Checker(golden={}))
    if failures:
        for name, why in failures:
            print(f"FAILED {name}: {why}", file=sys.stderr)
        return 1
    golden = {r.query.key: r.decode() for r in records}
    with open(checks.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"wrote {len(golden)} golden results to {checks.GOLDEN_PATH}")
    return 0


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=Q.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(SRC, "nilcohom", "cli.py")):
        print(f"error: no nilcohom package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import nilcohom

    if os.path.dirname(os.path.abspath(nilcohom.__file__)) != os.path.join(
            SRC, "nilcohom"):
        print(f"error: imported nilcohom from {nilcohom.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(OUT, exist_ok=True)
    filedir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        if args.write_golden:
            return write_golden(filedir)
        stats = gi.GenStats()
        if args.trace:
            records, metrics, detail = traced_run(
                args.workload, args.seed, filedir, stats)
            wanted = spec["per_layer"]
        else:
            # set-up is sampled on both sides of the timed passes, so its
            # median does not hang on one phase of the host
            setup_samples = measure_setup()
            records, metrics, detail = timed_run(
                args.workload, args.seed, args.seconds, filedir, stats)
            setup_samples += measure_setup(warm=False)
            metrics["setup_s"] = statistics.median(setup_samples)
            detail["setup_samples_s"] = setup_samples
            wanted = spec["end_to_end"]
        failures = evaluate(records, checks.Checker())
    finally:
        shutil.rmtree(filedir, ignore_errors=True)

    for name, why in failures:
        print(f"FAILED {name}: {why}", file=sys.stderr)
    detail.update({
        "workload": args.workload, "seed": args.seed,
        "queries_by_kind": _by_kind(records),
        "gen_accept_ratio": stats.accept_ratio,
        "gen_tries": stats.tries,
        "error_rate": len(failures) / len(records),
        "failures": [{"query": n, "reason": w} for n, w in failures],
    })
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


def _by_kind(records):
    """Per query class: count and median latency."""
    lat = {}
    for r in records:
        lat.setdefault(r.query.kind, []).append(r.latency)
    return {k: {"n": len(v), "p50_s": statistics.median(v)}
            for k, v in sorted(lat.items())}


if __name__ == "__main__":
    sys.exit(main())
