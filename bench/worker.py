"""One benchmark worker: set-up, timed passes, reference checks.

Started by ``run.py`` in a fresh interpreter, so that set-up pays the real
import cost::

    python3 bench/worker.py --workload covers --seed 1 --seconds 20 \
        --trace 0 --work bench/.work/x [--setup-only] [--spans FILE]

Set-up is the numpy and ``hcc`` import, seeded input generation, writing
the files and a warm-up on inputs the workload never uses (p = 11), so no
cache of the program holds a workload answer before the first pass.

Each pass runs the whole query set once, closed loop (one client sends a
query only after the previous one returned), as in-process
``hcc.cli.main(argv)`` calls with stdout captured.  Every pass runs in a
forked child of the set-up process, so each pass starts from the same
state (caches of the program included) and its ``ru_maxrss`` is its own.
The worker limits its address space below free memory, so an
over-allocation fails as a ``MemoryError`` inside the child rather than
exhausting the machine.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MEMORY_CAP = 3 << 30

# a named span must fire on each workload listed (the workloads whose
# end-to-end metrics it is expected to move and that can reach it)
GATE = {
    "cli.main": ("covers", "relators", "filtration"),
    "fpexact.matmul": ("covers",),
    "fpexact.rank": ("covers",),
    "fpexact.rref": ("relators",),
    "fpexact.smith_normal_form": ("relators",),
    "presentations.fox_derivative": ("relators", "covers"),
    "presentations.parse_presentation": ("relators", "covers"),
    "presentations.complex_summary": ("relators",),
    "presentations.reidemeister_schreier": ("relators",),
    "presentations.normalize_presentation": ("relators",),
    "covers.build_cover": ("covers", "relators"),
    "covers.parse_homomorphism": ("covers",),
    "covers.hc_verdict": ("covers",),
    "bounds.growth_iterate": ("relators",),
    "bounds.bound_general": ("filtration",),
    "bounds.with_actual": ("covers",),
    "groupring.filtration_profile": ("filtration", "covers"),
    "groupring.make_group": ("filtration", "covers"),
    "omega.omega_by_convolution": ("filtration",),
    "omega.check_inequality_suite": ("filtration",),
}

WARMUP_FILES = {
    "warm.pres": "< a, b | a b a^-1 b^-1 >",
    "warm.hom": "a -> (1)\nb -> (0)\n",
    "warm_free.pres": "< a, b | >",
}
WARMUP = (
    ["omega", "--p", "11", "--r", "2"],
    ["ring", "--p", "11", "--cyclic", "11"],
    ["cover", "--pres", "{dir}/warm.pres", "--hom", "{dir}/warm.hom", "--p", "11"],
    ["present", "--pres", "{dir}/warm.pres", "--p", "11", "--normalize"],
    ["bounds", "--b1", "2", "--d", "1", "--p", "11", "--cyclic", "11"],
    ["iterate", "--pres", "{dir}/warm_free.pres", "--p", "11", "--steps", "1"],
)


def memory_limit() -> int:
    """Address-space limit: 3 GiB, or three quarters of available memory."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return min(MEMORY_CAP, int(line.split()[1]) * 1024 * 3 // 4)
    except OSError:
        pass
    return MEMORY_CAP


def _argv(argv, work):
    return [a.replace("{dir}", work) for a in argv]


def call(main, argv):
    """One query: (exit code or None, stdout, raised, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a raised query is a counted failure
        code, raised = None, f"{type(exc).__name__}: {exc}"[:300]
    return code, out.getvalue(), raised, time.perf_counter() - t0


def in_child(fn):
    """Run ``fn()`` in a forked child and return its JSON-able result."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        try:
            data = json.dumps(fn()).encode()
        except BaseException as exc:  # the child must reach os._exit; the parent reports it
            data = json.dumps({"error": f"{type(exc).__name__}: {exc}"[:300]}).encode()
        with os.fdopen(wfd, "wb") as fh:
            fh.write(data)
        os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        return {"error": f"pass process ended with status {status} and no result"}
    return json.loads(data)


def run_pass(hcc, trace_mod, queries, work, traced, keep_text):
    # untimed: first touches of the pages shared with the set-up process
    for argv in WARMUP:
        call(hcc.cli.main, _argv(argv, work))
    rec = None
    if traced:
        rec = trace_mod.Recorder()
        rec.install()
    rows = []
    start = time.perf_counter()
    for i, q in enumerate(queries):
        if rec is not None:
            rec.query = i
        code, text, raised, secs = call(hcc.cli.main, _argv(q.argv, work))
        data = text.encode()
        rows.append({
            "code": code, "raised": raised, "s": secs, "bytes": len(data),
            "digest": hashlib.sha256(data).hexdigest(), "text": text if keep_text else None,
        })
    wall = time.perf_counter() - start
    result = {"traced": traced, "wall_s": wall, "rows": rows,
              "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if rec is not None:
        spans = rec.spans
        result["layers"] = trace_mod.aggregate(spans)
        top = sum(sp.end - sp.start for sp in spans if sp.parent < 0)
        result["attributed_share"] = top / wall
        result["spans"] = [[sp.name, sp.start - start, sp.end - start, sp.parent, sp.query] for sp in spans]
    return result


def tail(latencies):
    """Latency at the highest percentile of one pass's ``n`` query
    latencies that has ten of them beyond it, (n - 10) / n, and that
    percentile; the maximum when n <= 10."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def set_up(args):
    """Import, generate and write the inputs, warm up; returns the modules."""
    sys.path.insert(0, SRC)
    import numpy

    import hcc
    import hcc.cli

    if not os.path.abspath(hcc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported hcc from {hcc.__file__}, not from {SRC}")
    import workloads

    inputs = workloads.generate(args.workload, args.seed)
    os.makedirs(args.work, exist_ok=True)
    for name, text in {**inputs.files, **WARMUP_FILES}.items():
        with open(os.path.join(args.work, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for argv in WARMUP:
        code, _, raised, _ = call(hcc.cli.main, _argv(argv, args.work))
        if code != 0:
            raise SystemExit(f"warm-up query {argv} failed: exit {code}, {raised}")
    return numpy, hcc, inputs


def measure(hcc, queries, args):
    """Passes until the next one would end after ``args.seconds``; a traced
    run alternates untraced and traced passes."""
    import trace as trace_mod

    kinds = [False, True] if args.trace else [False]
    passes = []
    t_start = time.perf_counter()
    while True:
        traced = kinds[len(passes) % len(kinds)]
        res = in_child(lambda: run_pass(hcc, trace_mod, queries, args.work, traced, not passes))
        if "error" in res:
            raise SystemExit(f"pass {len(passes)} failed: {res['error']}")
        passes.append(res)
        elapsed = time.perf_counter() - t_start
        if len(passes) >= len(kinds) and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            return passes


def check_answers(hcc, queries, passes, errors):
    """Reference-check the first pass; every pass must match it byte for
    byte.  Returns the number of failed query executions."""
    import references

    failed = 0
    for i, (q, row) in enumerate(zip(queries, passes[0]["rows"])):
        bad = (references.check(q.check, row["text"], row["code"], hcc) if row["raised"] is None
               else [f"raised {row['raised']}"])
        errors += [f"query {i} ({q.argv[0]}): {msg}" for msg in bad[:3]]
        for res in passes:
            r = res["rows"][i]
            if bad or r["raised"] is not None or r["code"] != 0:
                failed += 1
            elif r["digest"] != row["digest"]:
                failed += 1
                errors.append(f"query {i}: stdout differs between passes")
    return failed


def run_probe(hcc, q, work, errors):
    """The memory-guard query, once, in its own child under the limit."""
    import references

    res = in_child(lambda: dict(zip(("code", "text", "raised", "s"), call(hcc.cli.main, _argv(q.argv, work)))))
    raised = res.get("raised") or res.get("error")
    if raised and raised.startswith("MemoryError"):
        # the known over-allocation, stopped by the limit: a counted failure
        return {"outcome": raised, "failed": 1, "seconds": res.get("s")}
    bad = [raised] if raised else references.check(q.check, res["text"], res["code"], hcc)
    errors += [f"memory-guard query: {m}" for m in bad[:3]]
    return {"outcome": "; ".join(bad[:3]) or "answered", "failed": int(bool(bad)), "seconds": res.get("s")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    limit = memory_limit()
    resource.setrlimit(resource.RLIMIT_AS, (limit, resource.getrlimit(resource.RLIMIT_AS)[1]))
    numpy, hcc, inputs = set_up(args)
    setup_s = time.perf_counter() - T0
    gc.collect()
    gc.freeze()  # the pass processes then leave the set-up heap unwritten
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    queries = inputs.queries
    passes = measure(hcc, queries, args)
    errors: list[str] = []
    failed = check_answers(hcc, queries, passes, errors)
    probe = run_probe(hcc, inputs.probe, args.work, errors) if inputs.probe else None

    # Each time metric is a figure of one pass, averaged over the untraced
    # passes.  The machine's speed shifts between phases that last from a
    # second to minutes; a mean moves in proportion to the share of passes
    # a phase covers, where a median jumps from one phase to the other.
    plain = [p for p in passes if not p["traced"]]
    lat_ms = [[row["s"] * 1000 for row in p["rows"]] for p in plain]
    tail_pct = tail(lat_ms[0])[1]
    out = {
        "setup_s": setup_s, "attempted": len(passes) * len(queries), "failed": failed, "errors": errors,
        "end_to_end": {
            "wall_s": statistics.fmean(p["wall_s"] for p in plain),
            "query_p50_ms": statistics.fmean(statistics.median(lat) for lat in lat_ms),
            "query_tail_ms": statistics.fmean(tail(lat)[0] for lat in lat_ms),
            "peak_rss_mb": max(p["rss_mb"] for p in plain),
        },
        "tail_percentile": tail_pct, "queries": len(queries), "passes": len(plain),
        "pass_walls": [p["wall_s"] for p in passes], "probe": probe,
        "query_ms": [[q.argv[0], *(p["rows"][i]["s"] * 1000 for p in plain)] for i, q in enumerate(queries)],
        "input_digest": inputs.digest(),
        "output_digest": hashlib.sha256("".join(r["digest"] for r in passes[0]["rows"]).encode()).hexdigest(),
        "memory_limit_mb": limit / 2**20,
        "numpy": numpy.__version__, "blas": blas_info(numpy),
    }
    if args.trace:
        out["per_layer"] = per_layer(passes, args.workload, errors, probe)
        out["traced_passes"] = len(passes) - len(plain)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start_s", "end_s", "parent", "query"],
                           "passes": [p["spans"] for p in passes if p["traced"]]}, fh)
    print(json.dumps(out))
    return 0


def per_layer(passes, workload, errors, probe):
    """Median over the traced passes of each layer metric."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    names = set().union(*(p["layers"] for p in traced))
    for span, workloads in GATE.items():
        if workload in workloads and span not in names:
            errors.append(f"span {span} recorded no calls on {workload}")
    metrics = {}
    for name in names:
        fields = set().union(*(p["layers"].get(name, {}) for p in traced))
        for f in fields:
            # sizes and counts repeat exactly; take a value that occurred
            median = statistics.median if f in ("s", "self_s") else statistics.median_low
            metrics[f"{name}.{f}"] = median(p["layers"].get(name, {}).get(f, 0) for p in traced)
    metrics["cli.stdout_bytes"] = sum(r["bytes"] for r in traced[0]["rows"])
    metrics["trace.overhead_ratio"] = (statistics.fmean(p["wall_s"] for p in traced)
                                       / statistics.fmean(p["wall_s"] for p in plain))
    metrics["trace.attributed_share"] = statistics.median(p["attributed_share"] for p in traced)
    metrics["guard.probe_failures"] = probe["failed"] if probe else 0
    return metrics


def blas_info(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode; the name is informational
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
