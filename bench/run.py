"""The hcc benchmark: seeded query workloads driven through ``hcc.cli.main``.

Run from the root of a source checkout::

    python3 bench/run.py --workload covers --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --report --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` adds traced passes and reports the per-layer metrics.  ``--report``
runs every workload both ways and prints every metric.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the full run record (machine, versions, input
digest, per-layer detail) goes to ``bench/out/``.  The exit code is 0
only when every answer matched its reference.

Set-up is measured in ``SETUP_RUNS`` fresh interpreters and reported as
their median.  See NOTES.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("covers", "relators", "filtration")
SETUP_RUNS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("fpexact.matmul.calls", "count"), ("fpexact.matmul.s", "s"), ("fpexact.matmul.macs", "count"),
    ("fpexact.rank.calls", "count"), ("fpexact.rank.s", "s"), ("fpexact.rank.entries", "count"),
    ("fpexact.rref.s", "s"),
    ("fpexact.smith_normal_form.s", "s"), ("fpexact.smith_normal_form.ops", "count"),
    ("presentations.fox_derivative.calls", "count"), ("presentations.fox_derivative.s", "s"),
    ("presentations.parse_presentation.s", "s"), ("presentations.parse_presentation.letters", "count"),
    ("covers.build_cover.calls", "count"), ("covers.build_cover.s", "s"),
    ("covers.build_cover.self_s", "s"), ("covers.build_cover.d2_entries", "count"),
    ("covers.parse_homomorphism.s", "s"), ("covers.hc_verdict.s", "s"),
    ("presentations.complex_summary.s", "s"), ("presentations.complex_summary.entries", "count"),
    ("presentations.reidemeister_schreier.s", "s"), ("presentations.reidemeister_schreier.letters", "count"),
    ("presentations.normalize_presentation.self_s", "s"),
    ("bounds.growth_iterate.s", "s"), ("bounds.growth_iterate.self_s", "s"),
    ("bounds.growth_iterate.stages", "count"), ("bounds.growth_iterate.truncated", "count"),
    ("groupring.filtration_profile.calls", "count"), ("groupring.filtration_profile.s", "s"),
    ("groupring.filtration_profile.repeat_share", "ratio"),
    ("groupring.make_group.s", "s"), ("groupring.make_group.table_entries", "count"),
    ("omega.omega_by_convolution.s", "s"), ("omega.check_inequality_suite.s", "s"),
    ("bounds.bound_general.s", "s"), ("bounds.bound_elementary_abelian.s", "s"), ("bounds.with_actual.s", "s"),
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"), ("cli.stdout_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"), ("trace.attributed_share", "ratio"),
    ("guard.probe_failures", "count"),
)


def machine() -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor() or "unknown",
            "mem_total_mb": None, "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        with open("/proc/meminfo") as fh:
            kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("MemTotal:"))
            info["mem_total_mb"] = kb // 1024
    except (OSError, StopIteration):
        pass
    return info


def worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))
    return env


def run_worker(args: list[str], deadline: float, env: dict) -> dict:
    """Run worker.py in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("worker passed the run's deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int, mach: dict) -> dict:
    deadline = time.monotonic() + seconds + 140  # a run ends within seconds + 150
    env = worker_env(mach["nproc"])
    work = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        setups = [run_worker([*common, "--work", f"{work}/setup{i}", "--setup-only"], deadline, env)["setup_s"]
                  for i in range(SETUP_RUNS - 1)]
        spans = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
        res = run_worker([*common, "--work", f"{work}/run", *(["--spans", spans] if trace else [])],
                         deadline, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])
    res["setup_samples"] = setups
    res["end_to_end"]["setup_s"] = statistics.median(setups)
    res["correct"] = not res["errors"]
    res.update(workload=workload, seed=seed, seconds=seconds, trace=trace, machine=mach,
               blas_threads=int(env["OPENBLAS_NUM_THREADS"]))
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    return res


def fail_ratio(res: dict) -> tuple[int, int]:
    probe = res.get("probe") or {}
    return res["failed"] + probe.get("failed", 0), res["attempted"] + (1 if probe else 0)


def describe(res: dict) -> list[str]:
    m = res["machine"]
    lines = [
        f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}  "
        f"{res['queries']} queries/pass, {res['passes']} untraced passes, closed loop, 1 client",
        f"  machine: {m['nproc']} CPUs, {m['cpu']}, MemTotal {m['mem_total_mb']} MB; "
        f"Python {m['python']}, numpy {res['numpy']}, BLAS {res['blas']} (threads <= {res['blas_threads']})",
        f"  inputs sha256 {res['input_digest']}  outputs sha256 {res['output_digest']}",
        f"  address-space limit {res['memory_limit_mb']:.0f} MB",
    ]
    e2e = res["end_to_end"]
    for name, unit in END_TO_END:
        extra = f"  (p{res['tail_percentile']:.1f}: ten queries of each pass beyond it)" if name == "query_tail_ms" else ""
        lines.append(f"  {name:<16} {e2e[name]:.6g} {unit}{extra}")
    failed, attempted = fail_ratio(res)
    probe = res.get("probe")
    note = f"  (memory-guard query: {probe['outcome']})" if probe else ""
    lines.append(f"  {'fail_ratio':<16} {failed / attempted:.6g} failed/attempted  ({failed}/{attempted}){note}")
    if res["trace"]:
        for name, unit in PER_LAYER:
            lines.append(f"  {name:<46} {res['per_layer'].get(name, 0):.6g} {unit}")
    lines += [f"  MISMATCH {e}" for e in res["errors"]]
    return lines


def summary_line(res: dict) -> str:
    if res["trace"]:
        metrics = {n: {"value": res["per_layer"].get(n, 0), "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": res["end_to_end"][n], "unit": u} for n, u in END_TO_END}
    return json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                       "failed": res["failed"], "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true", help="every workload, untraced and traced")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hcc", "cli.py")):
        print(f"error: no hcc source tree under {ROOT}/src", file=sys.stderr)
        return 2
    if not args.report and args.workload is None:
        ap.error("--workload is required without --report")
    mach = machine()
    runs = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.report else [(args.workload, args.trace)])
    results = []
    for workload, trace in runs:
        res = run_one(workload, args.seed, args.seconds, trace, mach)
        print("\n".join(describe(res)), flush=True)
        results.append(res)
    ok = all(r["correct"] for r in results)
    if args.report:
        print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results), "metrics": {
                              f"{r['workload']}.{n}": {"value": r["end_to_end"][n], "unit": u}
                              for r in results if not r["trace"] for n, u in END_TO_END}}))
    else:
        print(summary_line(results[0]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
