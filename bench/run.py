"""gstab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload ptf-search --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, makes one untimed warm-up
round, then repeats the round of timed calls while the timed rounds fit
in --seconds (at least twice; the checks between rounds do not count),
checks every output against an oracle,
and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the run also records spans at every
layer boundary and the metrics are the per-layer ones.  The line before it
is the full report, and a JSON record with provenance, per-operation
checks and output digests goes to .bench_out/ in the checkout.

Timed calls are measured twice: in wall-clock time and in CPU time (the
process's own plus that of the subprocesses it waited for).  The bounded
end-to-end metrics use CPU time, because on a shared virtual machine the
wall clock also counts the time the host gives the CPU to other guests;
the wall-clock figures are printed beside them.

Runs from a checkout of the repository: gstab is imported from src/
beside this directory, never from an installed copy.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("ptf-search", "mc-estimators", "exact-spectral")
SETUP_REPEATS = 3
MIN_ROUNDS = 2
END_TO_END = ("round_cpu_s", "op_p50_cpu_s", "op_tail_cpu_s", "setup_s", "peak_rss_mb")


def cpu_clock() -> float:
    """CPU seconds of this process and of its waited-for subprocesses."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the core count; before numpy loads."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        cap = min(int(current), cores) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(cap)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_gstab():
    """Import gstab from the checkout's src/; exit 2 when it is missing."""
    if not os.path.isfile(os.path.join(SRC, "gstab", "__init__.py")):
        print(f"error: no gstab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import gstab

    if not os.path.abspath(gstab.__file__).startswith(SRC + os.sep):
        print(f"error: gstab imported from {gstab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return gstab


def time_imports() -> tuple[float, float]:
    """Wall and CPU seconds a fresh interpreter takes to start and import
    gstab and the benchmark's modules: medians over SETUP_REPEATS
    subprocesses, each waited for."""
    code = f"import sys; sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]; import gstab.cli, workloads, spans"
    walls, cpus = [], []
    for _ in range(SETUP_REPEATS):
        w0, c0 = time.perf_counter(), cpu_clock()
        subprocess.run([sys.executable, "-c", code], check=True)
        walls.append(time.perf_counter() - w0)
        cpus.append(cpu_clock() - c0)
    return statistics.median(walls), statistics.median(cpus)


def provenance(blas_threads: int, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_thread_cap": blas_threads,
        "seed": seed,
    }


def digest(values) -> str:
    import numpy as np

    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def run_round(ops) -> tuple[float, float, list]:
    """One pass over the ops: (wall time, CPU time, [(wall, cpu, output,
    error)]), each time from the first call's start to the last's end."""
    results = []
    w_first = c_first = w_last = c_last = None
    for op in ops:
        w0, c0 = time.perf_counter(), cpu_clock()
        try:
            out, err = op.call(), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        w1, c1 = time.perf_counter(), cpu_clock()
        if w_first is None:
            w_first, c_first = w0, c0
        w_last, c_last = w1, c1
        results.append((w1 - w0, c1 - c0, out, err))
    return w_last - w_first, c_last - c_first, results


def check_round(ops, results) -> list[tuple]:
    """Check one round's outputs right away, so the run keeps only small
    records: per op (wall, cpu, error message or None, ratio, digest)."""
    from oracles import ratio as error_ratio  # numpy loads only after the BLAS cap

    checked = []
    for op, (wall, cpu, out, err) in zip(ops, results):
        ratio = d = None
        if err is None:
            try:
                e, band = op.check(out)
                ratio = error_ratio(e, band)
                d = digest(op.values(out))
            except Exception as exc:  # a check that cannot run is a failure
                err = f"check {type(exc).__name__}: {exc}"
        if err is None and not ratio <= 1.0:
            err = f"error ratio {ratio}"
        checked.append((wall, cpu, err, ratio, d))
    return checked


TAIL_PERCENTILE = 90


def tail(latencies: dict[str, float]) -> tuple[float, str]:
    """Nearest-rank 90th percentile of the per-op latencies, each op
    counted once, and the op it lands on.  The rank depends only on the
    number of ops in the round, not on how many rounds the run made."""
    ranked = sorted(latencies.items(), key=lambda item: item[1])
    name, value = ranked[max(math.ceil(TAIL_PERCENTILE / 100 * len(ranked)) - 1, 0)]
    return value, name


def summarize(ops, rounds, warmups: int = 0) -> tuple[list[dict], dict, int, float]:
    """Per-op records, per-op latencies, failures and the largest ratio.

    Every round repeats the same calls, so an op's latency is its median
    over the timed rounds (all but the first ``warmups``) in which the
    call returned and its check ran; the latency dicts hold it once per
    op.  Failures and ratios count every round.
    """
    records = []
    latencies = {"wall": {}, "cpu": {}}
    failed = 0
    worst = 0.0
    for j, op in enumerate(ops):
        runs = [r[j] for r in rounds]
        timed = [(wall, cpu) for wall, cpu, _, ratio, _ in runs[warmups:] if ratio is not None]
        ratios = [ratio for *_, ratio, _ in runs if ratio is not None]
        digests = [d for *_, d in runs if d is not None]
        errors = [err for _, _, err, _, _ in runs if err is not None]
        failed += len(errors)
        worst = max([worst, *ratios])
        for i, clock in enumerate(("wall", "cpu")):
            if timed:
                latencies[clock][op.name] = statistics.median(x[i] for x in timed)
        records.append({
            "op": op.name,
            "runs": len(runs),
            "failed": len(errors),
            "max_err_ratio": max(ratios, default=None),
            "latency_median_s": latencies["wall"].get(op.name),
            "cpu_median_s": latencies["cpu"].get(op.name),
            "digest": digests[0] if digests else None,
            "digest_stable": len(set(digests)) <= 1,
            "errors": errors[:3],
        })
    return records, latencies, failed, worst


def changed_digests(workload: str, seed: int, records: list[dict]) -> list[str] | None:
    """Ops whose output digest differs from the one recorded in
    digests.json for this workload and seed; None when none is recorded."""
    path = os.path.join(BENCH_DIR, "digests.json")
    if not os.path.isfile(path):
        return None
    with open(path) as fh:
        recorded = json.load(fh).get(workload, {}).get(str(seed))
    if recorded is None:
        return None
    return [rec["op"] for rec in records if recorded.get(rec["op"]) != rec["digest"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    import_gstab()
    import numpy as np

    sys.path.insert(0, BENCH_DIR)
    import spans
    import workloads

    import_wall, import_cpu = time_imports()

    workdir = os.path.join(ROOT, ".bench_work", args.workload)
    os.makedirs(workdir, exist_ok=True)
    builds_wall, builds_cpu = [], []
    for _ in range(SETUP_REPEATS):
        w0, c0 = time.perf_counter(), cpu_clock()
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, WORKLOAD_NAMES.index(args.workload)]))
        workload = workloads.WORKLOADS[args.workload](rng, workdir)
        builds_wall.append(time.perf_counter() - w0)
        builds_cpu.append(cpu_clock() - c0)
    ops = workload.ops

    tracer = spans.Tracer()

    # warm-up: the first round pays for first-touch allocations and lazy
    # caches (on ptf-search it ran 10-40% slower than the next ones); its
    # outputs are checked, its times are not used
    warmup_wall, _, results = run_round(ops)
    rounds = [check_round(ops, results)]
    del results
    walls, cpus, traced = [], [], []
    restore = None
    try:
        while True:
            # the run's time is the time spent in rounds; stop before a
            # round that would end past it
            elapsed = sum(walls)
            round_s = statistics.median(walls) if walls else 0.0
            if len(walls) >= MIN_ROUNDS and elapsed + round_s > args.seconds:
                break
            # the traced run spends its first third untraced, as the base
            # of the tracing overhead
            if args.trace and restore is None and walls and elapsed >= args.seconds / 3:
                restore = spans.install(tracer)
            tracer.enabled = True
            wall, cpu, results = run_round(ops)
            tracer.enabled = False
            walls.append(wall)
            cpus.append(cpu)
            traced.append(restore is not None)
            rounds.append(check_round(ops, results))
            del results
    finally:
        if restore is not None:
            restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records, latencies, failed, worst = summarize(ops, rounds, warmups=1)
    attempted = len(ops) * len(rounds)
    changed = changed_digests(args.workload, args.seed, records)
    untraced_walls = [w for w, t in zip(walls, traced) if not t]
    untraced_cpus = [c for c, t in zip(cpus, traced) if not t]
    tail_cpu, tail_op = tail(latencies["cpu"]) if latencies["cpu"] else (0.0, None)
    tail_wall, _ = tail(latencies["wall"]) if latencies["wall"] else (0.0, None)
    e2e = {
        "round_cpu_s": (statistics.median(untraced_cpus), "s"),
        "op_p50_cpu_s": (statistics.median(latencies["cpu"].values()) if latencies["cpu"] else 0.0, "s"),
        "op_tail_cpu_s": (tail_cpu, "s"),
        "setup_s": (import_cpu + statistics.median(builds_cpu), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "wall_s": (statistics.median(untraced_walls), "s"),
        "op_p50_s": (statistics.median(latencies["wall"].values()) if latencies["wall"] else 0.0, "s"),
        "op_tail_s": (tail_wall, "s"),
        "setup_wall_s": (import_wall + statistics.median(builds_wall), "s"),
        "max_err_ratio": (worst, "ratio"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    extra = {"op_tail_percentile": TAIL_PERCENTILE, "op_tail_op": tail_op, "op_count": len(latencies["cpu"]),
             "rounds": len(walls),
             "digests_changed": changed,
             "warmup_wall_s": warmup_wall, "round_walls_s": walls, "round_cpus_s": cpus, "import_wall_s": import_wall,
             "import_cpu_s": import_cpu, "setup_builds_cpu_s": builds_cpu}
    if args.trace:
        ncd = workload.ncd_totals() if workload.ncd_totals is not None else None
        metrics = spans.layer_metrics(tracer.spans, sum(traced), ncd)
        traced_walls = [w for w, t in zip(walls, traced) if t]
        overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) if traced_walls else 0.0
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        extra["traced_rounds"] = sum(traced)
        extra["spans"] = len(tracer.spans)
    else:
        metrics = {k: e2e[k] for k in END_TO_END}

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(blas_threads, args.seed),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "run": extra,
        "operations": records,
    }
    if args.trace:
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["spans"] = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1)

    summary = {k: f"{v:.6g} {u}" for k, (v, u) in e2e.items()}
    summary.update({k: extra[k] for k in ("op_tail_percentile", "op_tail_op", "op_count", "rounds", "digests_changed")})
    for rec in records:
        if rec["failed"]:
            print(f"FAILED {rec['op']}: {rec['errors']}", file=sys.stderr)
    print(json.dumps({"report": summary}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
