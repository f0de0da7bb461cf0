"""Certified-solve benchmark for approxconvex.

    python3 perfbench/run.py --workload {tree-lp,hull-scan,face-descent} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.
One process runs one workload as a closed loop with a single caller:
after a timed set-up it repeats full passes over the workload's task list
until ``--seconds`` is spent (at least two passes), then checks every result of the first pass
with an independent oracle (HiGHS, exhaustive enumeration, plain numpy)
and every later pass against the first.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries
the per-layer metrics, and the spans of one traced pass are written to
``perfbench/out/``.  Earlier lines record the environment and the run.
Times are in seconds at reference speed (see timing.py).
"""

import os

# Single-threaded BLAS; must be set before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import timing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END = {
    "wall_s": "s",
    "task_ms_p50": "ms",
    "task_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
SETUP_PROBES = 5
MIN_PASSES = 2  # medians need two passes even when one fills --seconds
PROBE_TIMEOUT_S = 120
MAX_LISTED_FAILURES = 20
SLOWEST_LISTED = 16


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("tree-lp", "hull-scan", "face-descent"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(ROOT / ".git" / ref)
    if direct:
        return direct
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _environment() -> dict:
    from importlib import metadata

    import numpy as np

    cpu = next(
        (l.split(":", 1)[1].strip() for l in (_read(Path("/proc/cpuinfo")) or "").splitlines() if l.startswith("model name")),
        platform.processor() or platform.machine(),
    )
    llc = None
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = [(int(_read(c / "level") or 0), _read(c / "size")) for c in caches]
    if levels:
        llc = max(levels)[1]
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc": llc,
        "blas": blas.get("name"),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": _git_commit(),
    }


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Cold set-ups in fresh processes, so interned labels and cached
    matrices never carry over between them."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        out.append(float(proc.stdout.split()[-1]))  # seconds at reference speed
    return out


def _run_pass(wl, tracer=None):
    """One full pass, with the reference kernel run before every task and
    after the last.  Returns a dict with each task's raw and scaled
    seconds (scaled by the mean of the two reference runs around it),
    the pass's scaled seconds (its raw total scaled by the median of all
    its reference runs), results, errors and the reference runs.

    Two runs next to a short task track the host's speed while it ran;
    for the pass, and the long tasks that dominate it, the median of a
    few hundred runs is the steadier estimate."""
    ctx: dict = {}
    results, raw, errors = [], [], {}
    clock = time.perf_counter
    start = clock()
    refs = [timing.reference()]
    for i, task in enumerate(wl.tasks):
        run = tracer.wrap("task." + task.kind, task.run) if tracer else task.run
        t0 = clock()
        try:
            results.append(run(ctx))
        except Exception as exc:  # a failed task is counted, the pass goes on
            results.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
        raw.append(clock() - t0)
        refs.append(timing.reference())
    times = [t * 2.0 * timing.REF_SECONDS / (refs[k] + refs[k + 1]) for k, t in enumerate(raw)]
    scaled = sum(raw) * timing.REF_SECONDS / statistics.median(refs)
    return {"raw": raw, "times": times, "scaled": scaled, "results": results, "errors": errors,
            "refs": refs, "wall": clock() - start}


def _verify(wl, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every task of every pass."""
    import workloads

    reference = passes[0]["results"]
    bad_reference = {}
    for i, (task, res) in enumerate(zip(wl.tasks, reference)):
        if res is None or task.oracle is None:
            continue
        try:
            msg = task.oracle(res, reference)
        except Exception as exc:  # an oracle that cannot run is a failure too
            msg = f"oracle raised {type(exc).__name__}: {exc}"
        if msg:
            bad_reference[i] = msg
    attempted = failed = 0
    messages = []
    for k, p in enumerate(passes):
        for i, res in enumerate(p["results"]):
            attempted += 1
            msg = p["errors"].get(i) or bad_reference.get(i)
            if msg is None and res != reference[i]:
                msg = f"result differs from pass 0 ({workloads.digest(res)} vs {workloads.digest(reference[i])})"
            if msg:
                failed += 1
                messages.append(f"pass {k} task {i} ({wl.tasks[i].kind}): {msg}")
    return attempted, failed, messages


def _typical(passes) -> list[float]:
    """Each task's scaled latency over the given passes, as their minimum:
    the reference runs next to a task take out the host's overall speed,
    and the load that remains only ever slows a task down."""
    return [min(times) for times in zip(*(p["times"] for p in passes))]


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "approxconvex" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    env = _environment()
    setups = [] if args.trace else _setup_seconds(args.workload, args.seed)
    wl = workloads.build(args.workload, args.seed)
    wl.warm_up()

    passes = []
    start = time.perf_counter()
    while True:
        for traced in (False, True) if args.trace else (False,):
            tracer = tracing.Tracer() if traced else None
            if tracer:
                with tracer.install():
                    p = _run_pass(wl, tracer)
            else:
                p = _run_pass(wl)
            p.update(traced=traced, tracer=tracer)
            passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes) * (2 if args.trace else 1)
        if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, messages = _verify(wl, passes)
    plain = [p for p in passes if not p["traced"]]
    wall_s = statistics.median(p["scaled"] for p in plain)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        per_pass = [
            tracing.layer_metrics(p["tracer"].spans, timing.REF_SECONDS / statistics.median(p["refs"]))
            for p in traced
        ]
        values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        values["trace.wall_s"] = statistics.median(p["scaled"] for p in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s
        closures = wl.shape.get("closure_sizes")
        values["treespace.closure_size_p95"] = _percentile(closures, 95) if closures else 0
        units = tracing.PER_LAYER
        slowest = None
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "columns": ["name", "start", "end", "parent", "count"],
            "raw_wall_s": sum(traced[0]["raw"]),
            "spans": traced[0]["tracer"].spans,
        }))
    else:
        samples = [t * 1000.0 for t in _typical(plain)]
        slowest = sorted(zip(samples, (t.kind for t in wl.tasks)), reverse=True)[:SLOWEST_LISTED]
        values = {
            "wall_s": wall_s,
            "task_ms_p50": _percentile(samples, 50),
            "task_ms_p95": _percentile(samples, 95),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        trace_file = None

    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "tasks_per_pass": len(wl.tasks),
        "latency_samples": len(wl.tasks),
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_task_s": [sum(p["raw"]) for p in passes],
        "pass_task_scaled_s": [p["scaled"] for p in passes],
        "reference_median_s": statistics.median(r for p in passes for r in p["refs"]),
        "setup_probes_s": setups,
        "slowest_tasks_ms": slowest,
        "fail_frac": failed / attempted,
        "failures": messages[:MAX_LISTED_FAILURES],
        "inputs_digest": workloads.digest(wl.inputs),
        "results_digest": workloads.digest(passes[0]["results"]),
        "shape": {k: v for k, v in wl.shape.items() if k != "closure_sizes"},
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    print("# env " + json.dumps(env))
    print("# run " + json.dumps(run_info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
