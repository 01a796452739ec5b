"""robustaft benchmark: closed-loop workloads with output checks and a traced mode.

Run from the repository root:

    python3 perfbench/run.py --workload study-desk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in its own process

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it is the environment record. Details (every latency, the
tail percentile, check failures, spans) go to ``.bench_out/`` in the
repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import warnings

from tracing import Tracer, parse_importtime, self_times, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_IMPORT = "import robustaft.cli"
SETUP_SAMPLES = 5
# Fixed work of the same kind as the import (interpreter start, extension
# modules, module code), timed around every robustaft import, and its median
# time on the host the bounds were set on: 2-vCPU x86-64 VM, Python 3.11,
# numpy 2.4.6, scipy 1.17.1.
SETUP_CONTROL = "import numpy, scipy.linalg"
SETUP_CONTROL_REF_S = 0.27
TAIL_MIN_BEYOND = 10
SELF_SUM_RTOL = 1e-9
WORKLOAD_NAMES = ("study-desk", "cell-large", "fit-csv")
# Measured and printed with --workload all, kept in the details file, not gated.
REPORTED_UNITS = {
    "latency_p50_s": "s",
    "throughput_ops_per_s": "ops/s",
    "latency_tail_s": "s",
    "calibration_s": "s",
    "setup_raw_s": "s",
    "setup_control_s": "s",
    "ops_failed_frac": "frac",
    "coverage_err.two-step": "frac",
}


def tail_latency(samples, min_beyond: int = TAIL_MIN_BEYOND):
    """Highest percentile with at least ``min_beyond`` samples beyond it.

    Returns ``(percentile, value, count)`` or None when there are fewer than
    ``2 * min_beyond`` samples.
    """
    n = len(samples)
    if n < 2 * min_beyond:
        return None
    k = n - min_beyond  # 1-based rank with exactly min_beyond ranks above it
    return 100.0 * k / n, sorted(samples)[k - 1], n


def useful_cycles(objective_trace, iterations: int, rtol: float = 1e-12) -> int:
    """Cycles run before the objective first stops decreasing (the first always counts)."""
    useful = 1
    for k in range(1, iterations):
        prev, cur = objective_trace[k - 1], objective_trace[k]
        if prev - cur <= rtol * abs(prev):
            break
        useful += 1
    return useful


# -- environment and set-up ---------------------------------------------------
def environment(seed: int) -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "seed": seed,
    }


def _import_env(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src, **PINNED)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run_python(code: str, env: dict) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - t0


def setup_time(src: str, samples: int = SETUP_SAMPLES) -> dict:
    """Import time of ``robustaft.cli`` in fresh interpreters, relative to a control.

    Every robustaft import runs between two imports of SETUP_CONTROL, and one
    sample is its time over the mean of theirs. ``setup_s`` is the median
    sample times SETUP_CONTROL_REF_S: the import time at the host speed the
    bounds were set at, so a slow stretch of a shared host, which slows the
    control alike, cancels. One untimed run of each writes bytecode caches.
    """
    env = _import_env(src)
    _run_python(SETUP_IMPORT, env)
    _run_python(SETUP_CONTROL, env)
    control = [_run_python(SETUP_CONTROL, env)]
    raw, ratios = [], []
    for _ in range(samples):
        raw.append(_run_python(SETUP_IMPORT, env))
        control.append(_run_python(SETUP_CONTROL, env))
        ratios.append(raw[-1] / ((control[-2] + control[-1]) / 2.0))
    return {
        "setup_s": SETUP_CONTROL_REF_S * statistics.median(ratios),
        "setup_raw_s": statistics.median(raw),
        "setup_control_s": statistics.median(control),
        "runs": {"import_s": raw, "control_s": control, "ratio": ratios},
    }


def import_breakdown(src: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", SETUP_IMPORT],
        env=_import_env(src), check=True, capture_output=True, text=True,
    )
    return parse_importtime(proc.stderr)


# -- the closed loop ----------------------------------------------------------
class Loop:
    """Latencies, calibration times, failures and warning counts of one measured loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.calibration: list[float] = []
        self.failures: list[tuple[int, list[str]]] = []
        self.warnings: dict[str, int] = {}
        self.attempted = 0


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_op(workload, i: int, loop: Loop, tracer=None) -> None:
    gc.collect()
    before = _timed(workload.calibrate)
    err = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if tracer is not None:
            tracer.op = i
            root = tracer.begin("bench.op")
        t0 = time.perf_counter()
        try:
            out = workload.run(i)
        except Exception as exc:  # a raising operation is a failed operation
            err = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end(root, err)
    loop.attempted += 1
    loop.latencies.append(t1 - t0)
    loop.calibration.append((before + _timed(workload.calibrate)) / 2.0)
    for w in caught:
        name = w.category.__name__
        loop.warnings[name] = loop.warnings.get(name, 0) + 1
    problems = [f"raised {err!r}"] if err is not None else workload.check(i, out)
    if problems:
        loop.failures.append((i, problems))


def measure(workload, seconds: float, min_ops: int = 1, ops: int | None = None,
            tracer=None) -> Loop:
    """Run operations for ``seconds`` (and at least ``min_ops``), or exactly ``ops``."""
    loop = Loop()
    stop = time.perf_counter() + seconds
    i = 0
    while (i < ops) if ops is not None else (i < min_ops or time.perf_counter() < stop):
        run_op(workload, i, loop, tracer)
        i += 1
    return loop


def relative_time(loop: Loop) -> float:
    """Total operation time in units of the workload's calibration kernel."""
    return sum(lat / cal for lat, cal in zip(loop.latencies, loop.calibration))


def end_to_end(workload, loop: Loop, setup: dict) -> dict:
    import resource

    ok = loop.attempted - len(loop.failures)
    relative = [lat / cal for lat, cal in zip(loop.latencies, loop.calibration)]
    values = {
        "latency_p50_calib": statistics.median(relative),
        "throughput_per_calib": ok * workload.units_per_op / relative_time(loop),
        "latency_p50_s": statistics.median(loop.latencies),
        "throughput_ops_per_s": ok * workload.units_per_op / sum(loop.latencies),
        "calibration_s": statistics.median(loop.calibration),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_frac": ok / loop.attempted,
        "ops_failed_frac": len(loop.failures) / loop.attempted,
        "setup_s": setup["setup_s"],
        "setup_raw_s": setup["setup_raw_s"],
        "setup_control_s": setup["setup_control_s"],
    }
    tail = tail_latency(loop.latencies)
    if tail is not None:
        values["latency_tail_s"] = tail[1]
    values.update(workload.accuracy())
    return values


def per_layer(workload, tracer, traced: Loop, untraced: Loop, keys, imports) -> tuple[dict, list[str]]:
    ops = traced.attempted
    self_s = self_times(tracer.spans)
    calls: dict[str, int] = {k: 0 for k in keys}
    busy: dict[str, float] = {k: 0.0 for k in keys}
    singular = 0
    root_total = 0.0
    problems = []
    for span in tracer.spans:
        key = span[3]
        if key == "bench.op":
            root_total += span[5] - span[4]
            busy[key] = busy.get(key, 0.0) + self_s[span[0]]
            continue
        calls[key] += 1
        busy[key] += self_s[span[0]]
        singular += span[6] == "SingularGramError"
    self_sum = sum(busy.values())
    if abs(self_sum - root_total) > SELF_SUM_RTOL * root_total:
        problems.append(f"span self times sum to {self_sum!r}, traced op time is {root_total!r}")

    counts = tracer.counts
    values = {}
    for key in keys:
        values[f"{key}.calls"] = calls[key] / ops
        values[f"{key}.self_s"] = busy[key] / ops
    values["bench.op.self_s"] = busy["bench.op"] / ops
    values["trace.op_s"] = root_total / ops
    values["trace.overhead_frac"] = relative_time(traced) / relative_time(untraced) - 1.0
    load_s = busy["data.load_csv"]
    values["data.load_csv.rows_per_s"] = counts.get("rows", 0.0) / load_s if load_s > 0 else 0.0
    values["wls.build_weighted_design.calls_per_cell"] = (
        calls["wls.build_weighted_design"] / (ops * workload.units_per_op)
    )
    iters = counts.get("iterations", 0.0)
    values["penalized.iterations"] = iters / counts["fits"] if counts.get("fits") else 0.0
    values["penalized.useful_iter_frac"] = counts.get("useful", 0.0) / iters if iters else 0.0
    values["two_step.flagged"] = (
        counts.get("flagged", 0.0) / counts["refits"] if counts.get("refits") else 0.0
    )
    values["inference.floored"] = traced.warnings.get("DegenerateTailWarning", 0) / ops
    values["wls.singular"] = singular / ops
    for module, seconds in imports.items():
        values[f"{module}.import_s"] = seconds
    return values, problems


OBSERVERS = {
    "data.load_csv": lambda s: {"rows": s.n},
    "penalized.fit_penalized": lambda f: {
        "fits": 1,
        "iterations": f.iterations,
        "useful": useful_cycles(f.objective_trace, f.iterations),
    },
    "two_step.fit_two_step": lambda f: {"refits": 1, "flagged": f.outliers.size},
}


# -- entry points ---------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "robustaft", "__init__.py")):
        print(f"error: no robustaft sources under {src}", file=sys.stderr)
        return 2
    spec = load_spec(root)
    os.environ.update(PINNED)  # before numpy is imported
    sys.path[:0] = [HERE, src]

    import robustaft
    import robustaft.cli  # noqa: F401  (workloads call robustaft.cli.main)

    if not os.path.abspath(robustaft.__file__).startswith(os.path.join(src, "")):
        print(f"error: robustaft imported from {robustaft.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    outdir = _details_path(root, name, seed, trace)
    os.makedirs(outdir, exist_ok=True)
    env = environment(seed)
    print(json.dumps({"environment": env}), flush=True)

    details: dict = {"workload": name, "environment": env}
    problems: list[str] = []
    if trace:
        imports = import_breakdown(src)
        workload = WORKLOADS[name](robustaft, seed, outdir)
        warm = Loop()
        run_op(workload, 0, warm)
        untraced = measure(workload, seconds / 2.0)
        tracer = Tracer(OBSERVERS)
        keys = tracer.install(robustaft)
        try:
            traced = measure(workload, 0, ops=untraced.attempted, tracer=tracer)
        finally:
            tracer.uninstall()
        values, problems = per_layer(workload, tracer, traced, untraced, keys, imports)
        write_spans(tracer.spans, os.path.join(outdir, "spans.csv.gz"))
        loops = [warm, untraced, traced]
        metric_specs = spec["per_layer"]
    else:
        setup = setup_time(src)
        workload = WORKLOADS[name](robustaft, seed, outdir)
        warm = Loop()
        run_op(workload, 0, warm)
        loop = measure(workload, seconds, min_ops=workload.min_ops)
        values = end_to_end(workload, loop, setup)
        details["setup_runs"] = setup["runs"]
        tail = tail_latency(loop.latencies)
        details["latency_tail"] = (
            None if tail is None else {"percentile": tail[0], "seconds": tail[1], "samples": tail[2]}
        )
        details["latencies_s"] = loop.latencies
        details["calibration_s"] = loop.calibration
        loops = [warm, loop]
        metric_specs = spec["end_to_end"]

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(len(lp.failures) for lp in loops)
    details["ops_failed_frac"] = failed / attempted
    details["failures"] = [f for lp in loops for f in lp.failures][:20]
    details["warnings"] = [lp.warnings for lp in loops]
    details["problems"] = problems
    details["values"] = values
    details["reported"] = {
        k: {"value": values[k], "unit": unit} for k, unit in REPORTED_UNITS.items() if k in values
    }

    metrics = {}
    for m in metric_specs:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump(details, fh, indent=1, default=repr)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    for i, msgs in details["failures"]:
        print(f"failed op {i}: {'; '.join(msgs)}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _details_path(root: str, name: str, seed: int, trace: bool) -> str:
    return os.path.join(root, ".bench_out", f"{name}-seed{seed}-trace{int(trace)}")


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process, one table of metrics with units."""
    summary = {}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            status = status or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        with open(os.path.join(_details_path(os.getcwd(), name, seed, trace), "result.json")) as fh:
            reported = json.load(fh)["reported"]
        for label, metrics in (("gated", result["metrics"]), ("reported", reported)):
            for metric, m in metrics.items():
                print(f"  {label:<9}{metric:<48} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="study-desk, cell-large, fit-csv or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec(os.getcwd())["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
