"""Benchmark of datatrace's attribution methods on seeded synthetic workloads.

Usage, from the repository root:

    python3 bench/run.py --workload convex-all --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one process

Whole pipeline passes (train, every method, write the reports) repeat until
``--seconds`` have passed, at least twice, and each metric is the median over
passes. Before each pass the set-up is timed repeatedly; ``setup_s`` is the
median of all those samples. With
``--trace 1`` untraced and traced passes alternate: the traced ones give the
per-layer metrics, and their run time minus the untraced run time is the
tracing overhead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it are
a table of every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SECONDS = 0.3  # set-up repeats for this long before each pass
OUT_DIR = ".bench_out"


def pin_threads():
    """Pin BLAS and OpenMP to one thread; returns warnings when that fails.

    Takes effect only if it runs before numpy is first imported.
    """
    warnings = []
    for var in THREAD_VARS:
        if os.environ.get(var, "1") != "1":
            warnings.append(f"{var}={os.environ[var]} overridden to 1")
        os.environ[var] = "1"
    if "numpy" in sys.modules:
        warnings.append("numpy was imported before pinning: BLAS thread count is not pinned")
    return warnings


def git_commit(root):
    """The checked-out commit read from .git, or "unknown" outside a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, seed, warnings):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": git_commit(root),
        "seed": seed,
        "warnings": warnings,
    }


def _median(values):
    return statistics.median(values) if values else None


def _stat(values, unit):
    """A metric as reported: median over its samples, with the sample count."""
    return {
        "value": _median(values),
        "unit": unit,
        "n": len(values),
        "min": min(values) if values else None,
        "max": max(values) if values else None,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed, seconds, trace, out_root):
    """Set up, run passes for ``seconds``, check them; returns the result dict."""
    import workloads as wl
    from spans import Tracer, by_run, layer_metrics

    out = os.path.join(out_root, f"{workload.name}-seed{seed}")
    shutil.rmtree(out, ignore_errors=True)

    setup_s = []

    def set_up():
        # Set-up is repeated before every pass so that its samples spread
        # over the whole run, like the passes' own.
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            inputs = wl.setup(workload, seed)
            setup_s.append(time.perf_counter() - t0)
            if time.perf_counter() - start >= SETUP_SECONDS:
                return inputs

    tracer = Tracer()
    passes, traced = [], []
    # At least two passes (the rerun check needs one to compare against);
    # the last starts only if half a pass still fits in ``seconds``.
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start + passes[-1].run_s / 2 < seconds:
        inputs = set_up()
        with_trace = trace and len(passes) % 2 == 1
        pass_dir = os.path.join(out, f"pass{len(passes)}")
        if with_trace:
            tracer.run = len(passes)
            with tracer.installed():
                p = wl.run_pass(inputs, pass_dir)
        else:
            p = wl.run_pass(inputs, pass_dir)
        wl.check_pass(inputs, p, passes[0] if passes else None)
        passes.append(p)
        traced.append(with_trace)

    ops = [(name, op) for p in passes for name, op in p.ops.items()]
    failed = [(name, op.error) for name, op in ops if op.failed]
    plain = [p for p, t in zip(passes, traced) if not t]
    stage = {}
    for name in passes[0].ops:
        stage[f"{name}_s"] = _stat(
            [p.ops[name].seconds for p in plain if not p.ops[name].failed], "s"
        )
    e2e = {
        "setup_s": _stat(setup_s, "s"),
        "run_s": _stat([p.run_s for p in plain if not p.failed], "s"),
        "peak_rss_mb": _stat([_peak_rss_mb()], "MB"),
    }
    result = {
        "workload": workload.name,
        "why": workload.why,
        "passes": len(passes),
        "attempted": len(ops),
        "failed": len(failed),
        "failed_frac": len(failed) / len(ops),
        "failures": failed,
        "end_to_end": e2e,
        "stages": {**stage, "write_s": _stat([p.write_s for p in plain if not p.failed], "s")},
        "quality": {k: {"value": v, "n": n} for k, (v, n) in wl.quality(passes[0].reports).items()},
    }
    if trace:
        per_pass = [layer_metrics(rows) for rows in by_run(tracer.spans).values()]
        layers = {k: _stat([m[k] for m in per_pass], "") for k in per_pass[0]}
        traced_run = [p.run_s for p, t in zip(passes, traced) if t and not p.failed]
        overhead = None
        if traced_run and e2e["run_s"]["value"] is not None:
            overhead = _median(traced_run) - e2e["run_s"]["value"]
        layers["trace.overhead_s"] = {"value": overhead, "unit": "s", "n": len(traced_run)}
        result["per_layer"] = layers
        tracer.write(os.path.join(out, "spans.csv"))
    return result


def _fmt(value):
    return f"{value:12.6g}" if value is not None else f"{'-':>12}"


def print_table(result, units):
    print(f"# workload {result['workload']}: {result['why']}")
    print(f"#   passes {result['passes']}, operations attempted {result['attempted']}, "
          f"failed {result['failed']} (failed_frac {result['failed_frac']:.4g})")
    for name, error in result["failures"]:
        print(f"#   FAILED {name}: {error}")
    print(f"#   {'metric':<28} {'median':>12} {'min':>12} {'max':>12} {'n':>4}  unit")
    groups = [result["end_to_end"], result["stages"]] + (
        [result["per_layer"]] if "per_layer" in result else []
    )
    for group in groups:
        for name, m in group.items():
            print(f"#   {name:<28} {_fmt(m['value'])} {_fmt(m.get('min'))} {_fmt(m.get('max'))} "
                  f"{m['n']:>4}  {units.get(name, m['unit'])}")
    for name, q in result["quality"].items():
        print(f"#   {name:<28} {q['value']:12.6g} {'':>12} {'':>12} {q['n']:>4}  indices compared")


def main(argv=None):
    warnings = pin_threads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "datatrace", "__init__.py")):
        print(f"error: no datatrace sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import datatrace

    if os.path.dirname(os.path.dirname(os.path.abspath(datatrace.__file__))) != src:
        print(f"error: datatrace imported from {datatrace.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads as wl

    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in wl.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(wl.WORKLOADS)} or all")

    env = environment(root, args.seed, warnings)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in env.items() if k != "warnings"))
    out_root = os.path.join(root, OUT_DIR)
    os.makedirs(out_root, exist_ok=True)
    source = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    results = []
    for name in names:
        result = run_workload(wl.WORKLOADS[name], args.seed, args.seconds, args.trace, out_root)
        result["environment"] = env
        with open(os.path.join(out_root, f"result-{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print_table(result, units)
        results.append(result)

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for m in spec[source]:
            metrics[prefix + m["name"]] = {"value": result[source][m["name"]]["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
