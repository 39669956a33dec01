"""freecycle benchmark: four workloads, end-to-end metrics and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; freecycle is imported from its src/.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 rounds alternate between traced and untraced, the metrics are the
per-layer ones, and the spans are written to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import sys
import time

import bench

SETUP_REPEATS = 9


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "pinned_env": bench.PINNED_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(workload: str, repeats: int) -> list[dict]:
    """Fresh interpreters that import freecycle and make the workload's warm-up call."""
    argv = [sys.executable, os.path.join(bench.HERE, "child.py"), "setup", workload]
    out = []
    for _ in range(repeats):
        child = bench.run_child(argv)
        if child.code != 0:
            raise SystemExit(f"perfbench: set-up probe exited {child.code}: {child.err.strip()[-2000:]}")
        out.append(json.loads(child.out.strip().splitlines()[-1]))
    return out


def declared_metrics() -> dict[str, list[dict]]:
    """The metric names and units BENCHMARK.json declares, the one list of them."""
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {key: spec[key] for key in ("end_to_end", "per_layer")}


def main() -> int:
    bench.pin_environment()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(bench.SRC, "freecycle", "__init__.py")):
        print(f"perfbench: no freecycle sources under {bench.SRC}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args)), flush=True)
    import selftest

    broken = selftest.run()
    if broken:
        print(f"perfbench: checker self-tests failed: {broken}", file=sys.stderr)
        return 1

    probe_setup(args.workload, 1)  # writes bytecode caches and warms the file cache; not counted
    setup: list[dict] = []

    tracer = bench.Tracer()
    workload = importlib.import_module(bench.WORKLOADS[args.workload]).Workload(args.seed, tracer)
    rounds = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < 1 + args.trace or time.perf_counter() < deadline:
        if len(setup) < SETUP_REPEATS:
            # Set-up probes go between the first rounds, so they meet the host as the rounds do.
            setup += probe_setup(args.workload, 1)
        tracer.enabled = bool(args.trace) and len(rounds) % 2 == 0
        tracer.spans = []
        record = workload.round(len(rounds))
        record.setdefault("spans", tracer.spans)
        record["traced"] = tracer.enabled
        rounds.append(record)
        if len(rounds) == 1:
            # Read after one round, so that it does not grow with the number of rounds a run fits in.
            first_round_rss = bench.peak_rss_self_mb()
    tracer.enabled = False
    setup += probe_setup(args.workload, SETUP_REPEATS - len(setup))
    setup_s = bench.median([p["setup_s"] for p in setup])

    ops = [op for r in rounds for op in r["ops"]]
    failed = [op for op in ops if op["error"]]
    problems = [f"{op['name']}: {op['error']}" for op in failed if not op.get("known")]
    problems += [e for r in rounds for e in r.get("errors", ())]
    problems += workload.finish()
    for name, error in {op["name"]: op["error"] for op in failed if op.get("known")}.items():
        print(f"known fault  {name}: {error}")
    for line in problems[:20]:
        print(f"FAILED  {line}")

    def rate(rs):
        """Work over timed seconds, summed over the rounds rs."""
        return sum(r["work"] for r in rs) / sum(op["s"] for r in rs for op in r["ops"])

    plain = [r for r in rounds if not r["traced"]]
    if not args.trace:
        times = [op["s"] for r in plain for op in r["ops"]]
        # Each slot of the workload (one kind and size, one census, one command) gets
        # the median of its times over the rounds, and op_p50 is the median slot.
        # Taken round by round instead, the median operation switched between slots
        # whose costs differ by half, as a slot's input or the host moved.
        slots: dict[str, list[float]] = {}
        for r in plain:
            for op in r["ops"]:
                slots.setdefault(op["name"], []).append(op["s"])
        slot_p50 = {name: bench.median(t) for name, t in slots.items()}
        op_p50 = bench.median(slot_p50.values())
        print("round_rates=" + ",".join(f"{rate([r]):.6g}" for r in plain))
        print("slot_p50_ms=" + ",".join(f"{name}:{t * 1e3:.4g}" for name, t in sorted(slot_p50.items(), key=lambda kv: kv[1])))
        print(f"rounds={len(plain)} ops={len(times)} work_unit={workload.unit} "
              f"op_p50_ms={op_p50 * 1e3:.3f} (n={len(times)}) "
              f"op_p90_ms={bench.nearest_rank(times, 0.9) * 1e3:.3f} (n={len(times)}) "
              f"setup_s={[round(p['setup_s'], 4) for p in setup]}")
        produced = {
            # The whole run's work over its timed seconds.  The host changes speed in
            # phases of seconds to minutes; a median over rounds snaps to one phase,
            # while the run's total weighs every phase the run met by its length.
            "work_per_s": (rate(plain), "1/s"),
            "op_p50_ms": (op_p50 * 1e3, "ms"),
            # Workloads that run the program in child processes report their largest child.
            "peak_rss_mb": (getattr(workload, "peak_rss_mb", lambda: first_round_rss)(), "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        groups = [r["spans"] for r in traced]
        path = bench.write_trace(args.workload, args.seed, groups)
        samples = bench.layer_samples(groups)
        for name in sorted(samples):
            calls = [t for r in samples[name] for t in r]
            if calls:
                print(f"layer {name}: p50={bench.median(calls) * 1e3:.4f} ms "
                      f"p90={bench.nearest_rank(calls, 0.9) * 1e3:.4f} ms n={len(calls)}")
        produced = workload.layer_metrics(groups)
        starts = [bench.run_child([sys.executable, "-c", "pass"]).wall_s for _ in range(SETUP_REPEATS)]
        produced["cli.python_start_ms"] = (bench.median(starts) * 1e3, "ms")
        cli_imports = [p["import_s"] for p in probe_setup("cli", SETUP_REPEATS)]
        produced["cli.import_ms"] = (bench.median(cli_imports) * 1e3, "ms")
        untraced_rate = rate(plain)
        traced_rate = rate(traced)
        produced["bench.trace_overhead_pct"] = ((untraced_rate / traced_rate - 1) * 100, "%")
        print(f"trace written to {os.path.relpath(path, bench.ROOT)}; work_per_s untraced={untraced_rate:.6g} "
              f"traced={traced_rate:.6g} over {len(plain)}+{len(traced)} rounds")

    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    # In a traced run, a layer this workload never calls reads 0.
    metrics = {m["name"]: produced.get(m["name"], (0.0, m["unit"])) for m in declared}
    mismatched = [name for name, (_, unit) in produced.items()
                  if name not in metrics or metrics[name][1] != unit]
    if mismatched:
        print(f"perfbench: metrics not declared in BENCHMARK.json with these units: {mismatched}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
