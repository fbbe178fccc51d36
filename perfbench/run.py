"""qcayley benchmark: one seeded workload, timed end to end or traced per module.

    python3 perfbench/run.py --workload tree-telescope --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  Every
time is scaled to a reference host speed, measured next to it by the
calibration kernel of ``speed.py``.  Set-up (import ``qcayley`` afresh, then
build the seeded inputs and their expected values) is timed
``SETUP_REPEATS`` times before the first pass and once more after every
pass, so that its samples are spread over the whole run; its median is
``setup_s``.  The workload is run in passes for ``--seconds`` (a pass starts
only if it should end in time); the first pass is a warm-up and is not
timed.  Every op of every pass is checked.  Every pass makes the same calls
on the same inputs, so each op is timed once per pass; the timing metrics
are taken over each op's median time over the timed passes.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced passes and reports its
per-layer metrics, including the tracing overhead.  The last line of stdout
is the JSON result; the lines before it are for people.  ``--out PATH``
also writes the full record (environment stamp, per-pass figures, failures,
and for a traced run the caller/callee span table) that
``perfbench/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from math import ceil
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAYERS = ("scalars", "fusion", "cayley", "qctree", "aunitary", "estimates")
SETUP_REPEATS = 6  # before the first pass; one more follows every pass
MIN_PASSES = 3  # the warm-up plus at least two timed passes
DEFECT_PROBE = ("Ao(3)", 150)  # a half line deeper than 127 levels


def library_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "qcayley" or n.startswith("qcayley.")}


def load_library() -> SimpleNamespace:
    """Import the six layer modules afresh, dropping any earlier import."""
    for name in library_modules():
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"qcayley.{m}") for m in LAYERS})


def set_up(workload, seed, speed):
    """One timed set-up: a fresh import of the library, then the seeded inputs.

    Its time is scaled by the mean of the speeds measured before and after it.
    """
    speed.recalibrate()
    before = speed.scale
    t0 = time.perf_counter()
    lib = load_library()
    inputs = workload.prepare(lib, seed)
    took = time.perf_counter() - t0
    speed.recalibrate()
    return took * (before + speed.scale) / 2, lib, inputs


def time_set_up_again(workload, seed, speed) -> float:
    """Time one more set-up, then put the modules the passes use back in place."""
    kept = library_modules()
    try:
        return set_up(workload, seed, speed)[0]
    finally:
        for name in library_modules():
            del sys.modules[name]
        sys.modules.update(kept)


def environment(seed: int) -> dict:
    core = sys.modules.get("qcayley._core")
    return {
        "python": platform.python_version(),
        "rational_backend": sys.modules["qcayley.scalars"].RATIONAL_BACKEND,
        "kernel_backend": getattr(core, "BACKEND", "python"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def nearest_rank(sorted_values, q: float):
    return sorted_values[max(ceil(q * len(sorted_values)) - 1, 0)]


def run_pass(workload, lib, inputs, speed, tracer=None):
    from speed import REFERENCE_NS
    from workloads import OpLog

    gc.collect()
    log = OpLog(speed)
    speed.current()
    first = len(speed.samples_ns) - 1  # the calibration in force as the pass starts
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        workload.run(lib, inputs, log)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # the speeds in force during the pass, for the span times
    samples = speed.samples_ns[first:]
    scale = statistics.mean(REFERENCE_NS / c for c in samples)
    trace = None
    if tracer is not None:
        trace = tracer.snapshot()
        trace["self_s"] = {k: v * scale for k, v in trace["self_s"].items()}
    return {
        "traced": tracer is not None,
        "times_ns": log.times_ns,
        "ops": len(log.times_ns),
        "op_s": sum(log.times_ns) / 1e9,
        "calibration_ns": [min(samples), statistics.median(samples), max(samples)],
        "failures": log.failures,
        "trace": trace,
    }


def op_medians(passes) -> list:
    """Each op's median time over the passes, sorted; every pass makes the same calls."""
    return sorted(statistics.median(times) for times in zip(*(p["times_ns"] for p in passes)))


def probe_known_defect(lib) -> str:
    """Radius >= 128 builds are known to overflow; report, do not count as an op."""
    spec = lib.fusion.parse_spec(DEFECT_PROBE[0])
    try:
        tree = lib.cayley.build_tree(spec, DEFECT_PROBE[1])
    except Exception as exc:  # the probe records the defect, whatever it raises
        return f"{type(exc).__name__}: {exc}"
    return "" if tree.n_vertices == DEFECT_PROBE[1] + 1 else "wrong vertex count"


def end_to_end(setup_times, ops, peak_rss_mb) -> dict:
    wall = sum(ops) / 1e9
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_us": statistics.median(ops) / 1e3,
        "op_p99_us": nearest_rank(ops, 0.99) / 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(names, traced, traced_ops, untraced_ops, defect: str) -> dict:
    first = traced[0]["trace"]
    calls, counters = first["calls"], first["counters"]
    build_s = statistics.median(p["trace"]["self_s"].get("cayley.build_tree", 0.0) for p in traced)
    special = {
        "trace.overhead_frac": sum(traced_ops) / sum(untraced_ops) - 1,
        "scalars.Radical.mul.rational_frac":
            counters.get("scalars.Radical.mul.rational", 0) / max(calls.get("scalars.Radical.mul", 0), 1),
        "fusion.growth_floor.distinct_frac":
            first["distinct"].get("fusion.growth_floor", 0) / max(calls.get("fusion.growth_floor", 0), 1),
        "cayley.build_tree.vertices": counters.get("cayley.build_tree.vertices", 0),
        "cayley.build_tree.vertices_per_s":
            counters.get("cayley.build_tree.vertices", 0) / build_s if build_s else 0.0,
        "cayley.validate.edges": counters.get("cayley.validate.edges", 0),
        "cayley.build_tree.radius150_failures": int(bool(defect)),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            out[name] = statistics.median(p["trace"]["self_s"].get(span, 0.0) for p in traced)
        else:
            raise KeyError(f"no rule computes the per-layer metric {name!r}")
    return out


def layer_name_problem(names, spans) -> str:
    """Why the per-layer metric names cannot be computed, or "" when they can."""
    mapped = set(json.loads((HERE / "layer_map.json").read_text()))
    if mapped != set(names):
        return f"layer_map.json and BENCHMARK.json disagree on {sorted(mapped ^ set(names))}"
    known = set(spans) | {"aunitary.cn_lower.enumerate", "aunitary.cn_lower.closed"}
    untraced = sorted(n for n in names if n.endswith((".calls", ".self_s"))
                      and n.rsplit(".", 1)[0] not in known)
    return f"per-layer metrics name untraced spans: {untraced}" if untraced else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full record as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "qcayley" / "__init__.py").is_file():
        print(f"error: no qcayley sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from spans import SPANS, Tracer
    from speed import Speedometer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    problem = layer_name_problem([m["name"] for m in bench["per_layer"]], SPANS)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    speed = Speedometer()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        seconds, lib, inputs = set_up(workload, args.seed, speed)
        setup_times.append(seconds)
    stamp = environment(args.seed)

    tracer = Tracer(lib) if args.trace else None
    start = time.perf_counter()
    passes = [run_pass(workload, lib, inputs, speed)]  # warm-up
    last = time.perf_counter() - start
    # start a pass only if it should end within --seconds, so a run never overruns by a pass
    while len(passes) < MIN_PASSES or time.perf_counter() - start + last < args.seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(workload, lib, inputs, speed, tracer if len(passes) % 2 else None))
        setup_times.append(time_set_up_again(workload, args.seed, speed))
        last = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    defect = probe_known_defect(lib)

    traced = [p for p in passes if p["traced"]]
    untraced_ops = op_medians([p for p in passes[1:] if not p["traced"]])
    if args.trace:
        spec = bench["per_layer"]
        values = per_layer([m["name"] for m in spec], traced, op_medians(traced), untraced_ops,
                           defect)
    else:
        spec = bench["end_to_end"]
        values = end_to_end(setup_times, untraced_ops, peak_rss_mb)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["ops"] for p in passes)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({len(traced)} traced, 1 warm-up), {passes[0]['ops']} ops per pass")
    print("env " + json.dumps(stamp))
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'failed_frac':45s} {len(failures) / attempted:>16.6g} ratio "
          f"({len(failures)} of {attempted} ops)")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    if defect:
        print(f"  known defect: build_tree({DEFECT_PROBE[0]}, {DEFECT_PROBE[1]}) -> {defect}")
    if args.out:
        record = {"workload": args.workload, "trace": args.trace, "stamp": stamp,
                  "setup_s": setup_times, "known_defect": defect, "failures": failures[:100],
                  "pass_op_s": [p["op_s"] for p in passes],
                  "pass_calibration_ns": [p["calibration_ns"] for p in passes],
                  "traced_passes": [p["traced"] for p in passes],
                  "traced_calls": [p["trace"]["calls"] for p in traced],
                  "traced_counters": [p["trace"]["counters"] for p in traced],
                  "spans": traced[0]["trace"]["edges"] if traced else [],
                  "result": result}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
