"""Seed sweeps, spread summaries, exact-count checks and paired commit comparisons.

    python3 perfbench/compare.py sweep --workload tree-walk --seeds 1-10 --outdir DIR [--trace 1]
    python3 perfbench/compare.py summary DIR
    python3 perfbench/compare.py counts A.json B.json
    python3 perfbench/compare.py pairs --workload tree-walk --seeds 1-10 --parent P --change C --outdir DIR
    python3 perfbench/compare.py diff DIR

``sweep`` runs ``perfbench/run.py`` once per seed, one run at a time, and
keeps each run's record as ``DIR/<workload>.t<trace>.s<seed>.json``.
``summary`` prints, per workload and metric, the median, quartiles and the
spread (interquartile distance over median) against the metric's bound.
``counts`` checks that two traced runs with the same seed made exactly the
same calls and counted the same vertices and edges.  ``pairs`` runs two
checkouts, the parent and the change, seed by seed, alternating which side
runs first, and writes ``DIR/parent`` and ``DIR/change``; ``diff`` compares
those pairs metric by metric.  Every command refuses records whose
environment stamps differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in BENCH["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load(paths) -> dict:
    """Records grouped by (workload, trace); refuses mixed environments."""
    groups = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        groups[(record["workload"], record["trace"])].append(record)
    stamps = {json.dumps({k: v for k, v in r["stamp"].items() if k != "seed"}, sort_keys=True)
              for rs in groups.values() for r in rs}
    if len(stamps) > 1:
        sys.exit(f"refusing to compare runs from different environments: {sorted(stamps)}")
    return groups


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def run_once(root: Path, workload: str, seed: int, trace: int, outdir: Path) -> bool:
    """One run of the benchmark in the checkout ``root``; its record goes to ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    out = (outdir / f"{workload}.t{trace}.s{seed}.json").resolve()
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    ok = proc.returncode == 0 and json.loads(last[0] or "{}").get("correct") is True
    print(f"{root} seed {seed}: {'ok' if ok else 'FAILED'}", flush=True)
    if not ok:
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    return ok


def cmd_sweep(args) -> int:
    failed = sum(not run_once(ROOT, args.workload, seed, args.trace, args.outdir)
                 for seed in parse_seeds(args.seeds))
    return max(int(failed > 0), cmd_summary(argparse.Namespace(dirs=[args.outdir])))


def benchmark_files(root: Path) -> dict:
    files = [root / "BENCHMARK.json"] + sorted((root / "perfbench").glob("*.py"))
    files.append(root / "perfbench" / "layer_map.json")
    return {f.relative_to(root).as_posix(): f.read_bytes() if f.is_file() else None for f in files}


def cmd_pairs(args) -> int:
    """Parent and change seed by seed, the side that runs first alternating per seed."""
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if benchmark_files(sides["parent"]) != benchmark_files(sides["change"]):
        sys.exit("refusing: the two checkouts have different benchmark files")
    failed = 0
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            failed += not run_once(sides[side], args.workload, seed, 0, args.outdir / side)
    return max(int(failed > 0), cmd_diff(argparse.Namespace(dir=args.outdir)))


def cmd_summary(args) -> int:
    groups = load([p for d in args.dirs for p in sorted(Path(d).glob("*.json"))])
    worst = 0
    for (workload, trace), records in sorted(groups.items()):
        print(f"{workload} trace={trace}: {len(records)} runs, seeds "
              f"{sorted(r['stamp']['seed'] for r in records)}")
        failed = sum(r["result"]["failed"] for r in records)
        attempted = sum(r["result"]["attempted"] for r in records)
        print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
        names = records[0]["result"]["metrics"]
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in records]
            med, q1, q3, sp = spread(values)
            bound = BOUNDS.get(name)
            note = ""
            if bound is not None:
                note = f"bound {bound:.2f}" + ("  ABOVE BOUND/3" if sp > bound / 3 else "")
                if sp > bound:
                    worst = 1
            elif len(set(values)) == 1:
                note = "identical"
            print(f"  {name:45s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {sp:7.4f}  {note}")
    return worst


def cmd_counts(args) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    if a["stamp"] != b["stamp"] or a["workload"] != b["workload"]:
        sys.exit(f"refusing: stamps differ: {a['stamp']} vs {b['stamp']}")
    if not (a["trace"] and b["trace"]):
        sys.exit("refusing: counts need two traced runs")
    snapshots = [(c, n) for r in (a, b) for c, n in zip(r["traced_calls"], r["traced_counters"])]
    calls0, counters0 = snapshots[0]
    bad = [f"pass {i}: {key}" for i, (calls, counters) in enumerate(snapshots)
           for key in sorted(set(calls) | set(calls0) | set(counters) | set(counters0))
           if calls.get(key) != calls0.get(key) or counters.get(key) != counters0.get(key)]
    for line in bad:
        print(f"MISMATCH {line}")
    print(f"{a['workload']} seed {a['stamp']['seed']}: {len(snapshots)} traced passes, "
          f"{len(calls0)} spans and {len(counters0)} counters: "
          + ("identical" if not bad else f"{len(bad)} mismatches"))
    return 1 if bad else 0


def verdict(name: str, base: list, new: list) -> tuple:
    """Compare paired values (same seed, run back to back) of one metric.

    ``better``: the change wins at least nine tenths of the pairs (ties count
    for neither side) and the medians differ by more than the parent's
    quartile distance.  ``unresolved``: the parent's own spread, or the
    spread of the per-pair ratios (host drift that pairing did not cancel),
    exceeds the bound, unless every change run beats every parent run.
    ``WORSE``: the change's median is worse than the parent's by more than
    the bound.  Otherwise ``same``.
    """
    sign = 1 if BETTER[name] == "lower" else -1
    b_med, b_q1, b_q3, b_sp = spread(base)
    n_med = statistics.median(new)
    wins = sum(sign * (n - b) < 0 for b, n in zip(base, new))
    _, _, _, r_sp = spread([n / b for b, n in zip(base, new)])
    gain = sign * (b_med - n_med)
    bound = BOUNDS[name]
    every_run_better = max(new) < min(base) if sign > 0 else min(new) > max(base)
    if wins >= 0.9 * len(base) and gain > b_q3 - b_q1:
        word = "better"
    elif max(b_sp, r_sp) > bound and not every_run_better:
        word = "unresolved"
    elif -gain > bound * b_med:
        word = "WORSE"
    else:
        word = "same"
    return word, wins, r_sp


def cmd_diff(args) -> int:
    load(sorted(args.dir.glob("*/*.t0.*.json")))  # refuses two environments
    base, new = (load(sorted((args.dir / side).glob("*.t0.*.json"))) for side in ("parent", "change"))
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload = key[0]
        by_seed = [{r["stamp"]["seed"]: r for r in side[key]} for side in (base, new)]
        if set(by_seed[0]) != set(by_seed[1]):
            sys.exit(f"refusing {workload}: seed sets differ: {sorted(by_seed[0])} vs {sorted(by_seed[1])}")
        seeds = sorted(by_seed[0])
        print(f"{workload}: {len(seeds)} pairs, seeds {seeds}")
        for name in base[key][0]["result"]["metrics"]:
            b = [by_seed[0][s]["result"]["metrics"][name]["value"] for s in seeds]
            n = [by_seed[1][s]["result"]["metrics"][name]["value"] for s in seeds]
            word, wins, r_sp = verdict(name, b, n)
            worse += word == "WORSE"
            b_med, b_q1, b_q3, _ = spread(b)
            n_med, n_q1, n_q3, _ = spread(n)
            print(f"  {name:12s} parent {b_med:<10.5g} [{b_q1:.5g}, {b_q3:.5g}]  change {n_med:<10.5g} "
                  f"[{n_q1:.5g}, {n_q3:.5g}]  {n_med / b_med - 1:+.3%}  change wins {wins}/{len(seeds)}  "
                  f"pair-ratio spread {r_sp:.3f}  {word}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("sweep")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1001-1010 or 3,7")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--outdir", type=Path, required=True)
    p.set_defaults(fn=cmd_sweep)
    p = sub.add_parser("summary")
    p.add_argument("dirs", nargs="+", type=Path)
    p.set_defaults(fn=cmd_summary)
    p = sub.add_parser("counts")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p.set_defaults(fn=cmd_counts)
    p = sub.add_parser("pairs")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1001-1010 or 3,7")
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--outdir", type=Path, required=True)
    p.set_defaults(fn=cmd_pairs)
    p = sub.add_parser("diff")
    p.add_argument("dir", type=Path, help="an --outdir written by pairs")
    p.set_defaults(fn=cmd_diff)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
