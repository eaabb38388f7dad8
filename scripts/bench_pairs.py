"""Run the benchmark on two checkouts in pairs and summarize the pairs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload ice-field --seeds 1-10 --out BENCH.json

A pair runs the benchmark's command (BENCHMARK.json ``command``, for its
``run_seconds``, ``--trace 0``) in each checkout, one after the other, with
the same seed; which side runs first alternates from pair to pair. For
every run the output keeps the last line of standard output (the result)
and the ``environment`` block of the run record. For each end-to-end metric
it gives each side's median and quartiles (as ``perfbench/spread.py``
computes them), the number of pairs the change wins (ties count for
neither), and whether the medians differ by more than the parent's
quartile spread. Pairs already in the output file are kept, and new pairs
of the same workload are added to them, so several invocations build one
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from spread import seeds  # noqa: E402

SIDES = ("parent", "change")


def run_once(checkout: Path, spec: dict, workload: str, seed: int) -> dict:
    """One benchmark run in ``checkout``: its result line and environment."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    record = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    environment = json.loads(record.read_text(encoding="utf-8"))["environment"]
    return {"returncode": 0, "result": json.loads(lines[-1]), "environment": environment}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's median and quartiles over the pairs where
    both runs reported, and the change's wins."""
    done = [p for p in pairs if all(p[side]["returncode"] == 0 for side in SIDES)]
    summary = {"pairs": len(pairs), "pairs_reported": len(done)}
    if len(done) < 2:
        return summary
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in done]
                  for side in SIDES}
        stats = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4)
            stats[side] = {"median": median, "q1": q1, "q3": q3}
        wins = sum(1 for a, b in zip(values["parent"], values["change"]) if sign * (b - a) < 0)
        gap = abs(stats["change"]["median"] - stats["parent"]["median"])
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], **stats, "wins": wins,
            "median_gap_exceeds_parent_iqr": gap > stats["parent"]["q3"] - stats["parent"]["q1"],
        }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="a range, e.g. '1-10'")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    entry = doc.setdefault("workloads", {}).setdefault(args.workload, {"pairs": []})
    for seed in args.seeds:
        order = SIDES if len(entry["pairs"]) % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], spec, args.workload, seed)
            print(f"{args.workload} seed {seed} {side}: "
                  f"{json.dumps(pair[side].get('result', pair[side]))}", flush=True)
        entry["pairs"].append(pair)
        entry["summary"] = summarize(entry["pairs"], spec["end_to_end"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
