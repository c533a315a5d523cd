"""Check that the benchmark is steady: spreads within bounds, repeat sets agree.

    python3 perfbench/steady.py run --seeds 10 --first-seed 1 --out .perfbench/set-a.jsonl
    python3 perfbench/steady.py run --seeds 10 --first-seed 101 --out .perfbench/set-b.jsonl
    python3 perfbench/steady.py check .perfbench/set-a.jsonl .perfbench/set-b.jsonl

`run` runs every workload of BENCHMARK.json once per seed, untraced, one
process after another, and appends each result line to the output file.
`check` prints, per workload and end-to-end metric, the median and the
spread (distance between the first and third quartile as a share of the
median).  It fails when a spread exceeds the metric's bound (setup_s is
exempt), and, given a second set, when the second median is worse than
the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_set(seeds: range, out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            with open(out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "code": proc.returncode, "result": result}) + "\n")
            print(f"{workload} seed {seed}: exit {proc.returncode}", flush=True)


def _load(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        entry = json.loads(line)
        by_workload.setdefault(entry["workload"], []).append(entry)
    return by_workload


def _summary(entries: list[dict], name: str) -> tuple[float, float]:
    values = [e["result"]["metrics"][name]["value"] for e in entries]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def check(first: Path, second: Path | None) -> bool:
    sets = [_load(first)] + ([_load(second)] if second else [])
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        usable = True
        for runs in sets:
            entries = runs.get(workload, [])
            bad = [e["seed"] for e in entries
                   if e["code"] != 0 or not (e["result"] or {}).get("correct")]
            if bad or len(entries) < 2:
                print(f"{workload}: {len(entries)} runs, failed or incorrect seeds {bad}")
                usable = ok = False
        if not usable:
            continue
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [_summary(runs[workload], name) for runs in sets]
            notes = []
            for median, spread in stats:
                if spread > bound and name != "setup_s":
                    notes.append("SPREAD OVER BOUND")
            if len(stats) == 2:
                (m1, _), (m2, _) = stats
                worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
                if worse > bound:
                    notes.append(f"SECOND MEDIAN WORSE BY {worse:.3f}")
            ok = ok and not notes
            cells = "  ".join(f"median {m:.6g} spread {s:.3f}" for m, s in stats)
            print(f"{workload:12s} {name:18s} bound {bound:<5} {cells}  {' '.join(notes)}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--seeds", type=int, default=10)
    p_run.add_argument("--first-seed", type=int, default=1)
    p_run.add_argument("--out", type=Path, required=True)
    p_check = sub.add_parser("check")
    p_check.add_argument("first", type=Path)
    p_check.add_argument("second", type=Path, nargs="?")
    args = parser.parse_args(argv)
    if args.command == "run":
        run_set(range(args.first_seed, args.first_seed + args.seeds), args.out)
        return 0
    return 0 if check(args.first, args.second) else 1


if __name__ == "__main__":
    sys.exit(main())
