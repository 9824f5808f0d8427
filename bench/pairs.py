"""Alternating parent/change pairs of benchmark runs on one host.

Usage, from the root of a source checkout:

    python3 bench/pairs.py --base HEAD --workload montecarlo --seconds 25 --seeds 11 12 13

Each pair runs ``perfbench/run.py --workload W --seconds S --seed s`` once on
a ``git archive`` copy of the base commit and once on the working tree; odd
pairs run the base first, even pairs the working tree.  Every run's wall-clock
time is printed beside its end-to-end metrics, since a faster pass can make a
run longer when the benchmark repeats passes for a fixed measured time.  The
summary gives each side's median and quartiles per metric and the number of
pairs in which the working tree was better.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_run(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One benchmark run in ``checkout``: its metrics, correctness and wall time."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--seed", str(seed)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    return {"wall_s": wall, "correct": result["correct"], **metrics}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="commit to compare the working tree with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    tar = subprocess.run(["git", "archive", "--format=tar", args.base], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="pairs-base-") as tmp:
        base = Path(tmp)
        tarfile.open(fileobj=io.BytesIO(tar)).extractall(base)
        sides = {"base": base, "change": ROOT}
        runs: dict[str, list[dict]] = {"base": [], "change": []}
        print(f"{'pair':>4} {'seed':>5} {'side':<6} {'wall_s':>8} "
              + " ".join(f"{name:>12}" for name in lower) + "  correct")
        for k, seed in enumerate(args.seeds, start=1):
            order = ("base", "change") if k % 2 else ("change", "base")
            for side in order:
                r = bench_run(sides[side], args.workload, args.seconds, seed)
                runs[side].append(r)
                print(f"{k:>4} {seed:>5} {side:<6} {r['wall_s']:>8.1f} "
                      + " ".join(f"{r[name]:>12.4g}" for name in lower)
                      + f"  {r['correct']}", flush=True)

    print(f"\n{'metric':<12} {'side':<6} {'q1':>10} {'median':>10} {'q3':>10}  change better")
    for name in ["wall_s", *lower]:
        for side in ("base", "change"):
            q1, med, q3 = quartiles([r[name] for r in runs[side]])
            print(f"{name:<12} {side:<6} {q1:>10.4g} {med:>10.4g} {q3:>10.4g}", end="")
            if side == "change" and name in lower:
                wins = sum((c[name] < b[name]) == lower[name] and c[name] != b[name]
                           for b, c in zip(runs["base"], runs["change"]))
                print(f"  {wins} of {len(args.seeds)}", end="")
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
