"""Alternating benchmark pairs of two git revisions, each run from a fresh checkout.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload ref64 --pairs 10 [--seconds 30]

Both revisions are exported with ``git archive`` into a new temporary
directory, so neither side sees this checkout's uncommitted files or what
earlier runs left in its ``bench_out/``. Pair i (seed ``--seed`` + i - 1) runs
``perfbench/run.py --workload W --seed SEED --seconds S --trace 0`` once in
each copy. The parent runs first in odd pairs and the change in even ones,
so a drift in the machine's speed falls on both sides alike.

The script prints every run; then, for each end-to-end metric that
``BENCHMARK.json`` declares, each side's median and quartiles, the
change/parent ratio in every pair, how many pairs the change won (a tie
counts for neither side), and whether the medians lie further apart than the
parent's quartiles. All of it is written to ``BENCH_<W>.json`` at the root
of this repository. A run that exits non-zero stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """The files of ``commit``, and nothing else, under ``dest``."""
    dest.mkdir()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its last line of standard output, parsed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_pairs: run in {checkout} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list[float]) -> dict[str, float]:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], declared: list[dict]) -> dict[str, dict]:
    """Per metric: each side's spread, every pair's ratio, wins and resolution."""
    pairs = sorted({r["pair"] for r in runs})
    value = {(r["pair"], r["side"]): r["metrics"] for r in runs}
    out = {}
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        sides = {side: [value[p, side][name] for p in pairs] for side in SIDES}
        ratios = [c / p for p, c in zip(sides["parent"], sides["change"])]
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(sides["parent"], sides["change"]))
        stats = {side: spread(sides[side]) for side in SIDES}
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"], **stats,
            "ratio_of_medians": stats["change"]["median"] / stats["parent"]["median"],
            "pair_ratios": ratios, "wins": wins, "pairs": len(pairs),
            "gap_exceeds_parent_iqr":
                abs(stats["change"]["median"] - stats["parent"]["median"]) > parent_iqr,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="git revision of the parent")
    ap.add_argument("change", help="git revision of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    help="run length per run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    revs = {"parent": args.parent, "change": args.change}
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in revs.items()}

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        for side in SIDES:
            export(commits[side], Path(tmp) / side)
        for pair in range(1, args.pairs + 1):
            seed = args.seed + pair - 1
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                run = {"pair": pair, "seed": seed, "side": side,
                       **run_once(Path(tmp) / side, args.workload, seed, seconds)}
                runs.append(run)
                shown = "  ".join(f"{k} {v:.4g}" for k, v in run["metrics"].items())
                print(f"pair {pair:2d}  seed {seed}  {side:6s}  failed "
                      f"{run['failed']}/{run['attempted']}  {shown}", flush=True)

    metrics = summarize(runs, benchmark["end_to_end"])
    print(f"\n{args.workload}: parent {revs['parent']} ({commits['parent'][:10]}), "
          f"change {revs['change']} ({commits['change'][:10]}), {args.pairs} pairs of "
          f"{seconds:g} s")
    for name, m in metrics.items():
        p, c = m["parent"], m["change"]
        print(f"{name:22s} parent {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]  "
              f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  {m['unit']}, "
              f"{m['better']} is better; change/parent {m['ratio_of_medians']:.3f}, change won "
              f"{m['wins']}/{m['pairs']}, gap > parent IQR: {m['gap_exceeds_parent_iqr']}")
        print(f"{'':22s} pair ratios " + " ".join(f"{r:.3f}" for r in m["pair_ratios"]))

    sides = {side: {"rev": revs[side], "commit": commits[side],
                    "attempted": sum(r["attempted"] for r in runs if r["side"] == side),
                    "failed": sum(r["failed"] for r in runs if r["side"] == side)}
             for side in SIDES}
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps({"workload": args.workload, "seconds": seconds,
                               "pairs": args.pairs, "sides": sides, "metrics": metrics,
                               "runs": runs}, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
