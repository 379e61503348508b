"""Two git revisions compared from fresh checkouts: alternating benchmark pairs, or
the CLI flow's outputs byte for byte.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload ref64 --pairs 10 [--seconds 30]
    python3 scripts/bench_pairs.py PARENT CHANGE --flow [--dims 16 64]

Both revisions are exported with ``git archive`` into a new temporary
directory, so neither side sees this checkout's uncommitted files or what
earlier runs left in its ``bench_out/``.

``--flow`` runs the same CLI commands in each copy, at each of ``--dims``:
``synth``; ``train`` in both modes with both text representations; ``eval``
in both modes with ``--overlap``; ``summarize`` with ``fixed:5`` and with
``from-manifest`` fragments; and ``ablate``. The corpus has videos of 12 to
600 frames, so the self-attention of the longer ones (over 181 frames, at 8
heads) runs in more than one block of heads. The script lists every file
that exists on one side only or whose bytes differ, and every command whose
exit code, standard output or standard error differs once each side's
directory is masked, with a unified diff of each differing stream (its first
20 lines). It exits 1 if anything differs.

With ``--workload``, pair i (seed ``--seed`` + i - 1) runs
``perfbench/run.py --workload W --seed SEED --seconds S --trace 0`` once in
each copy. The parent runs first in odd pairs and the change in even ones,
so a drift in the machine's speed falls on both sides alike; ``--pairs`` must
be even, since the side that runs second in a pair tends to read slower.

The script prints every run; then, for each end-to-end metric that
``BENCHMARK.json`` declares, each side's median and quartiles, the
change/parent ratio in every pair, how many pairs the change won (a tie
counts for neither side), and whether the medians lie further apart than the
parent's quartiles. All of it is written to ``BENCH_<W>.json`` at the root
of this repository. A run that exits non-zero stops the script.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
DIFF_LINES = 20   # most lines of a differing stream's diff that --flow prints


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """The files of ``commit``, and nothing else, under ``dest``."""
    dest.mkdir()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", commit], check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def cli_flow(work: Path, dim: int, run) -> None:
    """The flow's commands at ``dim``, in order, writing under ``work``.

    ``run(name, argv)`` runs one CLI command and returns its standard output,
    from which the flow reads the checkpoints that later commands use.
    """
    work.mkdir(parents=True)
    (work / "spec.cfg").write_text(
        f"topics = 4\ndim = {dim}\nvideos_train = 4\nvideos_validation = 2\n"
        "videos_test = 2\nframes_min = 12\nframes_max = 600\nsentences_min = 3\n"
        "sentences_max = 5\nsummaries_per_video = 3\n")
    data = work / "data"
    run("synth", ["synth", "--spec", work / "spec.cfg", "--out", data])
    manifest = data / "manifest.json"
    if not manifest.is_file():   # synth failed: nothing else can run
        return
    checkpoints = {}
    for mode in ("script_driven", "generic"):
        for rep in ("multi_vector", "single_vector"):
            cfg = work / f"{mode}-{rep}.cfg"
            cfg.write_text(f"epochs = 2\nlearning_rate = 1e-3\nmode = {mode}\ntext_rep = {rep}\n")
            out = run(f"train {mode} {rep}", ["train", "--manifest", manifest,
                                              "--config", cfg, "--out", work / cfg.stem])
            try:
                checkpoints[mode, rep] = json.loads(out.splitlines()[-1])["checkpoint"]
            except (IndexError, ValueError, KeyError):
                checkpoints[mode, rep] = str(work / cfg.stem / "missing.sdvc")
    videos = json.loads(manifest.read_text())["videos"]
    test = [v for v in videos if v["split"] == "test"]
    (work / "ids.txt").write_text("".join(v["id"] + "\n" for v in test))
    for mode, trained in (("script", "script_driven"), ("generic", "generic")):
        run(f"eval {mode}", ["eval", "--manifest", manifest, "--split", "test",
                             "--checkpoint", checkpoints[trained, "multi_vector"],
                             "--mode", mode, "--overlap", work / "ids.txt",
                             "--overlap-out", work / f"overlap-{mode}.csv"])
    one = ["summarize", "--checkpoint", checkpoints["script_driven", "multi_vector"],
           "--manifest", manifest, "--video", test[0]["id"], "--summary", "0"]
    run("summarize fixed:5", [*one, "--fragments", "fixed:5"])
    run("summarize from-manifest", [*one, "--fragments", "from-manifest"])
    (work / "ablate.cfg").write_text("epochs = 2\nlearning_rate = 1e-3\n")
    run("ablate", ["ablate", "--manifest", manifest, "--config", work / "ablate.cfg",
                   "--out", work / "ablate"])


def run_flow(checkout: Path, dims: list[int]) -> list[dict]:
    """Each flow command run in ``checkout``: its name, exit code and masked output."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    # an installed sdvsum must not stand in for the checkout's
    where = subprocess.run([sys.executable, "-c", "import sdvsum; print(sdvsum.__file__)"],
                           cwd=checkout, env=env, capture_output=True, text=True).stdout
    if not where.startswith(str(checkout / "src")):
        raise SystemExit(f"bench_pairs: sdvsum imports from {where.strip()!r}, not {checkout}")

    def masked(text: str) -> str:
        return text.replace(str(checkout), "<checkout>")

    records = []
    for dim in dims:
        def run(name, argv, dim=dim):
            proc = subprocess.run([sys.executable, "-m", "sdvsum.cli", *map(str, argv)],
                                  cwd=checkout, env=env, capture_output=True, text=True)
            records.append({"name": f"dim {dim}: {name}", "code": proc.returncode,
                            "stdout": masked(proc.stdout), "stderr": masked(proc.stderr)})
            return proc.stdout

        cli_flow(checkout / "flow" / f"dim{dim}", dim, run)
    return records


def stream_diff(parent: str, change: str, label: str) -> list[str]:
    """The unified diff of one output stream, with no context, cut to ``DIFF_LINES`` lines."""
    diff = list(difflib.unified_diff(parent.splitlines(), change.splitlines(),
                                     f"parent {label}", f"change {label}", n=0, lineterm=""))
    if len(diff) > DIFF_LINES:
        diff[DIFF_LINES:] = [f"… {len(diff) - DIFF_LINES} more lines"]
    return diff


def compare_flows(tmp: Path, dims: list[int]) -> int:
    """Run the flow on both sides; print what differs; 1 if anything does, else 0."""
    records = {side: run_flow(tmp / side, dims) for side in SIDES}
    differ = 0
    for parent, change in itertools.zip_longest(*records.values()):
        if parent is None or change is None:
            differ += 1
            print(f"{(parent or change)['name']:40s} ran on one side only")
            continue
        parts = [part for part in ("code", "stdout", "stderr") if parent[part] != change[part]]
        differ += bool(parts)
        print(f"{parent['name']:40s} exit {parent['code']}/{change['code']}  "
              + (f"DIFFERS in {', '.join(parts)}" if parts else "same"))
        for part in parts:
            if part != "code":
                for line in stream_diff(parent[part], change[part], part):
                    print(f"    {line}")
    trees = {side: {p.relative_to(tmp / side / "flow"): p
                    for p in sorted((tmp / side / "flow").rglob("*")) if p.is_file()}
             for side in SIDES}
    names = sorted(set(trees["parent"]) | set(trees["change"]))
    moved = [name for name in names
             if name not in trees["parent"] or name not in trees["change"]
             or trees["parent"][name].read_bytes() != trees["change"][name].read_bytes()]
    for name in moved:
        where = [side for side in SIDES if name in trees[side]]
        print(f"differs: {name}" if len(where) == 2 else f"only in {where[0]}: {name}")
    print(f"flow at dims {' '.join(map(str, dims))}: {len(records['parent'])} commands, "
          f"{differ} differ; {len(names)} files, {len(moved)} differ")
    return 1 if differ or moved else 0


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
    ap.add_argument("--flow", action="store_true",
                    help="compare the CLI flow's outputs, not benchmark runs")
    ap.add_argument("--dims", type=int, nargs="+", default=[16, 64],
                    help="embedding widths of the flow (default: 16 64)")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int)
    ap.add_argument("--seconds", type=float,
                    help="run length per run (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.flow == (args.workload is not None):
        ap.error("give either --flow or --workload with --pairs")
    if args.workload is not None and (args.pairs is None or args.pairs < 2 or args.pairs % 2):
        ap.error("--pairs must be even and at least 2, so each side runs first equally often")
    revs = {"parent": args.parent, "change": args.change}
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in revs.items()}
    if args.flow:
        with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
            for side in SIDES:
                export(commits[side], Path(tmp) / side)
            return compare_flows(Path(tmp), args.dims)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in benchmark["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds

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
