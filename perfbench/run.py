"""sdvsum benchmark: one workload per process, from corpus synthesis to summaries.

    python3 perfbench/run.py --workload ref64 --seed 1 --seconds 30 --trace 0

A run synthesizes its corpus from ``--seed`` (set-up), then repeats whole
rounds until ``--seconds`` have passed, with another set-up after each round
and at least ``SETUPS`` in all. A round is the user's
pipeline through sdvsum's public API: one ``train_run`` epoch (training,
validation, checkpoint), script-driven evaluation of the test split from the
checkpoint, generic evaluation with rank correlations, and one knapsack
summary per (video, script) pair. Every output of a round is then checked
against the independent computations in ``checks.py``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones, measured with only two spans per epoch installed; with
``--trace 1`` every layer boundary is wrapped (``tracing.py``) and the metrics
are the per-layer ones. Results and span dumps go to ``bench_out/``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: one BLAS thread, so dim-512 matmuls do not
# compete with the rest of a 2-core machine and runs stay comparable.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench_out"
SETUPS = 9            # fewest set-ups per run; setup_s is their median
PARITY_PAIRS = 2      # test pairs per round scored again by the float64 reference
SEGMENT = 5           # frames per fragment for summaries, as the CLI's fixed:5
perf = time.perf_counter


@dataclass(frozen=True)
class Workload:
    synth: dict
    model: dict


# SynthSpec / ModelConfig fields that differ from their defaults. Every
# workload trains one epoch per round (TrainConfig(epochs=1)); the corpus and
# training seeds are both the --seed argument. Frame counts are fixed per
# workload so that cost does not move with the seed. Why each workload
# exists is in BENCHMARK.json and README.md.
WORKLOADS = {
    "ref64": Workload(
        synth={"dim": 64, "videos_train": 8, "videos_validation": 2, "videos_test": 8},
        model={"dim": 64},
    ),
    "paper512": Workload(
        synth={"dim": 512, "videos_train": 3, "videos_validation": 1, "videos_test": 4},
        model={},
    ),
    "long64": Workload(
        synth={"dim": 64, "frames_min": 512, "frames_max": 512, "videos_train": 2,
               "videos_validation": 1, "videos_test": 4, "summaries_per_video": 4},
        model={"dim": 64},
    ),
}

E2E_UNITS = {
    "setup_s": "s", "epoch_s": "s", "train_samples_per_s": "samples/s",
    "eval_pairs_per_s": "pairs/s", "generic_videos_per_s": "videos/s",
    "summarize_ms": "ms", "peak_rss_mb": "MB",
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_program():
    """Import sdvsum from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sdvsum
        import sdvsum.datasets, sdvsum.metrics, sdvsum.model, sdvsum.sdve  # noqa: E401
        import sdvsum.selection, sdvsum.training  # noqa: E401
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import sdvsum from {src}: {e}")
    if not Path(sdvsum.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: sdvsum resolved to {sdvsum.__file__}, not under {src}")
    return sdvsum


class Run:
    def __init__(self, sdvsum, name: str, seed: int, traced: bool):
        self.sd = sdvsum
        self.seed = seed
        w = WORKLOADS[name]
        self.spec = sdvsum.datasets.SynthSpec(**w.synth, seed=seed)
        self.model_config = sdvsum.model.ModelConfig(**w.model)
        self.train_config = sdvsum.training.TrainConfig(epochs=1, seed=seed)
        self.work = OUT / name   # runs of one workload must not overlap
        self.tracer = tracing.Tracer()
        tracing.install(self.tracer, sdvsum, full=traced)
        self.setup_times: list[float] = []
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """One set-up: synthesize, parse the manifest and load every split.

        The first set-up's corpus feeds every round; later ones rewrite the
        same bytes in the same directory, which earlier runs of the workload
        also wrote. Creating fresh directories instead cost from 0.01 to
        0.25 s per 400 files on the reference machine, depending on whether
        the filesystem's metadata for the new location was cached, and that
        noise would swamp the program's own set-up time.
        """
        ds = self.sd.datasets
        data = self.work / "data"
        with self.tracer.in_phase("setup"):
            start = perf()
            ds.generate_synthetic(self.spec, data)
            manifest = ds.load_manifest(data / "manifest.json")
            cache: dict = {}
            loaded = {split: ds.load_split(manifest, split, cache) for split in ds.SPLITS}
            self.setup_times.append(perf() - start)
        if len(self.setup_times) > 1:
            return
        self.manifest, self.cache = manifest, cache
        self.train_videos, self.val_videos, self.test_videos = (
            loaded["train"], loaded["validation"], loaded["test"])
        pairs = sum(len(v.summaries) for v in self.test_videos)
        videos = len(self.test_videos)
        # eval pairs + its means, generic videos + its means, summaries,
        # parity pairs, one gradient, one report
        self.ops_per_round = pairs + 1 + videos + 1 + pairs + PARITY_PAIRS + 2

    # -- one round -----------------------------------------------------------

    def round(self) -> None:
        try:
            timings, outputs = self._pipeline()
            with self.tracer.in_phase("check"):
                problems = self._check(outputs)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.attempted += self.ops_per_round
            self.failed += self.ops_per_round
            return
        for p in problems:
            print(f"perfbench: check failed: {p}", file=sys.stderr)
        self.attempted += self.ops_per_round
        self.failed += len(problems)
        self.wrong += len(problems)
        timings["peak_rss_mb"] = peak_rss_mb()
        self.rounds.append(timings)

    def _pipeline(self):
        sd, t = self.sd, self.tracer
        run_dir = self.work / "run"
        mark = len(t.records)
        with t.in_phase("train"):
            start = perf()
            report = sd.training.train_run(self.manifest, self.model_config,
                                           self.train_config, run_dir)
            epoch = perf() - start
        val = sum(t.durations("training.validation", since=mark))
        ckpt = sum(t.durations("training.checkpoint", since=mark))
        samples = sum(len(v.summaries) for v in self.train_videos)

        eval_scores: list[np.ndarray] = []
        with t.in_phase("eval"):
            start = perf()
            weights, config = sd.model.load_checkpoint(run_dir / report.checkpoint)
            score_fn = sd.model.make_score_fn(weights, config)

            def recording(x, y, into=eval_scores):
                s = score_fn(x, y)
                into.append(s)
                return s

            result = sd.metrics.evaluate_script_driven(recording, self.manifest, "test",
                                                       cache=self.cache)
            eval_s = perf() - start

        generic_scores: list[np.ndarray] = []
        with t.in_phase("generic"):
            start = perf()
            generic = sd.metrics.evaluate_generic(
                lambda x, y: recording(x, y, generic_scores), self.manifest, "test",
                cache=self.cache)
            generic_s = perf() - start

        summaries, summarize_s = [], []
        with t.in_phase("summarize"):
            for v in self.test_videos:
                for s in v.summaries:
                    start = perf()
                    scores = sd.model.score_frames(v.frames, s.script, weights, config)
                    n = scores.shape[0]
                    fragments = sd.selection.fixed_fragmentation(n, SEGMENT)
                    budget = max(1, math.floor(checks.TOP_FRACTION * n))
                    chosen = sd.selection.fragment_knapsack(scores, fragments, budget)
                    summarize_s.append(perf() - start)
                    summaries.append((v, s, scores, fragments, budget, chosen))

        timings = {
            "epoch_s": epoch, "validation_s": val, "checkpoint_s": ckpt,
            "train_samples_per_s": samples / (epoch - val - ckpt),
            "eval_pairs_per_s": len(eval_scores) / eval_s,
            "generic_videos_per_s": len(generic_scores) / generic_s,
            "summarize_s": summarize_s,
        }
        outputs = {"report": report, "run_dir": run_dir, "result": result,
                   "eval_scores": eval_scores, "generic": generic,
                   "generic_scores": generic_scores, "summaries": summaries}
        return timings, outputs

    def _check(self, out) -> list[str]:
        sd = self.sd
        problems: list[str | None] = []

        # zip(strict=True): a missing record or score raises, failing the round
        result, scores = out["result"], iter(out["eval_scores"])
        for v, rec in zip(self.test_videos, result.records, strict=True):
            for s, f in zip(v.summaries, rec.per_summary, strict=True):
                problems.append(checks.check_pair_fscore(f, next(scores), s.labels))
        problems.append(checks.check_means([r.fscore for r in result.records], result.fscore,
                                           [r.per_summary for r in result.records]))

        generic = out["generic"]
        for v, rec, sc in zip(self.test_videos, generic.records, out["generic_scores"],
                              strict=True):
            labels = [s.labels for s in v.summaries]
            found = [checks.check_pair_fscore(f, sc, l)
                     for f, l in zip(rec.per_summary, labels, strict=True)]
            found.append(checks.check_ranks(rec.tau, rec.rho, sc, labels))
            problems.append(next((p for p in found if p), None))
        problems.append(checks.check_means([r.fscore for r in generic.records], generic.fscore,
                                           [r.per_summary for r in generic.records]))

        for v, s, sc, fragments, budget, chosen in out["summaries"]:
            problems.append(checks.check_knapsack(chosen, sc, fragments, budget))

        weights, config = sd.model.load_checkpoint(out["run_dir"] / out["report"].checkpoint)
        cfg = config.to_dict()
        w64 = checks.to_float64(weights)
        picks = np.linspace(0, len(out["summaries"]) - 1, PARITY_PAIRS).round().astype(int)
        for i in picks:
            v, s, sc = out["summaries"][i][:3]
            problems.append(checks.check_scores(sc, checks.reference_scores(v.frames, s.script,
                                                                            w64, cfg)))

        video, summary = self.train_videos[0], self.train_videos[0].summaries[0]
        tape = sd.autodiff.Tape()
        f = sd.model.model_forward(tape, video.frames, summary.script, weights, config,
                                   training=False)
        grads = tape.backward(sd.training.bce_loss(f, summary.labels))
        problems.append(checks.check_gradient(
            grads, lambda w: checks.reference_bce(video.frames, summary.script,
                                                  summary.labels, w, cfg),
            w64, self.seed))

        problems.append(checks.check_report(out["report"].best_val_fscore, [
            [(sd.model.score_frames(v.frames, s.script, weights, config), s.labels)
             for s in v.summaries]
            for v in self.val_videos]))
        return [p for p in problems if p is not None]

    # -- results -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        med = lambda key: statistics.median(r[key] for r in self.rounds)  # noqa: E731
        return {
            "setup_s": statistics.median(self.setup_times),
            "epoch_s": med("epoch_s"),
            "train_samples_per_s": med("train_samples_per_s"),
            "eval_pairs_per_s": med("eval_pairs_per_s"),
            "generic_videos_per_s": med("generic_videos_per_s"),
            "summarize_ms": 1000 * statistics.median(
                x for r in self.rounds for x in r["summarize_s"]),
            "peak_rss_mb": peak_rss_mb(),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        ap.error("--seed must be in [0, 2**32)")

    sd = import_program()
    run = Run(sd, args.workload, args.seed, bool(args.trace))
    try:
        run.setup()
        run.tracer.phase = "measure"
        run.tracer.gc_collected = 0
        start = perf()
        # a set-up after every round spreads them over the run, so their
        # median does not hang on the machine's state in one short window
        while not run.rounds or perf() - start < args.seconds:
            run.round()
            if not run.rounds and run.failed:
                break
            run.setup()
        while len(run.setup_times) < SETUPS:
            run.setup()
        measured = perf() - start
    finally:
        run.tracer.uninstall()
    if not run.rounds:
        print("perfbench: no round completed", file=sys.stderr)
        return 1

    e2e = run.end_to_end()
    if args.trace:
        values = tracing.per_layer(run.tracer, len(run.rounds))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        values, units = e2e, E2E_UNITS
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {**result, "end_to_end": e2e, "rounds": run.rounds, "setup_times": run.setup_times,
         "measured_s": measured}, indent=1) + "\n")
    if args.trace:
        run.tracer.dump(OUT / f"spans-{stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
