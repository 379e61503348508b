"""scripts/bench_pairs.py: the pair statistics and the flow comparison, on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spread_of_one_value_is_its_own_quartiles(bench_pairs):
    assert bench_pairs.spread([3.5]) == {"median": 3.5, "q1": 3.5, "q3": 3.5}


def _runs(values):
    """Runs of pairs 1..n from (parent, change) metric dicts."""
    return [{"pair": pair, "side": side, "metrics": metrics}
            for pair, sides in enumerate(values, 1)
            for side, metrics in zip(("parent", "change"), sides)]


DECLARED = [{"name": "rate", "unit": "1/s", "better": "higher"},
            {"name": "time", "unit": "s", "better": "lower"}]


def test_summarize_wins_ties_and_resolution(bench_pairs):
    runs = _runs([({"rate": 10.0, "time": 2.0}, {"rate": 12.0, "time": 1.0}),
                  ({"rate": 10.0, "time": 2.0}, {"rate": 10.0, "time": 2.0}),   # a tie
                  ({"rate": 11.0, "time": 2.2}, {"rate": 13.0, "time": 2.4})])
    out = bench_pairs.summarize(runs, DECLARED)
    rate, time = out["rate"], out["time"]
    assert (rate["wins"], rate["pairs"]) == (2, 3)
    assert (time["wins"], time["pairs"]) == (1, 3)
    assert rate["pair_ratios"] == [1.2, 1.0, 13.0 / 11.0]
    assert rate["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.5}
    assert rate["change"]["median"] == 12.0
    assert rate["ratio_of_medians"] == 1.2
    # rate: medians 12 against 10 with a parent IQR of 0.5; time: 2.0 against 2.0
    assert rate["gap_exceeds_parent_iqr"] is True
    assert time["gap_exceeds_parent_iqr"] is False
    assert (rate["unit"], time["better"]) == ("1/s", "lower")


def _record(name, code=0, stdout="", stderr=""):
    return {"name": name, "code": code, "stdout": stdout, "stderr": stderr}


def _trees(tmp, files):
    for side, tree in files.items():
        for name, data in tree.items():
            path = tmp / side / "flow" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)


def test_compare_flows_shows_what_differs(bench_pairs, tmp_path, monkeypatch, capsys):
    lines = [f"line {i}" for i in range(30)]
    records = {
        "parent": [_record("dim 16: synth", stdout="a\nb\nc\n"),
                   _record("dim 16: train", stdout="\n".join(lines) + "\n"),
                   _record("dim 16: eval", stderr="same\n")],
        "change": [_record("dim 16: synth", stdout="a\nB\nc\n"),
                   _record("dim 16: train", stdout="\n".join(f"{x}!" for x in lines) + "\n"),
                   _record("dim 16: eval", code=2, stderr="same\n")],
    }
    monkeypatch.setattr(bench_pairs, "run_flow", lambda checkout, dims: records[checkout.name])
    _trees(tmp_path, {"parent": {"dim16/a.bin": b"1", "dim16/b.bin": b"2", "dim16/old": b""},
                      "change": {"dim16/a.bin": b"1", "dim16/b.bin": b"3", "dim16/new": b""}})
    assert bench_pairs.compare_flows(tmp_path, [16]) == 1
    out = capsys.readouterr().out.splitlines()
    synth = out.index(next(x for x in out if x.startswith("dim 16: synth")))
    assert "DIFFERS in stdout" in out[synth]
    assert out[synth + 1:synth + 5] == ["    --- parent stdout", "    +++ change stdout",
                                        "    @@ -2 +2 @@", "    -b"]
    assert out[synth + 5] == "    +B"
    # 30 changed lines: a 63-line diff, cut to 20 and a count of the rest
    train = out.index(next(x for x in out if x.startswith("dim 16: train")))
    assert out[train + 1:train + 4] == ["    --- parent stdout", "    +++ change stdout",
                                        "    @@ -1,30 +1,30 @@"]
    assert out[train + 21] == "    … 43 more lines"
    assert out[train + 22].startswith("dim 16: eval")
    assert "exit 0/2  DIFFERS in code" in out[train + 22]
    assert not out[train + 23].startswith("    ")   # the exit code has no diff
    assert "differs: dim16/b.bin" in out
    assert "only in parent: dim16/old" in out and "only in change: dim16/new" in out
    assert not any("a.bin" in x for x in out)
    assert out[-1] == "flow at dims 16: 3 commands, 3 differ; 4 files, 3 differ"


def test_compare_flows_of_identical_sides_is_0(bench_pairs, tmp_path, monkeypatch, capsys):
    records = [_record("dim 16: synth", stdout="a\n"), _record("dim 16: eval", stderr="b\n")]
    monkeypatch.setattr(bench_pairs, "run_flow", lambda checkout, dims: list(records))
    _trees(tmp_path, {side: {"dim16/a.bin": b"1"} for side in ("parent", "change")})
    assert bench_pairs.compare_flows(tmp_path, [16]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{'dim 16: synth':40s} exit 0/0  same",
                   f"{'dim 16: eval':40s} exit 0/0  same",
                   "flow at dims 16: 2 commands, 0 differ; 1 files, 0 differ"]


@pytest.mark.parametrize("pairs", [None, "0", "1", "3"])
def test_workload_refuses_an_odd_pair_count(bench_pairs, tmp_path, monkeypatch, capsys, pairs):
    # with an odd count the parent would run first in one more pair than the change
    def forbidden(*args):
        raise AssertionError("nothing may be exported or run")

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", forbidden)
    monkeypatch.setattr(bench_pairs, "export", forbidden)
    argv = ["A", "B", "--workload", "ref64"] + (["--pairs", pairs] if pairs else [])
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(argv)
    assert exit_.value.code == 2
    assert "--pairs must be even" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
