"""Metric oracles: F-Score, Kendall tau-b, Spearman rho vs brute force;
the overlap matrix as a view of the evaluation records."""

import numpy as np
import pytest

from sdvsum.datasets import SynthSpec, generate_synthetic
from sdvsum.errors import ManifestError
from sdvsum.metrics import (
    EvalRecord,
    EvalResult,
    _average_ranks,
    evaluate_generic,
    evaluate_script_driven,
    fscore_binary,
    kendall_tau_b,
    overlap_matrix,
    spearman_rho,
)


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the library implementations)


def fscore_oracle(pred, gt):
    p_set = {i for i, v in enumerate(pred) if v}
    g_set = {i for i, v in enumerate(gt) if v}
    inter = len(p_set & g_set)
    if inter == 0:
        return 0.0
    prec = inter / len(p_set)
    rec = inter / len(g_set)
    return 200.0 * prec * rec / (prec + rec)


def tau_b_oracle(a, b):
    """O(n^2) pair counting with explicit tie corrections."""
    n = len(a)
    conc = disc = ties_a = ties_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            da, db = a[i] - a[j], b[i] - b[j]
            if da == 0 and db == 0:
                continue
            if da == 0:
                ties_a += 1
            elif db == 0:
                ties_b += 1
            elif (da > 0) == (db > 0):
                conc += 1
            else:
                disc += 1
    denom = np.sqrt(float(conc + disc + ties_a) * float(conc + disc + ties_b))
    if denom == 0:
        return None
    return (conc - disc) / denom


def ranks_oracle(x):
    """Average ranks (1-based) with ties sharing the mean of their range."""
    n = len(x)
    order = sorted(range(n), key=lambda i: x[i])
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def rho_oracle(a, b):
    ra, rb = np.array(ranks_oracle(a)), np.array(ranks_oracle(b))
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra ** 2).sum() * (rb ** 2).sum())
    if denom == 0:
        return None
    return float((ra * rb).sum() / denom)


# ---------------------------------------------------------------------------
# F-Score


def test_fscore_identity():
    v = np.array([1, 0, 1, 0, 1], dtype=np.float32)
    assert fscore_binary(v, v) == 100.0


def test_fscore_disjoint():
    assert fscore_binary(np.array([1, 1, 0, 0.]), np.array([0, 0, 1, 1.])) == 0.0


def test_fscore_hand_example():
    pred = np.zeros(5); pred[[0, 1, 2]] = 1
    gt = np.zeros(5); gt[[1, 2, 3]] = 1
    assert fscore_binary(pred, gt) == pytest.approx(200 * (2 / 3) * (2 / 3) / (4 / 3))
    assert fscore_binary(pred, gt) == pytest.approx(66.6667, abs=1e-3)


def test_fscore_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = (rng.random(12) < 0.4).astype(np.float32)
        b = (rng.random(12) < 0.4).astype(np.float32)
        a[0] = b[-1] = 1  # keep both non-empty
        assert fscore_binary(a, b) == fscore_binary(b, a)


def test_fscore_length_mismatch():
    with pytest.raises(ValueError):
        fscore_binary(np.ones(3), np.ones(4))


def test_fscore_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 50))
        pred = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.float32)
        gt = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(np.float32)
        if pred.sum() == 0 or gt.sum() == 0:
            continue
        assert fscore_binary(pred, gt) == pytest.approx(fscore_oracle(pred, gt), abs=1e-9)


# ---------------------------------------------------------------------------
# Kendall tau-b


def test_tau_identity_and_reversal():
    assert kendall_tau_b([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_tau_hand_tied_example():
    got = kendall_tau_b([1, 2, 2, 3], [1, 3, 2, 4])
    assert got == pytest.approx(tau_b_oracle([1, 2, 2, 3], [1, 3, 2, 4]), abs=1e-12)


def test_tau_all_tied_is_degenerate():
    assert kendall_tau_b([2, 2, 2], [1, 2, 3]) is None
    assert kendall_tau_b([1, 2, 3], [5, 5, 5]) is None


def test_tau_monotone_transform_invariance():
    rng = np.random.default_rng(2)
    a = rng.random(20)
    b = rng.random(20)
    t1 = kendall_tau_b(a, b)
    t2 = kendall_tau_b(np.exp(3 * a), 2 * b + 7)
    assert t1 == pytest.approx(t2, abs=1e-12)


def tied_instances(seed):
    """200 short instances, then one long heavily tied one, on a coarse value grid."""
    rng = np.random.default_rng(seed)
    for k in range(201):
        n = int(rng.integers(2, 50)) if k < 200 else 2000
        # coarse grid so ties are common
        yield (rng.integers(0, 6, size=n).astype(float),
               rng.integers(0, 6, size=n).astype(float))


def test_tau_matches_oracle():
    for a, b in tied_instances(3):
        got = kendall_tau_b(a, b)
        want = tau_b_oracle(a.tolist(), b.tolist())
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# Spearman rho


def test_rho_identity_and_reversal():
    assert spearman_rho([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)
    assert spearman_rho([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)


def test_rho_hand_tied_example():
    got = spearman_rho([1, 2, 2, 4], [2, 1, 3, 4])
    assert got == pytest.approx(rho_oracle([1, 2, 2, 4], [2, 1, 3, 4]), abs=1e-12)


def test_rho_zero_variance_is_degenerate():
    assert spearman_rho([3, 3, 3], [1, 2, 3]) is None
    assert spearman_rho([1, 2, 3], [7, 7, 7]) is None


def test_rho_matches_oracle():
    for a, b in tied_instances(4):
        assert np.array_equal(_average_ranks(a), ranks_oracle(a.tolist()))
        got = spearman_rho(a, b)
        want = rho_oracle(a.tolist(), b.tolist())
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)


def test_rho_monotone_transform_invariance():
    rng = np.random.default_rng(6)
    a = rng.random(15)
    b = rng.random(15)
    assert spearman_rho(a, b) == pytest.approx(
        spearman_rho(a ** 3, np.log(b + 1)), abs=1e-12)


def test_hypothesis_tau_oracle_agreement():
    hyp = pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=30),
           st.data())
    @settings(max_examples=60, deadline=None)
    def inner(a, data):
        b = data.draw(st.lists(st.integers(0, 4), min_size=len(a), max_size=len(a)))
        got = kendall_tau_b(np.array(a, float), np.array(b, float))
        want = tau_b_oracle(a, b)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-9)

    inner()


# ---------------------------------------------------------------------------
# overlap matrix


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    spec = SynthSpec(topics=6, dim=16, videos_train=1, videos_validation=1,
                     videos_test=3, frames_min=20, frames_max=30,
                     summaries_per_video=3, seed=3)
    return generate_synthetic(spec, tmp_path_factory.mktemp("corpus"))


def similarity(x, y):
    return (x @ y.mean(axis=0)).astype(np.float32)


@pytest.mark.parametrize("mode, evaluate", [("script_driven", evaluate_script_driven),
                                            ("generic", evaluate_generic)])
def test_overlap_rows_are_evaluation_per_summary(corpus, mode, evaluate):
    ids = [v.id for v in corpus.split_videos("test")][::-1]
    result = evaluate(similarity, corpus, "test")
    per_summary = {r.video_id: r.per_summary for r in result.records}
    matrix = overlap_matrix(result, ids)
    assert matrix.video_ids == ids
    assert matrix.values.shape == (3, 3)
    assert np.array_equal(matrix.values, np.array([per_summary[v] for v in ids]))


def test_overlap_rows_must_come_from_the_evaluation():
    result = EvalResult(split="test", mode="script_driven", fscore=0.0, tau=None, rho=None,
                        records=[EvalRecord("a", [10.0, 20.0], 15.0),
                                 EvalRecord("b", [30.0], 30.0)])
    with pytest.raises(ManifestError, match="'c' is not in the evaluated 'test' split"):
        overlap_matrix(result, ["a", "c"])
    with pytest.raises(ManifestError, match="'b' has 1 summaries, expected 2"):
        overlap_matrix(result, ["a", "b"])
