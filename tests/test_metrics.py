"""Metric formulas against brute-force recomputation."""

import numpy as np
import pytest

from memformer.metrics import (
    EvalReport,
    average_accuracy,
    cohens_kappa,
    confusion_matrix,
    overall_accuracy,
    per_class_accuracy,
)


def _brute_force(confusion):
    """Recompute OA/AA/kappa with explicit loops over the definition."""
    c = confusion.astype(float)
    total = c.sum()
    p_o = sum(c[i, i] for i in range(len(c))) / total
    recalls = []
    for i in range(len(c)):
        row = c[i].sum()
        if row > 0:
            recalls.append(c[i, i] / row)
    aa = sum(recalls) / len(recalls)
    p_e = 0.0
    for i in range(len(c)):
        p_e += c[i].sum() * c[:, i].sum()
    p_e /= total * total
    if p_e == 1.0:
        kappa = 1.0 if p_o == 1.0 else 0.0
    else:
        kappa = (p_o - p_e) / (1.0 - p_e)
    return p_o, aa, kappa


def test_worked_example():
    c = np.array([[40, 10], [20, 30]])
    assert overall_accuracy(c) == 0.7
    assert average_accuracy(c) == 0.7
    # p_e = (50*60 + 50*40) / 100^2 = 0.5, so kappa = (0.7-0.5)/0.5
    assert cohens_kappa(c) == 0.4


def test_chance_agreement_is_zero_kappa():
    c = np.array([[25, 25], [25, 25]])
    assert overall_accuracy(c) == 0.5
    assert cohens_kappa(c) == 0.0


def test_perfect_predictor():
    c = np.diag([10, 20, 30])
    assert overall_accuracy(c) == 1.0
    assert average_accuracy(c) == 1.0
    assert cohens_kappa(c) == 1.0


def test_degenerate_single_class_edge():
    # all mass on one diagonal cell: p_e = 1; perfect agreement scores 1
    assert cohens_kappa(np.array([[7, 0], [0, 0]])) == 1.0
    # all mass in one off-diagonal cell: p_e = 0 (disjoint marginals)
    assert cohens_kappa(np.array([[0, 7], [0, 0]])) == 0.0


def test_kappa_is_one_iff_diagonal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = np.diag(rng.integers(1, 50, size=4))
        assert cohens_kappa(c) == 1.0
        c[0, 1] = 1
        assert cohens_kappa(c) < 1.0


def test_randomized_agreement_with_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        size = int(rng.integers(2, 8))
        c = rng.integers(0, 40, size=(size, size))
        if c.sum() == 0:
            c[0, 0] = 1
        p_o, aa, kappa = _brute_force(c)
        assert abs(overall_accuracy(c) - p_o) <= 1e-12
        assert abs(average_accuracy(c) - aa) <= 1e-12
        assert abs(cohens_kappa(c) - kappa) <= 1e-12
        assert 0.0 <= overall_accuracy(c) <= 1.0
        assert 0.0 <= average_accuracy(c) <= 1.0
        assert -1.0 <= cohens_kappa(c) <= 1.0


def test_confusion_matrix_counts():
    y_true = np.array([0, 0, 1, 2, 2, 2])
    y_pred = np.array([0, 1, 1, 2, 0, 2])
    c = confusion_matrix(y_true, y_pred, 3)
    np.testing.assert_array_equal(c, [[1, 1, 0], [0, 1, 0], [1, 0, 2]])
    # row sums are the per-class reference counts
    np.testing.assert_array_equal(c.sum(axis=1), [2, 1, 3])


def test_confusion_matrix_validation():
    with pytest.raises(ValueError):
        confusion_matrix([0, 1], [0], 2)
    with pytest.raises(ValueError):
        confusion_matrix([0, 2], [0, 1], 2)
    with pytest.raises(ValueError, match="zero samples"):
        confusion_matrix([], [], 2)


@pytest.mark.parametrize("labels", [[0.7, 1.9], [True, False]], ids=["fractional", "bool"])
def test_confusion_matrix_rejects_labels_that_are_not_integers(labels):
    # a cast to int64 used to count 0.7 as class 0 and True as class 1
    with pytest.raises(ValueError, match="true labels must be integers"):
        confusion_matrix(labels, [1, 0], 2)
    with pytest.raises(ValueError, match="predicted labels must be integers"):
        confusion_matrix([1, 0], labels, 2)


def test_per_class_handles_missing_class():
    c = np.array([[5, 0, 0], [0, 0, 0], [2, 0, 8]])
    recalls = per_class_accuracy(c)
    assert recalls[0] == 1.0
    assert np.isnan(recalls[1])
    assert recalls[2] == 0.8
    assert average_accuracy(c) == pytest.approx(0.9, abs=1e-15)


def test_eval_report_from_confusion():
    c = np.array([[40, 10], [20, 30]])
    report = EvalReport.from_confusion(c, trainable_params=123, non_trainable_params=0, seconds=1.5)
    assert report.oa == 0.7
    assert report.samples == 100
    text = report.summary()
    assert "overall accuracy: 0.7000" in text
    assert "kappa: 0.4000" in text
    assert "class 2 accuracy: 0.6000" in text
