"""Classification metrics: confusion matrix, OA, AA, Cohen's kappa.

Conventions: confusion rows are true classes, columns predictions. AA
averages recall over the classes that actually appear in the reference
labels; kappa uses chance agreement from the row/column marginals, with the
degenerate p_e = 1 case scored 1 for perfect agreement and 0 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _require_int, _require_int_array

__all__ = [
    "confusion_matrix",
    "overall_accuracy",
    "average_accuracy",
    "per_class_accuracy",
    "cohens_kappa",
    "EvalReport",
]


def confusion_matrix(y_true, y_pred, num_classes):
    """(C, C) count matrix: entry [i, j] counts true class i predicted as j."""
    num_classes = _require_int("num_classes", num_classes, 1)
    y_true = _require_int_array("true labels", y_true, 0, num_classes - 1)
    y_pred = _require_int_array("predicted labels", y_pred, 0, num_classes - 1)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(f"label vectors must share one shape, got {y_true.shape}, {y_pred.shape}")
    if len(y_true) == 0:
        raise ValueError("cannot build a confusion matrix from zero samples")
    out = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(out, (y_true, y_pred), 1)
    return out


def _validated(confusion):
    confusion = np.asarray(confusion, dtype=np.float64)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {confusion.shape}")
    if (confusion < 0).any():
        raise ValueError("confusion entries must be nonnegative")
    if confusion.sum() == 0:
        raise ValueError("confusion matrix is empty")
    return confusion


def overall_accuracy(confusion):
    """Correct predictions over all predictions: trace / total."""
    confusion = _validated(confusion)
    return float(np.trace(confusion) / confusion.sum())


def per_class_accuracy(confusion):
    """Recall per class; NaN for classes absent from the reference labels."""
    confusion = _validated(confusion)
    totals = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return np.where(totals > 0, np.diag(confusion) / np.where(totals > 0, totals, 1), np.nan)


def average_accuracy(confusion):
    """Mean recall over the classes present in the reference labels."""
    recalls = per_class_accuracy(confusion)
    present = ~np.isnan(recalls)
    return float(recalls[present].mean())


def cohens_kappa(confusion):
    """Chance-corrected agreement (p_o - p_e) / (1 - p_e).

    Evaluated as (total * diag - marginals) / (total^2 - marginals) in exact
    integer arithmetic with a single final rounding.
    """
    confusion = _validated(confusion)
    total = int(confusion.sum())
    diag = int(np.trace(confusion))
    marginals = int((confusion.sum(axis=1) * confusion.sum(axis=0)).sum())
    denom = total * total - marginals
    if denom == 0:
        # all mass in one row and column: agreement is either perfect or absent
        return 1.0 if diag == total else 0.0
    return (total * diag - marginals) / denom


@dataclass
class EvalReport:
    """Metrics plus the census and timing context of one evaluation."""

    confusion: np.ndarray
    oa: float
    aa: float
    kappa: float
    per_class: np.ndarray
    samples: int
    trainable_params: int
    non_trainable_params: int
    seconds: float

    @classmethod
    def from_confusion(cls, confusion, **meta):
        confusion = np.asarray(confusion)
        return cls(
            confusion=confusion,
            oa=overall_accuracy(confusion),
            aa=average_accuracy(confusion),
            kappa=cohens_kappa(confusion),
            per_class=per_class_accuracy(confusion),
            samples=int(confusion.sum()),
            **meta,
        )

    def summary(self):
        lines = [
            f"samples: {self.samples}",
            f"overall accuracy: {self.oa:.4f}",
            f"average accuracy: {self.aa:.4f}",
            f"kappa: {self.kappa:.4f}",
        ]
        for idx, acc in enumerate(self.per_class):
            shown = "n/a" if np.isnan(acc) else f"{acc:.4f}"
            lines.append(f"class {idx + 1} accuracy: {shown}")
        lines.append(f"trainable parameters: {self.trainable_params}")
        lines.append(f"non-trainable parameters: {self.non_trainable_params}")
        # wall time, the one line that differs between identical runs
        lines.append(f"evaluated in {self.seconds:.2f}s")
        return "\n".join(lines)
