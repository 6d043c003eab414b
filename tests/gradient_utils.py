"""Shared finite-difference machinery for gradient tests.

Analytic gradients are recovered from an update step as
(params_after - params_before) / lr, then compared against central
finite differences of the scalar objective.  Rows that appear several
times in a step (duplicate negative ids) are deduplicated first: both
the net analytic delta and the finite difference see the combined
effect of the shared row.  `compiled_phrase_step` gives the compiled
phrase step the word-list signature of the numpy one, so that both run
through the same checks.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from phrasegram import kernel

EPS = 1e-5


def compiled_phrase_step(params, current, context, negatives, lr, alpha, bank=0) -> float:
    """kernel.phrase_step with reference.phrase_step's word-list signature:
    one step through tables that hold just these phrases."""
    tables = kernel.PhraseTables(params, [current, context, *negatives], alpha, len(negatives))
    return kernel.phrase_step(tables, 0, 1, list(range(2, 2 + len(negatives))), lr, bank)


def bound_away_from_zero(params, floor: float = 0.05) -> None:
    """Push coordinates off the |x| -> 0 kink of the alpha > 1 power map,
    where central differences are ill-conditioned."""
    for _, m in params.matrices():
        m[:] = np.where(m < 0, np.minimum(m, -floor), np.maximum(m, floor))


def central_difference_row(
    objective: Callable[[], float], matrix: np.ndarray, row: int, eps: float = EPS
) -> np.ndarray:
    """Gradient of objective() with respect to matrix[row], one coordinate at a time."""
    grad = np.empty(matrix.shape[1])
    for j in range(matrix.shape[1]):
        saved = matrix[row, j]
        matrix[row, j] = saved + eps
        f_plus = objective()
        matrix[row, j] = saved - eps
        f_minus = objective()
        matrix[row, j] = saved
        grad[j] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def step_row_gradients(
    step: Callable[[], float],
    touched: Sequence[tuple[str, np.ndarray, int]],
    lr: float,
) -> dict[tuple[str, int], np.ndarray]:
    """Net per-row gradients implied by running one update step.

    touched lists (tag, matrix, row) for every row the step may write;
    duplicates collapse.  All matrices are restored afterwards.
    """
    unique: dict[tuple[str, int], np.ndarray] = {}
    before: dict[tuple[str, int], np.ndarray] = {}
    for tag, matrix, row in touched:
        key = (tag, row)
        if key not in unique:
            unique[key] = matrix
            before[key] = matrix[row].copy()
    step()
    grads = {key: (m[key[1]] - before[key]) / lr for key, m in unique.items()}
    for key, m in unique.items():
        m[key[1]] = before[key]
    return grads


def check_step_against_fd(
    step: Callable[[], float],
    objective: Callable[[], float],
    touched: Sequence[tuple[str, np.ndarray, int]],
    lr: float,
    eps: float = EPS,
) -> float:
    """Max relative error between a step's implied gradient and finite differences."""
    unique: dict[tuple[str, int], np.ndarray] = {}
    for tag, matrix, row in touched:
        unique.setdefault((tag, row), matrix)
    analytic = step_row_gradients(step, touched, lr)
    worst = 0.0
    for key, matrix in unique.items():
        numeric = central_difference_row(objective, matrix, key[1], eps)
        worst = max(worst, relative_error(analytic[key], numeric))
    return worst
