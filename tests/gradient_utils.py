"""Shared finite-difference machinery for gradient tests.

Analytic gradients are recovered from an update step as
(params_after - params_before) / lr, then compared against central
finite differences of the scalar objective.  Rows that appear several
times in a step (duplicate negative ids) are deduplicated first: both
the net analytic delta and the finite difference see the combined
effect of the shared row.  `compiled_phrase_step` prepares the compiled
phrase step on word lists, as the numpy one takes them, and says which
negatives it will draw, so that both run through the same checks.
"""

from __future__ import annotations

import copy
from typing import Callable, Sequence

import numpy as np

from phrasegram import kernel
from phrasegram.sampling import build_noise_distribution

EPS = 1e-5


def compiled_phrase_step(params, current, context, candidates, alpha, rng, bank=0):
    """kernel.phrase_step on word lists: tables that hold the phrases
    current, context and candidates, under uniform noise, whose steps draw
    len(candidates) negative phrases from rng, excluding current.

    Returns the word lists of the negatives that the first step draws,
    replayed through NoiseDistribution.sample on a copy of rng, and the
    step as a function of the learning rate.
    """
    inventory = [current, context, *candidates]
    noise = build_noise_distribution(np.ones(len(inventory)))
    drawn = noise.sample(copy.deepcopy(rng), len(candidates), exclude=0)
    tables = kernel.PhraseTables(params, inventory, noise, rng, alpha, len(candidates))
    return [inventory[g] for g in drawn], lambda lr: kernel.phrase_step(tables, 0, 1, lr, bank)


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
