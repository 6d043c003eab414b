"""Phrase composition: uniform combination of power-transformed word vectors.

A phrase vector is built from its component word vectors by applying a
sign-preserving elementwise power map to each word vector and then taking
the uniform (1/n) weighted sum.  With exponent 1 this reduces to the
arithmetic mean of the word vectors.

The exact elementwise derivative of the power map is exposed so that
training code can propagate gradients through the composition without
numerical approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CompositionConfig",
    "sigma",
    "sigma_jacobian_diag",
    "compose_rows",
]


@dataclass(frozen=True)
class CompositionConfig:
    """How phrase vectors are built from component word vectors.

    alpha: exponent of the elementwise power map; must be >= 1.
    """

    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha < 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")


def sigma(v: np.ndarray, alpha: float) -> np.ndarray:
    """Sign-preserving power map sign(x) * |x|**alpha, elementwise.

    alpha = 1 is exactly the identity.  Odd in v for every alpha.
    Returns a new array.
    """
    v = np.asarray(v, dtype=np.float64)
    if alpha == 1.0:
        return v.copy()
    return np.sign(v) * np.abs(v) ** alpha


def sigma_jacobian_diag(v: np.ndarray, alpha: float) -> np.ndarray:
    """Diagonal of the Jacobian of sigma at v, as a vector.

    Multiplying a vector elementwise by the result applies the Jacobian.
    At 0 the derivative is 1 when alpha = 1 (identity map) and 0 when
    alpha > 1 (the true one-sided derivative).
    """
    v = np.asarray(v, dtype=np.float64)
    if alpha == 1.0:
        return np.ones_like(v)
    return alpha * np.abs(v) ** (alpha - 1.0)


def compose_rows(matrix: np.ndarray, ids: Sequence[int], alpha: float) -> np.ndarray:
    """Compose a phrase vector from rows of an embedding matrix.

    Each row is passed through sigma and weighted 1/n; the sum runs left
    to right in a fixed order, so results are reproducible bitwise.
    """
    n = len(ids)
    if n == 0:
        raise ValueError("cannot compose an empty phrase")
    w = 1.0 / n
    acc = w * sigma(matrix[ids[0]], alpha)
    for i in range(1, n):
        acc += w * sigma(matrix[ids[i]], alpha)
    return acc
