"""Smoothed unigram noise distribution and negative-sample drawing.

Noise probabilities are proportional to count**exponent (default 3/4).
Sampling uses an exact cumulative table with binary search, so empirical
frequencies converge to the exact probabilities with no quantization
error from a slot table.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["NoiseDistribution", "build_noise_distribution"]

_BELOW_ONE = math.nextafter(1.0, 0.0)


class NoiseDistribution:
    """Immutable categorical distribution over dense ids.

    probs[i] = counts[i]**exponent / Z.  Safe for concurrent reads; each
    caller supplies its own random generator.
    """

    def __init__(self, probs: np.ndarray, exponent: float):
        self.probs = probs
        self.exponent = exponent
        self.cumulative = np.cumsum(probs)
        # Guard against rounding drift at the top of the table.
        self.cumulative[-1] = 1.0

    def __len__(self) -> int:
        return len(self.probs)

    def sample(
        self,
        rng: np.random.Generator,
        k: int,
        exclude: int | None = None,
    ) -> np.ndarray:
        """Draw k ids i.i.d., each conditioned on being != exclude.

        Uses exactly k uniforms.  A draw that lands on the excluded id is
        moved to the conditional distribution without drawing again.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        u = rng.random(k)
        ids = np.searchsorted(self.cumulative, u, side="right")
        if exclude is not None:
            hit = ids == exclude
            if hit.any():  # cheaper than flatnonzero on the collision-free path
                for i in np.flatnonzero(hit):
                    ids[i] = self._redirect(float(u[i]), exclude)
        return ids

    def _redirect(self, u: float, exclude: int) -> int:
        """Map a uniform from the excluded id's interval onto the other ids.

        A uniform in [lo, hi), rescaled to (u - lo) / (hi - lo), is a fresh
        uniform on [0, 1).  It is spread over the remaining mass
        [0, lo) + [hi, 1) and looked up once in the table, which draws
        from the distribution conditioned on id != exclude.
        """
        cum = self.cumulative
        lo = float(cum[exclude - 1]) if exclude > 0 else 0.0
        hi = float(cum[exclude])
        rest = lo + (1.0 - hi)
        if rest <= 0.0:
            raise ValueError(
                f"id {exclude} holds all the noise mass; no other id to draw"
            )
        t = (u - lo) / (hi - lo) * rest
        # Rounding must neither land a shifted value back inside [lo, hi)
        # nor push it to 1.0, past the top of the table; when no mass lies
        # above hi, every value stays below lo.
        if t >= lo and hi < 1.0:
            t = min(max(t + (hi - lo), hi), _BELOW_ONE)
        else:
            t = min(t, math.nextafter(lo, 0.0))
        return int(np.searchsorted(cum, t, side="right"))


def build_noise_distribution(
    counts: np.ndarray, exponent: float = 0.75
) -> NoiseDistribution:
    """Build the smoothed unigram distribution P(i) = counts[i]**exponent / Z.

    Requires at least one positive count and exponent > 0.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if exponent <= 0:
        raise ValueError("exponent must be > 0")
    if counts.size == 0 or not (counts > 0).any():
        raise ValueError("no sampleable mass: counts are empty or all zero")
    if (counts < 0).any():
        raise ValueError("counts must be non-negative")
    powered = counts**exponent
    z = powered.sum()
    return NoiseDistribution(powered / z, exponent)
