"""Noise-distribution correctness: exact probabilities, inverse-CDF
mapping, exclusion semantics, and statistical agreement of draws.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phrasegram.sampling import build_noise_distribution

# frozen 40-digit mpmath evaluation of c**0.75 / sum for counts [2, 3, 7]
PROBS_2_3_7 = [
    0.20348821262821672712,
    0.27580853496276414567,
    0.52070325240901912721,
]


class ScriptedRng:
    """Stands in for a Generator; returns pre-scripted uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, k):
        out, self.values = self.values[:k], self.values[k:]
        assert len(out) == k, "script exhausted"
        return np.array(out)


class TestProbabilities:
    def test_counts_1_16_exact(self):
        # 16**0.75 is exactly 8 in binary floating point
        dist = build_noise_distribution(np.array([1, 16]))
        np.testing.assert_array_equal(dist.probs, np.array([1.0 / 9.0, 8.0 / 9.0]))

    def test_counts_2_3_7_frozen(self):
        dist = build_noise_distribution(np.array([2, 3, 7]))
        np.testing.assert_allclose(dist.probs, PROBS_2_3_7, rtol=1e-15)

    def test_exponent_one_is_plain_frequency(self):
        dist = build_noise_distribution(np.array([1, 3]), exponent=1.0)
        np.testing.assert_allclose(dist.probs, [0.25, 0.75], rtol=1e-15)

    def test_cumulative_ends_at_exactly_one(self):
        rng = np.random.default_rng(3)
        counts = rng.integers(1, 1000, size=50)
        dist = build_noise_distribution(counts)
        assert dist.cumulative[-1] == 1.0
        assert np.all(np.diff(dist.cumulative) >= 0)

    def test_zero_count_gets_zero_probability(self):
        dist = build_noise_distribution(np.array([5, 0, 5]))
        assert dist.probs[1] == 0.0

    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=40))
    def test_probabilities_form_a_distribution(self, counts):
        dist = build_noise_distribution(np.array(counts))
        assert np.all(dist.probs >= 0)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestInverseCdfMapping:
    def test_scripted_uniforms_map_through_cumulative(self):
        dist = build_noise_distribution(np.array([1, 16]))
        # cumulative = [1/9, 1.0]
        rng = ScriptedRng([0.0, 0.11, 0.1112, 0.999])
        np.testing.assert_array_equal(dist.sample(rng, 4), [0, 0, 1, 1])

    def test_boundary_value_goes_right(self):
        dist = build_noise_distribution(np.array([1, 16]))
        boundary = dist.cumulative[0]
        assert dist.sample(ScriptedRng([boundary]), 1)[0] == 1

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(5)
        dist = build_noise_distribution(rng.integers(1, 50, size=12))
        us = rng.random(500)
        got = dist.sample(ScriptedRng(us.tolist()), 500)
        for u, idx in zip(us, got):
            expected = next(i for i, c in enumerate(dist.cumulative) if u < c)
            assert idx == expected

    def test_zero_probability_id_never_drawn(self):
        dist = build_noise_distribution(np.array([5, 0, 5]))
        draws = dist.sample(np.random.default_rng(7), 20000)
        assert not np.any(draws == 1)


def below(x):
    return float(np.nextafter(x, 0.0))


def conditional_oracle(dist, u, exclude):
    """Rescale u out of the excluded interval and scan the table with that
    interval removed, built explicitly."""
    cum = dist.cumulative
    lo = cum[exclude - 1] if exclude > 0 else 0.0
    hi = cum[exclude]
    if not lo <= u < hi:
        return next(i for i, c in enumerate(cum) if u < c)
    rest = np.concatenate([cum[:exclude], cum[exclude + 1 :] - (hi - lo)])
    t = (u - lo) / (hi - lo) * (lo + 1.0 - hi)
    j = next(i for i, c in enumerate(rest) if t < c)
    return j + (j >= exclude)


class TestExclusion:
    def test_excluded_id_never_returned(self):
        dist = build_noise_distribution(np.array([5, 3, 2]))
        rng = np.random.default_rng(11)
        for _ in range(50):
            draws = dist.sample(rng, 20, exclude=0)
            assert not np.any(draws == 0)

    def test_two_items_exclusion_forces_the_other(self):
        dist = build_noise_distribution(np.array([3, 5]))
        draws = dist.sample(np.random.default_rng(13), 200, exclude=1)
        np.testing.assert_array_equal(draws, np.zeros(200, dtype=draws.dtype))

    def test_single_item_with_exclusion_raises(self):
        dist = build_noise_distribution(np.array([4]))
        with pytest.raises(ValueError, match="all the noise mass"):
            dist.sample(np.random.default_rng(17), 1, exclude=0)

    def test_excluded_id_holding_all_mass_raises(self):
        dist = build_noise_distribution(np.array([0, 4, 0]))
        with pytest.raises(ValueError, match="all the noise mass"):
            dist.sample(np.random.default_rng(17), 3, exclude=1)

    def test_collision_draws_no_further_uniforms(self):
        dist = build_noise_distribution(np.array([1, 16]))
        # the uniform hits id 1 (excluded); the script holds no second one
        rng = ScriptedRng([0.5])
        assert dist.sample(rng, 1, exclude=1)[0] == 0
        assert rng.values == []

    # Exponent 1 and power-of-two masses keep every table entry and every
    # rescaled uniform exact, so each boundary below is hit exactly.  The
    # excluded id holds half the mass: first, in the middle, and last.
    @pytest.mark.parametrize(
        "counts, exclude, script",
        [
            (
                [4, 1, 1, 2],  # cumulative [0.5, 0.625, 0.75, 1]
                0,
                [(0.0, 1), (0.0625, 1), (0.125, 2), (0.25, 3), (below(0.5), 3),
                 (0.5, 1), (0.9, 3)],
            ),
            (
                [1, 4, 1, 2],  # cumulative [0.125, 0.625, 0.75, 1]
                1,
                [(0.125, 0), (below(0.25), 0), (0.25, 2), (0.375, 3),
                 (below(0.625), 3), (0.0, 0), (0.7, 2)],
            ),
            (
                [2, 1, 1, 4],  # cumulative [0.25, 0.375, 0.5, 1]
                3,
                [(0.5, 0), (0.75, 1), (0.875, 2), (below(1.0), 2),
                 (0.1, 0), (0.4, 2)],
            ),
        ],
        ids=["first", "middle", "last"],
    )
    def test_scripted_collisions_map_exactly(self, counts, exclude, script):
        dist = build_noise_distribution(np.array(counts), exponent=1.0)
        uniforms, expected = zip(*script)
        rng = ScriptedRng(uniforms)
        got = dist.sample(rng, len(uniforms), exclude=exclude)
        np.testing.assert_array_equal(got, expected)
        assert rng.values == []
        assert [conditional_oracle(dist, u, exclude) for u in uniforms] == list(expected)

    def test_collisions_match_conditional_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            counts = rng.integers(0, 50, size=9)
            counts[rng.integers(9)] = 400  # a heavy id, often excluded
            dist = build_noise_distribution(counts)
            for exclude in np.flatnonzero(counts):
                us = rng.random(200)
                got = dist.sample(ScriptedRng(us.tolist()), 200, exclude=int(exclude))
                assert not np.any(got == exclude)
                assert np.all(counts[got] > 0)
                oracle = [conditional_oracle(dist, u, exclude) for u in us]
                np.testing.assert_array_equal(got, oracle)

    def test_skewed_pair_always_returns_the_other_id(self):
        # the phrase counts of the 295/5 skewed-corpus regression
        dist = build_noise_distribution(np.array([295, 5]))
        draws = dist.sample(np.random.default_rng(25), 10000, exclude=0)
        np.testing.assert_array_equal(draws, np.ones(10000, dtype=draws.dtype))


class TestStatistics:
    def test_empirical_frequencies_track_probabilities(self):
        dist = build_noise_distribution(np.array([2, 3, 7, 20]))
        draws = dist.sample(np.random.default_rng(19), 100000)
        freq = np.bincount(draws, minlength=4) / len(draws)
        np.testing.assert_allclose(freq, dist.probs, atol=0.02)

    def test_excluded_frequencies_track_conditional_probabilities(self):
        counts = np.array([2, 3, 7, 20])
        dist = build_noise_distribution(counts)
        rng = np.random.default_rng(27)
        for exclude in range(len(counts)):
            draws = dist.sample(rng, 100000, exclude=exclude)
            freq = np.bincount(draws, minlength=4) / len(draws)
            conditional = dist.probs.copy()
            conditional[exclude] = 0.0
            conditional /= conditional.sum()
            np.testing.assert_allclose(freq, conditional, atol=0.01)

    def test_same_seed_same_draws(self):
        dist = build_noise_distribution(np.array([1, 2, 3, 4]))
        a = dist.sample(np.random.default_rng(23), 1000)
        b = dist.sample(np.random.default_rng(23), 1000)
        np.testing.assert_array_equal(a, b)


class TestValidation:
    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            build_noise_distribution(np.array([]))

    def test_all_zero_counts_rejected(self):
        with pytest.raises(ValueError, match="mass"):
            build_noise_distribution(np.zeros(3))

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_noise_distribution(np.array([2, -1]))

    def test_nonpositive_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            build_noise_distribution(np.array([1, 2]), exponent=0.0)

    def test_k_below_one_rejected(self):
        dist = build_noise_distribution(np.array([1, 2]))
        with pytest.raises(ValueError, match="k"):
            dist.sample(np.random.default_rng(29), 0)

    def test_length_reports_vocab_size(self):
        assert len(build_noise_distribution(np.array([1, 2, 3]))) == 3
