"""Training-step gradients against finite differences, the compiled
phrase_step against the numpy one in `phrasegram.reference`, window-pair
enumeration against brute force, the compiled word and phrase passes
against the per-pair numpy loops they replaced, the phrase pass's calls
of phrase_step and its one-word-phrase reduction to the word pass, and
end-to-end run properties: objective ascent, determinism, resume
fidelity, the beta = 0 reduction to the baseline mode, and that training
never imports the oracles or draws through NoiseDistribution.sample.
"""

import copy
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradient_utils import bound_away_from_zero, check_step_against_fd, compiled_phrase_step
from phrasegram.corpus import Vocab, parse_chunked_line
from phrasegram.model import (
    CheckpointData,
    Mode,
    ModelParams,
    TrainConfig,
    bank_for_offset,
    checkpoint_load,
    checkpoint_save,
    init_params,
)
from phrasegram import kernel, reference, trainer
from phrasegram.manifest import read_manifest
from phrasegram.reference import (
    _add_rows,
    phrase_objective,
    softmax_probability,
    word_objective,
    word_step,
)
from phrasegram.sampling import NoiseDistribution
from phrasegram.trainer import MappedSentence, iter_window_pairs, map_sentence, train


def rand_params(rng, vocab_size=8, dim=4, mode=Mode.COMPOSITIONAL, window=2):
    cfg = TrainConfig(dim=dim, window=window, min_count=1, mode=mode)
    params = init_params(vocab_size, cfg, rng)
    params.input_words[:] = rng.normal(scale=0.5, size=params.input_words.shape)
    for m in params.output_words + params.phrase_output_words:
        m[:] = rng.normal(scale=0.5, size=m.shape)
    return params


class TestObjectives:
    def test_word_objective_matches_manual_log_sigmoid(self):
        rng = np.random.default_rng(3)
        params = rand_params(rng)
        v = params.input_words[2]
        out = params.output_words[0]

        def ls(x):
            return float(np.log(1.0 / (1.0 + np.exp(-x))))

        expected = ls(out[5] @ v) + ls(-(out[1] @ v)) + ls(-(out[7] @ v))
        got = word_objective(params, 2, 5, [1, 7])
        assert got == pytest.approx(expected, rel=1e-12)

    def test_phrase_objective_composes_both_sides(self):
        rng = np.random.default_rng(5)
        params = rand_params(rng)
        v_p = (params.input_words[0] + params.input_words[1]) / 2.0
        ctx = (
            params.phrase_output_words[0][2] + params.phrase_output_words[0][3]
        ) / 2.0
        neg = params.phrase_output_words[0][4]

        def ls(x):
            return float(np.log(1.0 / (1.0 + np.exp(-x))))

        expected = ls(ctx @ v_p) + ls(-(neg @ v_p))
        got = phrase_objective(params, [0, 1], [2, 3], [[4]], 1.0)
        assert got == pytest.approx(expected, rel=1e-10)

    def test_softmax_sums_to_one_and_matches_naive(self):
        rng = np.random.default_rng(7)
        params = rand_params(rng, vocab_size=5)
        probs = np.array([softmax_probability(params, 2, j) for j in range(5)])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        scores = params.output_words[0] @ params.input_words[2]
        naive = np.exp(scores) / np.exp(scores).sum()
        np.testing.assert_allclose(probs, naive, rtol=1e-12)

    def test_softmax_is_shift_invariant(self):
        rng = np.random.default_rng(9)
        params = rand_params(rng, vocab_size=5)
        before = softmax_probability(params, 0, 3)
        params.input_words[0] *= 30.0  # large scores exercise the shift
        after = softmax_probability(params, 0, 3)
        assert np.isfinite(after)
        assert 0.0 <= after <= 1.0
        assert before != after  # sanity: scaling does change the distribution


class TestWordStepGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        lr = 1e-3
        for _ in range(25):
            params = rand_params(rng, vocab_size=9, dim=rng.integers(2, 6))
            center = int(rng.integers(9))
            context = int(rng.integers(9))
            negatives = rng.integers(0, 9, size=int(rng.integers(1, 5))).tolist()
            out = params.output_words[0]
            touched = [("input", params.input_words, center)] + [
                ("out", out, i) for i in [context, *negatives]
            ]
            err = check_step_against_fd(
                step=lambda: word_step(params, center, context, negatives, lr),
                objective=lambda: word_objective(params, center, context, negatives),
                touched=touched,
                lr=lr,
            )
            assert err < 1e-4

    def test_duplicate_negatives_accumulate(self):
        rng = np.random.default_rng(13)
        params = rand_params(rng)
        lr = 1e-3
        negatives = [4, 4, 4]  # all three hit the same row
        out = params.output_words[0]
        touched = [("input", params.input_words, 0), ("out", out, 2), ("out", out, 4)]
        err = check_step_against_fd(
            step=lambda: word_step(params, 0, 2, negatives, lr),
            objective=lambda: word_objective(params, 0, 2, negatives),
            touched=touched,
            lr=lr,
        )
        assert err < 1e-4

    def test_context_equal_to_a_negative_accumulates(self):
        rng = np.random.default_rng(15)
        params = rand_params(rng)
        lr = 1e-3
        out = params.output_words[0]
        touched = [("input", params.input_words, 1), ("out", out, 6), ("out", out, 3)]
        err = check_step_against_fd(
            step=lambda: word_step(params, 1, 6, [6, 3], lr),
            objective=lambda: word_objective(params, 1, 6, [6, 3]),
            touched=touched,
            lr=lr,
        )
        assert err < 1e-4

    def test_returns_pre_update_objective(self):
        rng = np.random.default_rng(17)
        params = rand_params(rng)
        before = word_objective(params, 1, 2, [3, 4])
        returned = word_step(params, 1, 2, [3, 4], lr=0.05)
        assert returned == pytest.approx(before, rel=1e-12)

    def test_repeated_steps_ascend(self):
        rng = np.random.default_rng(19)
        params = rand_params(rng)
        values = [word_step(params, 0, 5, [2, 7], lr=0.1) for _ in range(60)]
        assert values[-1] > values[0]
        assert word_objective(params, 0, 5, [2, 7]) > values[-1]

    def test_bank_argument_selects_matrix(self):
        rng = np.random.default_rng(21)
        params = rand_params(rng, mode=Mode.POSITIONAL, window=2)
        others = [m.copy() for m in params.output_words]
        word_step(params, 0, 1, [2], lr=0.1, bank=3)
        for i, saved in enumerate(others):
            if i == 3:
                assert not np.array_equal(params.output_words[i], saved)
            else:
                np.testing.assert_array_equal(params.output_words[i], saved)


class TestPhraseStepGradient:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_matches_finite_differences(self, alpha):
        rng = np.random.default_rng(23)
        lr = 1e-3
        for _ in range(15):
            params = rand_params(rng, vocab_size=10, dim=int(rng.integers(2, 5)))
            if alpha > 1.0:
                bound_away_from_zero(params)
            current = rng.integers(0, 10, size=int(rng.integers(1, 5))).tolist()
            context = rng.integers(0, 10, size=int(rng.integers(1, 5))).tolist()
            candidates = [
                rng.integers(0, 10, size=int(rng.integers(1, 5))).tolist()
                for _ in range(int(rng.integers(1, 4)))
            ]
            negs, step = compiled_phrase_step(params, current, context, candidates, alpha, rng)
            pout = params.phrase_output_words[0]
            touched = [("input", params.input_words, w) for w in current]
            for ws in [context, *negs]:
                touched += [("pout", pout, w) for w in ws]
            err = check_step_against_fd(
                step=lambda: step(lr),
                objective=lambda: phrase_objective(
                    params, current, context, negs, alpha
                ),
                touched=touched,
                lr=lr,
            )
            assert err < 1e-4

    def test_shared_word_across_phrases_accumulates(self):
        # word 5 sits in the context phrase and in every negative phrase
        rng = np.random.default_rng(29)
        params = rand_params(rng)
        bound_away_from_zero(params)
        alpha = 1.5
        lr = 1e-3
        current, context = [0, 1], [5, 2]
        negs, step = compiled_phrase_step(params, current, context, [[5, 3], [4, 5]], alpha, rng)
        pout = params.phrase_output_words[0]
        touched = [("input", params.input_words, w) for w in current]
        for ws in [context, *negs]:
            touched += [("pout", pout, w) for w in ws]
        err = check_step_against_fd(
            step=lambda: step(lr),
            objective=lambda: phrase_objective(params, current, context, negs, alpha),
            touched=touched,
            lr=lr,
        )
        assert err < 1e-4

    def test_repeated_word_inside_current_phrase(self):
        rng = np.random.default_rng(31)
        params = rand_params(rng)
        alpha = 1.0
        lr = 1e-3
        current, context = [3, 3, 7], [1]
        negs, step = compiled_phrase_step(params, current, context, [[2]], alpha, rng)
        pout = params.phrase_output_words[0]
        touched = [("input", params.input_words, w) for w in current]
        touched += [("pout", pout, w) for w in [1, 2]]
        err = check_step_against_fd(
            step=lambda: step(lr),
            objective=lambda: phrase_objective(params, current, context, negs, alpha),
            touched=touched,
            lr=lr,
        )
        assert err < 1e-4

    def test_singleton_phrases_reduce_to_word_step_bitwise(self):
        # length-1 phrases at alpha = 1 make the phrase pass identical to a
        # word-level step against the phrase output matrix
        rng = np.random.default_rng(37)
        params_a = rand_params(rng)
        params_b = params_a.copy()
        lr = 0.05
        reference.phrase_step(
            params_a, [2], [5], [[1], [7]], lr, 1.0
        )
        # run the word-level update against the cloned phrase output matrix
        params_b.output_words, saved = params_b.phrase_output_words, params_b.output_words
        word_step(params_b, 2, 5, [1, 7], lr)
        params_b.output_words = saved

        np.testing.assert_array_equal(params_a.input_words, params_b.input_words)
        np.testing.assert_array_equal(
            params_a.phrase_output_words[0], params_b.phrase_output_words[0]
        )

    def test_returns_pre_update_objective(self):
        rng = np.random.default_rng(41)
        params = rand_params(rng)
        negs, step = compiled_phrase_step(params, [0, 1], [2], [[3], [4, 5]], 1.5, rng)
        before = phrase_objective(params, [0, 1], [2], negs, 1.5)
        assert step(0.05) == pytest.approx(before, rel=1e-12)

    def test_repeated_steps_ascend(self):
        # each step draws two of [2, 3], [4] and [5, 6] as negatives
        rng = np.random.default_rng(43)
        params = rand_params(rng)
        args = ([0, 1], [2, 3], [[4], [5, 6]])
        _, step = compiled_phrase_step(params, *args, 1.0, rng)
        for _ in range(80):
            step(0.1)
        fresh = rand_params(np.random.default_rng(43))
        assert phrase_objective(params, *args, 1.0) > phrase_objective(fresh, *args, 1.0)


def bits(x):
    """The float64 bit patterns of x: tells -0.0 from 0.0, unlike ==."""
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def check_drawn_phrase_steps(data):
    """Draws whole phrase tables and steps through them, each step against
    reference.phrase_step on the expanded word lists, from equal matrices,
    with the negatives that NoiseDistribution.sample draws from a copy of
    the tables' generator.

    Few word ids, so that phrases share words and a word repeats within a
    phrase; noise tables with zero counts, over 2 to 8 phrases, so that
    negatives often equal the context or each other and draws often land
    on the current phrase; a context phrase that may equal the current one;
    0 to 12 negative phrases, which leave every remainder of the kernel's
    three-row scoring blocks; dims on and off the kernel's four lanes;
    positional banks, to check that the bank is the one named; and
    matrices with -0.0 entries and columns: -0.0 is the one value the
    composition's -0.0 start leaves as it is and a 0.0 start does not, and
    a -0.0 column reaches every delta.  Up to three steps run through one
    set of tables, which reuse their scratch, and leave the generator in
    the state the draws of the copy leave it in.
    """
    vocab_size = data.draw(st.integers(1, 6), label="vocab_size")
    phrase = st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=4)
    inventory = data.draw(st.lists(phrase, min_size=2, max_size=8), label="inventory")
    counts = data.draw(
        st.lists(st.integers(0, 4), min_size=len(inventory), max_size=len(inventory)).filter(
            lambda c: np.count_nonzero(c) >= 2  # else one phrase holds all the mass
        ),
        label="counts",
    )
    noise = trainer.build_noise_distribution(np.array(counts))
    k = data.draw(st.integers(0, 12), label="k")
    dim = data.draw(st.one_of(st.integers(1, 9), st.sampled_from([100, 101])), label="dim")
    alpha = data.draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]), label="alpha")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    params = rand_params(rng, vocab_size=vocab_size, dim=dim, mode=Mode.COMPOSITIONAL_POSITIONAL)
    density = data.draw(st.sampled_from([0.0, 0.3]), label="density")
    column = data.draw(st.one_of(st.none(), st.integers(0, dim - 1)), label="column")
    for _, m in params.matrices():
        m[rng.random(m.shape) < density] = -0.0
        if column is not None:
            m[:, column] = -0.0
    replay = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="stream"))
    stream = copy.deepcopy(replay)
    tables = kernel.PhraseTables(params, inventory, noise, stream, alpha, k)
    ids = st.integers(0, len(inventory) - 1)
    for step in range(data.draw(st.integers(1, 3), label="steps")):
        current = data.draw(ids, label=f"current {step}")
        context = data.draw(st.one_of(st.just(current), ids), label=f"context {step}")
        negatives = noise.sample(replay, k, exclude=current) if k else []
        lr = data.draw(st.sampled_from([0.0, 0.025, 0.5]), label=f"lr {step}")
        bank = data.draw(st.integers(0, len(params.phrase_output_words) - 1), label=f"bank {step}")
        want = params.copy()
        got = kernel.phrase_step(tables, current, context, lr, bank)
        expected = reference.phrase_step(
            want, inventory[current], inventory[context], [inventory[g] for g in negatives],
            lr, alpha, bank,
        )
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)
        for (name, m), (_, r) in zip(params.matrices(), want.matrices()):
            np.testing.assert_allclose(m, r, rtol=1e-12, atol=1e-15, err_msg=name)
        assert stream.bit_generator.state == replay.bit_generator.state


def spoil_matrix(params, which, how):
    """Replaces the input matrix or phrase output bank 1 by one the kernel cannot update."""
    banks = params.phrase_output_words
    m = params.input_words if which == "input" else banks[1]
    spoiled = {
        "read-only": lambda: m.copy(),
        "non-contiguous": lambda: np.repeat(m, 2, axis=1)[:, ::2],
        "float32": lambda: m.astype(np.float32),
        "more-columns": lambda: np.zeros((m.shape[0], m.shape[1] + 1)),
        "fewer-rows": lambda: m[:-1].copy(),
    }[how]()
    if how == "read-only":
        spoiled.flags.writeable = False
    if which == "input":
        params.input_words = spoiled
    else:
        banks[1] = spoiled


def assert_bitwise_unchanged(params, before):
    for (name, m), (_, r) in zip(params.matrices(), before.matrices()):
        np.testing.assert_array_equal(bits(m), bits(r), err_msg=name)


class TestPhraseTables:
    """kernel.PhraseTables rejects, at construction, what is fixed for the run."""

    @pytest.mark.parametrize("empty", [0, 2, 3])
    def test_empty_phrase_rejected(self, empty):
        params = rand_params(np.random.default_rng(89))
        before = params.copy()
        phrases = [list(ws) for ws in PHRASES]
        phrases[empty] = []
        with pytest.raises(ValueError, match=f"^phrase {empty} is empty: cannot compose an empty phrase$"):
            kernel.PhraseTables(params, phrases, PHRASE_NOISE, np.random.default_rng(1), 1.0, 2)
        assert_bitwise_unchanged(params, before)

    @pytest.mark.parametrize("phrase, bad", [(0, -1), (0, 8), (1, 8), (3, -3), (3, 99)])
    def test_component_id_out_of_range_rejected(self, phrase, bad):
        params = rand_params(np.random.default_rng(97), mode=Mode.COMPOSITIONAL_POSITIONAL)
        before = params.copy()
        phrases = [list(ws) for ws in PHRASES]
        phrases[phrase].append(bad)
        with pytest.raises(
            ValueError, match=f"^phrase {phrase} has component id {bad}, out of range for 8 rows$"
        ):
            kernel.PhraseTables(params, phrases, PHRASE_NOISE, np.random.default_rng(1), 1.5, 2)
        assert_bitwise_unchanged(params, before)

    @pytest.mark.parametrize("how", ["read-only", "non-contiguous", "float32", "more-columns", "fewer-rows"])
    @pytest.mark.parametrize("which", ["input", "bank"])
    def test_matrix_the_kernel_cannot_update_in_place_rejected(self, which, how):
        params = rand_params(np.random.default_rng(103), mode=Mode.COMPOSITIONAL_POSITIONAL)
        spoil_matrix(params, which, how)
        before = params.copy()
        name = "phrase output bank 1" if which == "bank" else "input matrix"
        if which == "input" and how in ("more-columns", "fewer-rows"):
            name = "phrase output bank 0"  # the first matrix not of the input's shape
        with pytest.raises(
            ValueError, match=f"^{name}: the training kernel updates writable C-contiguous float64"
        ):
            kernel.PhraseTables(params, PHRASES, PHRASE_NOISE, np.random.default_rng(1), 1.0, 2)
        assert_bitwise_unchanged(params, before)

    def test_noise_table_of_wrong_length_rejected(self):
        params = rand_params(np.random.default_rng(107))
        noise = trainer.build_noise_distribution(np.array([5, 4, 3, 2, 1]))
        with pytest.raises(ValueError, match="^noise table has 5 ids for 4 phrases$"):
            kernel.PhraseTables(params, PHRASES, noise, np.random.default_rng(1), 1.0, 2)

    def test_id_holding_all_noise_mass_rejected_before_any_draw(self):
        # Each step excludes its current phrase from the draws, which must then
        # leave some mass; the tables check every phrase once, so no step fails.
        params = rand_params(np.random.default_rng(109))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        noise = trainer.build_noise_distribution(np.array([0, 0, 7, 0]))
        with pytest.raises(ValueError, match=r"^id 2 holds all the noise mass"):
            kernel.PhraseTables(params, PHRASES, noise, rng, 1.0, 2)
        assert rng.bit_generator.state == state


class TestCompiledPhraseStep:
    """kernel.phrase_step through prepared tables: against reference.phrase_step,
    and its per-call checks, which raise before any draw or write."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_reference(self, data):
        check_drawn_phrase_steps(data)

    def _tables(self, seed, alpha=1.5):
        params = rand_params(np.random.default_rng(seed), mode=Mode.COMPOSITIONAL_POSITIONAL)
        rng = np.random.default_rng(seed)
        return params, rng, kernel.PhraseTables(params, PHRASES, PHRASE_NOISE, rng, alpha, 2)

    @pytest.mark.parametrize("where, bad", [("current", -1), ("current", 4), ("context", 4)])
    def test_phrase_id_out_of_range_raises_before_any_write(self, where, bad):
        params, rng, tables = self._tables(97)
        before, state = params.copy(), rng.bit_generator.state
        ids = {"current": 0, "context": 1}
        ids[where] = bad
        with pytest.raises(ValueError, match=f"^phrase id {bad} is out of range for 4 phrases$"):
            kernel.phrase_step(tables, ids["current"], ids["context"], 0.1, 1)
        assert_bitwise_unchanged(params, before)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("bank", [-1, 4, 5])
    def test_bank_out_of_range_raises_before_any_write(self, bank):
        params, rng, tables = self._tables(101, alpha=1.0)
        before, state = params.copy(), rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^bank {bank} is out of range for 4 phrase output banks$"):
            kernel.phrase_step(tables, 0, 2, 0.1, bank)
        assert_bitwise_unchanged(params, before)
        assert rng.bit_generator.state == state

    def test_waits_for_the_generators_lock(self):
        # numpy's Generator methods hold bit_generator.lock while they draw; the
        # step must too, or a second thread's draws interleave with its own, and
        # the lock guards the tables' scratch as well.
        free, _, free_tables = self._tables(109)
        want = kernel.phrase_step(free_tables, 0, 2, 0.1, 1)
        params, rng, tables = self._tables(109)
        got = []
        with rng.bit_generator.lock:
            thread = threading.Thread(
                target=lambda: got.append(kernel.phrase_step(tables, 0, 2, 0.1, 1))
            )
            thread.start()
            thread.join(0.2)
            assert thread.is_alive() and got == []
        thread.join(30)
        assert not thread.is_alive()
        assert got == [want]
        for (name, m), (_, r) in zip(params.matrices(), free.matrices()):
            np.testing.assert_array_equal(m, r, err_msg=name)


class TestAddRows:
    def test_repeated_rows_accumulate_in_index_order(self):
        rng = np.random.default_rng(83)
        matrix = rng.normal(size=(5, 7))
        rows = np.array([3, 1, 3, 3, 0, 1])
        deltas = rng.normal(size=(len(rows), 7)) * 10.0 ** rng.integers(-8, 8, size=(len(rows), 1))
        expected = matrix.copy()
        for r, delta in zip(rows, deltas):
            expected[r] += delta
        _add_rows(matrix, rows, deltas)
        np.testing.assert_array_equal(bits(matrix), bits(expected))

    @pytest.mark.parametrize("view", ["columns", "fortran", "transposed"])
    def test_raises_on_a_matrix_without_a_flat_view(self, view):
        base = np.arange(24.0).reshape(4, 6)
        matrix = {
            "columns": base[:, ::2],
            "fortran": np.asfortranarray(base),
            "transposed": base.T,
        }[view]
        before = matrix.copy()
        with pytest.raises(ValueError, match="not C-contiguous"):
            _add_rows(matrix, np.array([0, 1]), np.ones((2, matrix.shape[1])))
        np.testing.assert_array_equal(matrix, before)


class TestWindowPairs:
    def test_simple_window(self):
        pairs = list(iter_window_pairs([10, 11, 12], window=1))
        assert pairs == [(0, 1, 1), (1, 0, -1), (1, 2, 1), (2, 1, -1)]

    def test_holes_keep_positions(self):
        # the hole blocks window-1 contact but still occupies a position
        assert list(iter_window_pairs([10, -1, 12], window=1)) == []
        assert list(iter_window_pairs([10, -1, 12], window=2)) == [
            (0, 2, 2),
            (2, 0, -2),
        ]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            ids = [int(x) if x >= 0 else -1 for x in rng.integers(-3, 9, size=n)]
            window = int(rng.integers(1, 5))
            expected = [
                (t, u, u - t)
                for t in range(n)
                for u in range(n)
                if t != u and abs(u - t) <= window and ids[t] >= 0 and ids[u] >= 0
            ]
            assert list(iter_window_pairs(ids, window)) == expected

    def test_empty_and_all_holes(self):
        assert list(iter_window_pairs([], 3)) == []
        assert list(iter_window_pairs([-1, -1], 3)) == []


class TestMapSentence:
    def test_words_and_phrases(self):
        vocab = Vocab(["the", "cat", "sat"], [5, 4, 3])
        from phrasegram.corpus import PhraseVocab

        pv = PhraseVocab([((0, 1), "NP")], [2])
        sent = parse_chunked_line("[NP the cat] sat [NP the unicorn]")
        mapped = map_sentence(sent, vocab, pv)
        assert mapped.word_ids == [0, 1, 2, 0, -1]
        assert mapped.phrase_ids == [0, -1, -1]

    def test_without_phrase_vocab(self):
        vocab = Vocab(["a"], [2])
        mapped = map_sentence(parse_chunked_line("a b"), vocab, None)
        assert mapped.word_ids == [0, -1]
        assert mapped.phrase_ids == [-1, -1]


class ReferenceWordPass:
    """The per-pair loop the kernel's word pass replaced: the oracle.

    Takes kernel.WordPass's arguments and is called the same way.  A call
    makes one scalar subsampling draw per in-vocab token when there is a
    keep table, then runs iter_window_pairs -> NoiseDistribution.sample ->
    word_step.
    """

    def __init__(self, inp, banks, noise, keep, rng, k, window, positional):
        self.params = ModelParams(inp, banks)
        self.noise, self.keep, self.rng = noise, keep, rng
        self.k, self.window, self.positional = k, window, positional

    def __call__(self, ids, lr):
        if self.keep is not None:
            ids = [w if w >= 0 and self.rng.random() < self.keep[w] else -1 for w in ids]
        ew, n_w = 0.0, 0
        for t, u, off in iter_window_pairs(ids, self.window):
            negs = self.noise.sample(self.rng, self.k, exclude=ids[t])
            bank = bank_for_offset(off, self.window, self.positional)
            ew += word_step(self.params, ids[t], ids[u], negs, lr, bank)
            n_w += 1
        return ew, n_w


class ReferencePhrasePass:
    """The per-pair loop the phrase pass stands for: the oracle.

    Takes trainer.PhrasePass's arguments and is called the same way.  A
    call runs iter_window_pairs -> NoiseDistribution.sample ->
    reference.phrase_step, one draw per pair, at lr * beta in the bank of
    the pair's offset.
    """

    def __init__(self, params, noise, components, rng, k, window, positional, alpha, beta):
        self.params, self.noise, self.components, self.rng = params, noise, components, rng
        self.k, self.window, self.positional = k, window, positional
        self.alpha, self.beta = alpha, beta

    def __call__(self, phrase_ids, lr):
        comps = self.components
        ep, n_p = 0.0, 0
        for t, u, off in iter_window_pairs(phrase_ids, self.window):
            negs = self.noise.sample(self.rng, self.k, exclude=phrase_ids[t])
            ep += reference.phrase_step(
                self.params, comps[phrase_ids[t]], comps[phrase_ids[u]], [comps[g] for g in negs],
                lr * self.beta, self.alpha, bank_for_offset(off, self.window, self.positional),
            )
            n_p += 1
        return ep, n_p


PHRASES = [(0, 1), (2,), (1, 1, 0), (2, 0)]  # components over word ids 0..2
PHRASE_NOISE = trainer.build_noise_distribution(np.array([5, 4, 3, 2]))


def run_against_reference(
    mode, vocab_size, sentences, alpha=1.0, subsample=0.0, seed=51, dim=4, counts=None,
    window=2, k=3, beta=1.0,
):
    """kernel.WordPass then trainer.PhrasePass, as in train(), against
    ReferenceWordPass then ReferencePhrasePass, on copies of one model,
    sentence by sentence.

    After each sentence every matrix must agree to rtol 1e-12,
    atol 1e-15, the returns must agree, and both RNG streams must be in the
    same state.  `counts` are the word counts behind the noise table, by
    default a gentle slope from 3 * vocab_size down.
    """
    rng = np.random.default_rng(seed)
    params = rand_params(rng, vocab_size=vocab_size, dim=dim, mode=mode, window=window)
    if counts is None:
        counts = list(range(3 * vocab_size, 2 * vocab_size, -1))
    vocab = Vocab([f"w{i}" for i in range(len(counts))], counts)
    keep = trainer._subsample_keep_prob(vocab, subsample) if subsample else None
    word_noise = trainer.build_noise_distribution(vocab.counts)
    def prepare(word_pass, phrase_pass_class, p):
        word_rng, phrase_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 2)
        phrase_pass = trainer._no_phrase_pass
        if mode.compositional and beta > 0:
            phrase_pass = phrase_pass_class(
                p, PHRASE_NOISE, PHRASES, phrase_rng, 2, window, mode.positional, alpha, beta
            )
        words = word_pass(
            p.input_words, p.output_words, word_noise, keep, word_rng, k, window, mode.positional
        )
        return words, phrase_pass, (word_rng, phrase_rng)

    ref_params = params.copy()
    words, phrases, rngs = prepare(kernel.WordPass, trainer.PhrasePass, params)
    ref_words, ref_phrases, ref_rngs = prepare(ReferenceWordPass, ReferencePhrasePass, ref_params)
    for mapped in sentences:
        got = (*words(mapped.word_ids, 0.05), *phrases(mapped.phrase_ids, 0.05))
        want = (*ref_words(mapped.word_ids, 0.05), *ref_phrases(mapped.phrase_ids, 0.05))
        assert got[1::2] == want[1::2]
        assert got[0::2] == pytest.approx(want[0::2], rel=1e-12, abs=1e-15)
        for (name, m), (_, r) in zip(params.matrices(), ref_params.matrices()):
            np.testing.assert_allclose(m, r, rtol=1e-12, atol=1e-15, err_msg=name)
        for a, b in zip(rngs, ref_rngs):
            assert a.bit_generator.state == b.bit_generator.state


def random_sentences(rng, vocab_size, count=12):
    """Sentences with holes (-1) in both the word and the phrase sequence."""
    return [
        MappedSentence(
            [int(x) for x in rng.integers(-1, vocab_size, size=n)],
            [int(x) for x in rng.integers(-1, len(PHRASES), size=n // 2)],
        )
        for n in rng.integers(0, 12, size=count)
    ]


class TestWordPassPairSelection:
    """Pair order, banks and negatives of the kernel's word pass, against the reference loop."""

    def test_word_pass_visits_window_pairs_in_order(self):
        # Visiting the same pairs in another order applies the same steps in
        # another sequence, which moves the matrices far beyond the tolerance.
        sentences = [MappedSentence([3, 1, -1, 2, 4, 0], [-1] * 6)] * 3
        run_against_reference(Mode.BASELINE, 6, sentences)

    def test_positional_banks_follow_offsets(self):
        sentences = [MappedSentence([0, 1, 2, -1, 3], [-1] * 5)] * 3
        run_against_reference(Mode.POSITIONAL, 6, sentences)

    def test_negatives_exclude_center(self):
        # With two words every draw that lands on the center is redirected
        # to the other word; a negative equal to the center would diverge.
        run_against_reference(Mode.BASELINE, 2, [MappedSentence([0, 1, 0, 1, 0], [])] * 40)


class TestWordPassMatchesReference:
    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("vocab_size", [3, 9])
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("subsample", [0.0, 0.02])
    def test_matches_per_pair_loop(self, mode, vocab_size, alpha, subsample):
        sentences = random_sentences(np.random.default_rng(61), vocab_size)
        run_against_reference(mode, vocab_size, sentences, alpha, subsample)

    @pytest.mark.parametrize("dim", [1, 3, 101])
    @pytest.mark.parametrize("mode", [Mode.BASELINE, Mode.COMPOSITIONAL_POSITIONAL])
    def test_dims_off_the_dot_lanes(self, mode, dim):
        # the kernel's dot sums 4 lanes and then dim % 4 tail terms
        sentences = random_sentences(np.random.default_rng(67), 9)
        run_against_reference(mode, 9, sentences, dim=dim)

    @pytest.mark.parametrize("dim", [1, 3, 101])
    @pytest.mark.parametrize("k", [7, 8, 20])
    def test_many_negatives_over_three_words(self, k, dim):
        # k + 1 rows leave each remainder of the kernel's scoring blocks, and
        # over 3 words the context and the negatives repeat within a step
        sentences = random_sentences(np.random.default_rng(89), 3)
        run_against_reference(Mode.POSITIONAL, 3, sentences, dim=dim, k=k)

    def test_zipf_vocabulary(self):
        # ~300 cells in the noise table's guide, heavy ids spanning many
        rng = np.random.default_rng(71)
        vocab_size = 300
        counts = np.round(3000 / np.arange(1, vocab_size + 1) ** 0.9).astype(int)
        p = counts / counts.sum()
        sentences = []
        for n in rng.integers(0, 30, size=12):
            words = rng.choice(vocab_size, n, p=p)
            words[rng.random(n) < 0.1] = -1  # holes
            sentences.append(MappedSentence([int(w) for w in words], []))
        run_against_reference(Mode.POSITIONAL, vocab_size, sentences, subsample=0.01, counts=counts)

    def test_gradient_suite_instances(self):
        # rand_params with its defaults, as the gradient checks use it
        for seed in range(5):
            sentences = random_sentences(np.random.default_rng(seed), 8)
            run_against_reference(Mode.COMPOSITIONAL, 8, sentences, seed=100 + seed)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_pair_loop_on_drawn_runs(self, data):
        check_drawn_passes(data)


def check_drawn_passes(data):
    """run_against_reference on drawn sentences, modes, tables and sizes."""
    vocab_size = data.draw(st.integers(3, 12), label="vocab_size")
    word = st.integers(-1, vocab_size - 1)  # holes and, from so few ids, repeats
    phrase = st.integers(-1, len(PHRASES) - 1)
    sentences = data.draw(
        st.lists(
            st.builds(
                MappedSentence,
                st.one_of(st.lists(word, min_size=1, max_size=1), st.lists(word, max_size=14)),
                st.lists(phrase, max_size=6),
            ),
            min_size=1,
            max_size=5,
        ),
        label="sentences",
    )
    run_against_reference(
        data.draw(st.sampled_from(list(Mode)), label="mode"),
        vocab_size,
        sentences,
        alpha=data.draw(st.sampled_from([1.0, 1.5, 3.0]), label="alpha"),
        subsample=data.draw(st.sampled_from([0.0, 0.02]), label="subsample"),
        seed=data.draw(st.integers(0, 2**16), label="seed"),
        dim=data.draw(st.one_of(st.integers(1, 9), st.just(101)), label="dim"),
        counts=data.draw(
            st.lists(st.integers(1, 60), min_size=vocab_size, max_size=vocab_size),
            label="counts",
        ),
        window=data.draw(st.integers(1, 5), label="window"),
        k=data.draw(st.integers(1, 12), label="k"),
        beta=data.draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]), label="beta"),
    )


class TestPhrasePass:
    def test_hands_phrase_step_its_pairs_banks_and_rate(self):
        # Window 1 over two retained phrases: (2 -> 0, offset +1), then
        # (0 -> 2, offset -1), each applied by hand as the pass must apply it.
        params = rand_params(np.random.default_rng(73), mode=Mode.COMPOSITIONAL_POSITIONAL, window=1)
        expected = params.copy()
        rng = np.random.default_rng(79)
        clone = copy.deepcopy(rng)
        lr, beta, k, alpha = 0.05, 2.0, 5, 1.5
        tables = kernel.PhraseTables(expected, PHRASES, PHRASE_NOISE, clone, alpha, k)
        want = 0.0
        for center, context, offset in ((2, 0, 1), (0, 2, -1)):
            want += kernel.phrase_step(tables, center, context, lr * beta, bank_for_offset(offset, 1, True))
        phrase_pass = trainer.PhrasePass(params, PHRASE_NOISE, PHRASES, rng, k, 1, True, alpha, beta)
        assert phrase_pass([2, 0], lr) == (want, 2)
        for (name, m), (_, r) in zip(params.matrices(), expected.matrices()):
            np.testing.assert_array_equal(m, r, err_msg=name)
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_steps_through_trainer_phrase_step_once_per_pair(self, monkeypatch):
        # Tracing tools wrap trainer.phrase_step, so the pass must look it up there.
        params = rand_params(np.random.default_rng(83), mode=Mode.COMPOSITIONAL_POSITIONAL)
        phrase_pass = trainer.PhrasePass(
            params, PHRASE_NOISE, PHRASES, np.random.default_rng(1), 2, 2, True, 1.0, 1.0
        )
        calls = []

        def counted(*args):
            calls.append(args[1:3])
            return kernel.phrase_step(*args)

        monkeypatch.setattr(trainer, "phrase_step", counted)
        assert phrase_pass([1, -1, 3, 0], 0.05)[1] == 4
        assert calls == [(1, 3), (3, 1), (3, 0), (0, 3)]

    @pytest.mark.parametrize("positional", [False, True])
    def test_one_word_phrases_at_alpha_one_are_the_word_pass(self, positional):
        # Phrase w = (w,) composes to row w itself at alpha 1, so over the phrase
        # output banks the phrase pass is the word pass, bit for bit, as long as
        # it draws the same negatives from the same uniforms in the same order.
        vocab, window, k = 7, 2, 4
        mode = Mode.COMPOSITIONAL_POSITIONAL if positional else Mode.COMPOSITIONAL
        params = rand_params(np.random.default_rng(127), vocab_size=vocab, mode=mode, window=window)
        inp, banks = params.input_words.copy(), [m.copy() for m in params.phrase_output_words]
        noise = trainer.build_noise_distribution(np.arange(vocab, 0, -1))
        phrase_pass = trainer.PhrasePass(
            params, noise, [(w,) for w in range(vocab)], np.random.default_rng(3), k, window,
            positional, 1.0, 1.0,
        )
        word_pass = kernel.WordPass(inp, banks, noise, None, np.random.default_rng(3), k, window, positional)
        for sentence in random_sentences(np.random.default_rng(131), vocab):
            assert phrase_pass(sentence.word_ids, 0.05) == word_pass(sentence.word_ids, 0.05)
        np.testing.assert_array_equal(bits(params.input_words), bits(inp))
        for got, want in zip(params.phrase_output_words, banks):
            np.testing.assert_array_equal(bits(got), bits(want))


class TestTrainEndToEnd:
    def _write_corpus(self, path, n_sentences=80, seed=61):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(8)]
        lines = []
        for _ in range(n_sentences):
            toks = list(rng.choice(words, size=7))
            lines.append(
                f"[NP {toks[0]} {toks[1]}] {toks[2]} [VP {toks[3]} {toks[4]}] "
                f"{toks[5]} {toks[6]}"
            )
        path.write_text("\n".join(lines) + "\n")

    def _config(self, **kw):
        base = dict(
            dim=6, window=2, min_count=1, phrase_min_count=1, epochs=2,
            word_negatives=3, phrase_negatives=2, seed=5, lr_start=0.05,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_objective_improves_across_epochs(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        result = train(corpus, self._config(epochs=4, mode=Mode.COMPOSITIONAL))
        stats = result.report.epochs
        assert len(stats) == 4
        assert stats[-1].mean_ew > stats[0].mean_ew
        assert stats[-1].mean_ep > stats[0].mean_ep
        assert stats[0].phrase_steps > 0

    def test_training_draws_through_the_kernel_only(self, tmp_path, monkeypatch):
        # NoiseDistribution.sample is the tests' oracle: both passes draw their
        # negatives in the kernel.
        def refuse(*args, **kwargs):
            raise AssertionError("training called NoiseDistribution.sample")

        monkeypatch.setattr(NoiseDistribution, "sample", refuse)
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        result = train(corpus, self._config(mode=Mode.COMPOSITIONAL_POSITIONAL, beta=0.5))
        assert all(e.phrase_steps > 0 for e in result.report.epochs)

    def test_phrase_pass_learns_at_alpha_above_one(self, tmp_path):
        # The power map's Jacobian is 0 at 0 when alpha > 1, so zero phrase
        # banks would be a fixed point: no phrase gradient would ever move
        # the banks or the input rows, and E_p would stay at (1 + k) ln 1/2.
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        cfg = self._config(epochs=3, mode=Mode.COMPOSITIONAL, alpha=1.5)
        joint = train(corpus, cfg)
        words_only = train(corpus, self._config(epochs=3, mode=Mode.COMPOSITIONAL, alpha=1.5, beta=0.0))
        assert not np.array_equal(joint.params.input_words, words_only.params.input_words)
        last = joint.report.epochs[-1]
        assert last.phrase_steps > 0
        assert last.mean_ep != pytest.approx((1 + cfg.phrase_negatives) * np.log(0.5), abs=1e-6)

    def test_single_worker_is_deterministic(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        a = train(corpus, self._config(mode=Mode.COMPOSITIONAL))
        b = train(corpus, self._config(mode=Mode.COMPOSITIONAL))
        for (_, ma), (_, mb) in zip(a.params.matrices(), b.params.matrices()):
            np.testing.assert_array_equal(ma, mb)
        assert a.state_dict == b.state_dict

    @pytest.mark.parametrize("mode", list(Mode))
    def test_epochs_match_per_pair_loop(self, tmp_path, monkeypatch, mode):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        cfg = self._config(mode=mode, alpha=1.5, subsample=0.01)
        got = train(corpus, cfg)
        monkeypatch.setattr(kernel, "WordPass", ReferenceWordPass)
        monkeypatch.setattr(trainer, "PhrasePass", ReferencePhrasePass)
        want = train(corpus, cfg)
        for (name, m), (_, r) in zip(got.params.matrices(), want.params.matrices()):
            np.testing.assert_allclose(m, r, rtol=1e-12, atol=1e-15, err_msg=name)
        assert got.state_dict == want.state_dict
        for a, b in zip(got.report.epochs, want.report.epochs):
            assert (a.word_steps, a.phrase_steps) == (b.word_steps, b.phrase_steps)
            assert a.mean_ew == pytest.approx(b.mean_ew, rel=1e-12)
            assert a.mean_ep == pytest.approx(b.mean_ep, rel=1e-12)

    def test_non_finite_parameter_names_matrix_and_row(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        # beta = 0: the phrase output matrices are never trained, so the
        # poisoned row stays the only bad one
        cfg = self._config(mode=Mode.COMPOSITIONAL, beta=0.0)
        half = train(corpus, cfg, stop_after_epoch=1)
        half.params.phrase_output_words[0][3, 1] = np.inf
        ckpt = tmp_path / "poisoned.ckpt"
        checkpoint_save(
            ckpt, half.params, cfg, half.vocab, half.phrase_vocab, half.state_dict
        )
        with pytest.raises(
            RuntimeError, match=r"^non-finite parameter in phrase_output:0 row 3 after epoch 1$"
        ):
            train(corpus, cfg, start=checkpoint_load(ckpt))

    def test_different_seeds_differ(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        a = train(corpus, self._config(seed=1))
        b = train(corpus, self._config(seed=2))
        assert not np.array_equal(a.params.input_words, b.params.input_words)

    def test_beta_zero_equals_baseline_bitwise(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        base = train(corpus, self._config(mode=Mode.BASELINE))
        ablated = train(corpus, self._config(mode=Mode.COMPOSITIONAL, beta=0.0))
        np.testing.assert_array_equal(
            base.params.input_words, ablated.params.input_words
        )
        np.testing.assert_array_equal(
            base.params.output_words[0], ablated.params.output_words[0]
        )
        # the ablated run's phrase matrices were never touched
        assert np.all(ablated.params.phrase_output_words[0] == 0.0)

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        cfg = self._config(epochs=4, mode=Mode.COMPOSITIONAL)

        full = train(corpus, cfg)
        half = train(corpus, cfg, stop_after_epoch=2)
        ckpt_path = tmp_path / "half.ckpt"
        checkpoint_save(
            ckpt_path, half.params, cfg, half.vocab, half.phrase_vocab,
            half.state_dict,
        )
        resumed = train(corpus, cfg, start=checkpoint_load(ckpt_path))

        assert len(half.report.epochs) == 2
        assert len(resumed.report.epochs) == 2
        for (_, mf), (_, mr) in zip(
            full.params.matrices(), resumed.params.matrices()
        ):
            np.testing.assert_array_equal(mf, mr)
        assert full.state_dict == resumed.state_dict

    def test_epochs_zero_keeps_initial_params(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        cfg = self._config(epochs=0)
        result = train(corpus, cfg)
        init_rng, word_rng, phrase_rng = trainer._seed_streams(cfg.seed)
        fresh = init_params(len(result.vocab), cfg, init_rng)
        np.testing.assert_array_equal(result.params.input_words, fresh.input_words)
        assert result.state_dict == trainer.TrainingState(word_rng, phrase_rng).to_dict()
        assert result.report.epochs == []

    def test_tokens_processed_counts_in_vocab_tokens(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        cfg = self._config(epochs=2)
        result = train(corpus, cfg)
        assert result.state_dict["tokens_processed"] == 2 * result.vocab.total_tokens

    def test_missing_corpus_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="No such file or directory"):
            train(tmp_path / "nope.txt", self._config())

    @pytest.mark.parametrize("kind", ["fifo", "device"])
    def test_corpus_that_is_not_a_regular_file_raises_at_once(self, tmp_path, kind):
        if kind == "fifo":
            corpus = tmp_path / "fifo"
            os.mkfifo(corpus)  # no writer: opening it would block
        else:
            corpus = Path(os.devnull)
        raised = []

        def run():
            try:
                train(corpus, self._config())
            except ValueError as exc:
                raised.append(str(exc))

        runner = threading.Thread(target=run, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert raised == [f"{corpus}: the corpus must be a regular file, because training reads it more than once"]

    def test_empty_vocab_raises(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("rare words only\n")
        with pytest.raises(ValueError, match="min_count"):
            train(corpus, self._config(min_count=5))

    def test_resume_with_changed_config_raises(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        cfg = self._config(epochs=2)
        half = train(corpus, cfg, stop_after_epoch=1)
        other = self._config(epochs=2, lr_start=0.9)
        data = CheckpointData(
            half.params, cfg, half.vocab, half.phrase_vocab, half.state_dict
        )
        with pytest.raises(ValueError, match="config"):
            train(corpus, other, start=data)

    def test_resume_on_another_corpus_raises_before_training(self, tmp_path):
        # Same 8 words, 10x the tokens: the checkpoint's vocabulary maps every
        # token, but its lr budget and resume state count the 300.
        words = [f"w{i}" for i in range(8)]
        rng = np.random.default_rng(83)
        for name, lines in (("short", 30), ("long", 300)):
            text = [" ".join(words[:2] + list(rng.choice(words, size=8))) for _ in range(lines)]
            (tmp_path / f"{name}.txt").write_text("\n".join(text) + "\n")
        cfg = self._config(epochs=2, mode=Mode.BASELINE)
        half = train(tmp_path / "short.txt", cfg, stop_after_epoch=1)
        assert half.vocab.total_tokens == 300 and len(half.vocab) == 8
        ckpt = tmp_path / "half.ckpt"
        checkpoint_save(ckpt, half.params, cfg, half.vocab, None, half.state_dict)
        data = checkpoint_load(ckpt)
        saved = data.params.copy()
        with pytest.raises(ValueError, match=r"holds 3000 in-vocabulary tokens, .* trained on 300;"):
            train(tmp_path / "long.txt", cfg, start=data)
        for (name, m), (_, r) in zip(data.params.matrices(), saved.matrices()):
            np.testing.assert_array_equal(m, r, err_msg=name)

    def test_resume_without_state_raises(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        cfg = self._config()
        done = train(corpus, cfg)
        data = CheckpointData(done.params, cfg, done.vocab, done.phrase_vocab, None)
        with pytest.raises(ValueError, match="state"):
            train(corpus, cfg, start=data)

    def test_no_multiword_chunks_skips_phrase_pass(self, tmp_path):
        corpus = tmp_path / "c.txt"
        # no phrase at all, then a single phrase: negative sampling needs 2
        for line in ("w0 w1 w2 w3", "[NP w0 w1] w2 [NP w0 w1] w3"):
            corpus.write_text("\n".join([line] * 30) + "\n")
            result = train(corpus, self._config(mode=Mode.COMPOSITIONAL))
            assert all(s.phrase_steps == 0 for s in result.report.epochs)
            assert np.all(result.params.phrase_output_words[0] == 0.0)

    def test_state_dict_keeps_one_workers_entry(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        result = train(corpus, self._config(mode=Mode.COMPOSITIONAL))
        assert result.params.first_non_finite() is None
        assert len(result.state_dict["workers"]) == 1

    def test_subsampling_drops_frequent_tokens(self, tmp_path):
        corpus = tmp_path / "c.txt"
        # one word dominates; aggressive subsampling must reduce its updates
        lines = [("w0 " * 9 + "w1").strip() for _ in range(40)]
        corpus.write_text("\n".join(lines) + "\n")
        dense = train(corpus, self._config(epochs=1))
        sparse = train(corpus, self._config(epochs=1, subsample=1e-3))
        assert sparse.report.epochs[0].word_steps < dense.report.epochs[0].word_steps


class TestRngStateRoundTrip:
    def test_serialized_states_resume_identically(self):
        state = trainer.TrainingState(*trainer._seed_streams(9)[1:])
        state.epoch, state.tokens_processed = 1, 42
        restored = trainer.TrainingState.from_dict(state.to_dict(), epochs=1, total_tokens=42)
        np.testing.assert_array_equal(
            state.word_rng.random(20), restored.word_rng.random(20)
        )
        np.testing.assert_array_equal(
            state.phrase_rng.random(20), restored.phrase_rng.random(20)
        )
        assert restored.epoch == 1
        assert restored.tokens_processed == 42

    def test_worker_streams_are_distinct(self):
        # A fresh run draws init_params, words and phrases from children 0, 1
        # and 2 of SeedSequence(seed); v1 checkpoints store the last two as
        # worker 0.
        streams = trainer._seed_streams(9)
        children = np.random.SeedSequence(9).spawn(3)
        for rng, child in zip(streams, children):
            expected = np.random.Generator(np.random.PCG64(child)).random(10)
            np.testing.assert_array_equal(rng.random(10), expected)
        draws = [rng.random(10) for rng in streams]
        assert len({d.tobytes() for d in draws}) == 3

    def test_worker_count_mismatch_rejected(self):
        snapshot = trainer.TrainingState(*trainer._seed_streams(0)[1:]).to_dict()
        snapshot["workers"] = snapshot["workers"] * 2
        with pytest.raises(ValueError, match="workers"):
            trainer.TrainingState.from_dict(snapshot, epochs=1, total_tokens=42)


class TestSubsampleKeepProb:
    def test_formula(self):
        vocab = Vocab(["a", "b"], [990, 10])
        keep = trainer._subsample_keep_prob(vocab, 1e-2)
        f = 0.99
        t = 1e-2
        expected_a = (np.sqrt(f / t) + 1.0) * (t / f)
        assert keep[0] == pytest.approx(expected_a, rel=1e-12)
        # at f = t the raw value is 2, so the rare word caps at certainty
        assert keep[1] == 1.0

    def test_monotone_in_frequency(self):
        vocab = Vocab(["a", "b", "c"], [1000, 100, 10])
        keep = trainer._subsample_keep_prob(vocab, 1e-3)
        assert keep[0] < keep[1] < keep[2] <= 1.0


def test_training_never_imports_the_oracles(tmp_path):
    """A compositional CLI run trains both passes without loading reference.py."""
    corpus = tmp_path / "c.txt"
    corpus.write_text("[NP a b] [NP b c] a\n[NP b c] [NP a b] c\n")
    script = (
        "import sys; from phrasegram.cli import main; "
        "assert main(sys.argv[1:]) == 0; print('phrasegram.reference' in sys.modules)"
    )
    argv = ["train", str(corpus), "--out", str(tmp_path / "m.ckpt"), "--mode", "compositional",
            "--min-count", "1", "--phrase-min-count", "1", "--dim", "4", "--window", "1"]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": str(Path(kernel.__file__).resolve().parents[1])},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert int(read_manifest(tmp_path / "m.ckpt.manifest")["report.0.phrase_steps"]) > 0
    assert proc.stdout.split()[-1] == "False"
