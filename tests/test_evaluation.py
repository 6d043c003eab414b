"""Evaluation math: Spearman correlation against an independent
reference, 3CosAdd analogy against brute force, the kernel's exact top k
against its numpy oracle, composed-phrase scoring, and the dataset file
loaders.
"""

import math
import re
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from phrasegram import evaluation, reference
from phrasegram.composition import CompositionConfig
from phrasegram.corpus import RepeatedKeyError
from phrasegram.evaluation import (
    AnalogyQuestion,
    EvaluationError,
    PhraseCompositionItem,
    SimilarityPair,
    WordEmbeddings,
    analogy_eval,
    cosine,
    load_analogy_dataset,
    load_phrase_dataset,
    load_similarity_dataset,
    phrase_similarity_eval,
    spearman,
    word_similarity_eval,
)

# spearman of [1,2,2,3,5] vs [3,1,1,2,4] is exactly 7/19 (tied ranks averaged)
TIED_CASE_RHO = 7.0 / 19.0


class TestCosine:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, -3.0])
        assert cosine(v, v) == 1.0

    def test_orthogonal_vectors(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == 0.0

    def test_opposite_vectors(self):
        v = np.array([0.3, -0.7, 2.0])
        assert cosine(v, -v) == -1.0

    def test_result_is_clamped(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.normal(size=5) * 10.0 ** rng.integers(-3, 4)
            assert -1.0 <= cosine(v, 1.7 * v) <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            cosine(np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("bad", [[np.inf, 0.0], [np.nan, 1.0], [1e200, 1e200]], ids=["inf", "nan", "overflow"])
    def test_non_finite_vector_rejected_without_a_warning(self, bad):
        # A norm that overflows is infinite: no direction, and no RuntimeWarning from np.dot.
        for u, v in [(bad, [1.0, 0.0]), ([1.0, 0.0], bad)]:
            with pytest.raises(ValueError, match="^cosine undefined for a zero or non-finite vector$"):
                cosine(np.array(u), np.array(v))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine(np.ones(3), np.ones(4))


def loop_average_ranks(xs):
    """Ranks 1..n by a stable sort, each run of equal values sharing (first + last) / 2 + 1."""
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(len(xs))
    i = 0
    while i < len(xs):
        j = i
        while j + 1 < len(xs) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestSpearman:
    def test_frozen_tied_case(self):
        got = spearman([1.0, 2.0, 2.0, 3.0, 5.0], [3.0, 1.0, 1.0, 2.0, 4.0])
        assert got == pytest.approx(TIED_CASE_RHO, abs=1e-15)

    def test_perfect_and_inverted(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert spearman(xs, [10.0, 20.0, 30.0, 40.0]) == pytest.approx(1.0)
        assert spearman(xs, [4.0, 3.0, 2.0, 1.0]) == pytest.approx(-1.0)

    def test_matches_reference_on_tie_heavy_data(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            # coarse grids force plenty of ties
            xs = rng.integers(0, 6, size=n).astype(float)
            ys = xs + rng.integers(-2, 3, size=n)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            expected = scipy.stats.spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_matches_reference_on_continuous_data(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(3, 40))
            xs = rng.normal(size=n)
            ys = rng.normal(size=n)
            expected = scipy.stats.spearmanr(xs, ys).statistic
            assert spearman(xs, ys) == pytest.approx(expected, abs=1e-12)

    def test_bitwise_equal_to_the_sort_and_scan_ranks(self):
        # spearman ranks with np.unique; the loop it replaced is the reference,
        # with -0.0 and 0.0 tied, on tie-heavy data at several scales.
        rng = np.random.default_rng(29)
        for case in range(300):
            n = int(rng.integers(2, 50))
            xs = rng.integers(-3, 4, size=n) * [1.0, 0.5, 1e-3, -1e6][case % 4]
            xs[rng.random(n) < 0.1] = -0.0
            ys = xs + rng.integers(-2, 3, size=n)
            rx, ry = loop_average_ranks(xs), loop_average_ranks(ys)
            dx, dy = rx - rx.mean(), ry - ry.mean()
            sx, sy = np.sqrt(np.dot(dx, dx)), np.sqrt(np.dot(dy, dy))
            if sx == 0.0 or sy == 0.0:
                continue
            assert spearman(xs, ys) == float(np.dot(dx, dy) / (sx * sy))

    def test_constant_input_rejected(self):
        with pytest.raises(EvaluationError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(EvaluationError, match="two"):
            spearman([1.0], [2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, bad):
        # A NaN would rank above every value, and rho would come out as if it were one.
        with pytest.raises(ValueError, match="finite"):
            spearman([bad, 1.0, 2.0, 3.0], [4.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            spearman([4.0, 1.0, 2.0, 3.0], [1.0, 2.0, bad, 3.0])


def toy_embeddings(lowercased=False):
    words = ["king", "queen", "man", "woman", "apple"]
    matrix = np.array(
        [
            [1.0, 1.0, 0.0],
            [1.0, 0.9, 0.1],
            [0.9, 1.0, -0.1],
            [1.0, 1.1, 0.0],
            [-1.0, 0.2, 3.0],
        ]
    )
    return WordEmbeddings(words, matrix, lowercased=lowercased)


class TestWordEmbeddings:
    def test_lookup_and_membership(self):
        emb = toy_embeddings()
        assert "king" in emb and "unicorn" not in emb
        np.testing.assert_array_equal(emb.get("queen"), emb.matrix[1])
        assert emb.get("unicorn") is None

    def test_lowercase_folding(self):
        emb = toy_embeddings(lowercased=True)
        assert "KING" in emb
        np.testing.assert_array_equal(emb.get("King"), emb.matrix[0])
        assert "KING" not in toy_embeddings(lowercased=False)

    def test_lowercased_lookup_folds_the_stored_words(self):
        emb = WordEmbeddings(["Cat", "dog"], np.eye(2), lowercased=True)
        assert "Cat" in emb and "cat" in emb and emb.id_of("CAT") == 0
        assert emb.words == ["Cat", "dog"]
        assert "cat" not in WordEmbeddings(["Cat", "dog"], np.eye(2))

    def test_words_that_fold_alike_are_repeated(self):
        with pytest.raises(RepeatedKeyError, match=r"^word 'cat' is repeated: ids 0 and 2$") as info:
            WordEmbeddings(["Cat", "dog", "cat"], np.eye(3), lowercased=True)
        assert info.value.ids == (0, 2)
        assert len(WordEmbeddings(["Cat", "dog", "cat"], np.eye(3))) == 3

    def test_repeated_word_rejected(self):
        # The first repeat is named: b at id 2, before a at id 3.
        with pytest.raises(RepeatedKeyError, match=r"^word 'b' is repeated: ids 1 and 2$") as info:
            WordEmbeddings(["a", "b", "b", "a"], np.eye(4))
        assert info.value.ids == (1, 2)

    def test_unit_matrix_rows_have_norm_one(self):
        unit = toy_embeddings().unit_matrix()
        np.testing.assert_allclose(np.linalg.norm(unit, axis=1), 1.0, rtol=1e-12)

    def test_unit_matrix_keeps_zero_rows(self):
        emb = WordEmbeddings(["a", "b"], np.array([[1.0, 0.0], [0.0, 0.0]]))
        unit = emb.unit_matrix()
        np.testing.assert_array_equal(unit[1], np.zeros(2))

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row count"):
            WordEmbeddings(["a"], np.zeros((2, 3)))

    def test_unit_matrix_is_computed_once_and_read_only(self):
        matrix = np.random.default_rng(5).normal(size=(6, 3))
        matrix[2] = 0.0
        emb = WordEmbeddings([f"w{i}" for i in range(6)], matrix)
        unit = emb.unit_matrix()
        assert emb.unit_matrix() is unit
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        expected = matrix / np.where(norms == 0.0, 1.0, norms)
        np.testing.assert_array_equal(unit.view(np.uint64), expected.view(np.uint64))
        assert not unit.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            unit[0, 0] = 1.0

    def test_non_finite_rows_found_with_the_unit_matrix(self):
        matrix = np.ones((6, 3))
        matrix[1, 2], matrix[3, 0] = np.nan, -np.inf
        matrix[4] = 1e300  # its norm overflows, but it normalizes to zeros
        emb = WordEmbeddings([f"w{i}" for i in range(6)], matrix)
        with np.errstate(over="ignore"):
            unit = emb.unit_matrix()
        np.testing.assert_array_equal(emb.non_finite_rows(), [1, 3])
        assert np.isfinite(unit).all(axis=1).tolist() == [True, False, True, False, True, True]

    def test_float32_unit_matrix_is_built_once_and_read_only(self):
        matrix = np.random.default_rng(7).normal(size=(6, 3))
        matrix[2] = 0.0
        emb = WordEmbeddings([f"w{i}" for i in range(6)], matrix)
        unit32 = emb.unit_matrix_f32()
        unit = emb.unit_matrix()
        assert emb.unit_matrix_f32() is unit32 and emb.unit_matrix() is unit
        assert unit32.dtype == np.float32
        np.testing.assert_array_equal(unit32, unit.astype(np.float32))
        assert not unit32.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            unit32[0, 0] = 1.0

    def test_matrix_is_a_read_only_view_of_the_source(self):
        source = np.ones((2, 3))
        emb = WordEmbeddings(["a", "b"], source)
        with pytest.raises(ValueError, match="read-only"):
            emb.matrix[0, 0] = 2.0
        assert np.shares_memory(emb.matrix, source)
        assert source.flags.writeable
        source[0, 0] = 2.0


class TestWordSimilarityEval:
    def test_matches_direct_computation(self):
        emb = toy_embeddings()
        dataset = [
            SimilarityPair("king", "queen", 9.0),
            SimilarityPair("king", "apple", 1.0),
            SimilarityPair("man", "woman", 8.0),
            SimilarityPair("queen", "apple", 2.0),
        ]
        rho, coverage = word_similarity_eval(emb, dataset)
        cosines = [cosine(emb.get(p.word_a), emb.get(p.word_b)) for p in dataset]
        assert rho == pytest.approx(spearman(cosines, [p.score for p in dataset]))
        assert coverage == 1.0

    def test_oov_pairs_dropped_and_counted(self):
        emb = toy_embeddings()
        dataset = [
            SimilarityPair("king", "queen", 9.0),
            SimilarityPair("king", "unicorn", 5.0),
            SimilarityPair("man", "woman", 8.0),
            SimilarityPair("griffin", "dragon", 7.0),
        ]
        rho, coverage = word_similarity_eval(emb, dataset)
        assert coverage == 0.5

    def test_all_oov_rejected(self):
        with pytest.raises(EvaluationError, match="vocabulary"):
            word_similarity_eval(toy_embeddings(), [SimilarityPair("x", "y", 1.0)])

    # 1e155: the row's norm overflows, and is dropped without a RuntimeWarning.
    @pytest.mark.parametrize("bad", [0.0, np.nan, 1e155])
    def test_pairs_without_a_cosine_dropped_and_counted(self, bad):
        emb = WordEmbeddings(["a", "b", "c", "z"], np.vstack([np.eye(3)[:, :2] + 0.5, [bad, bad]]))
        good = [SimilarityPair("a", "b", 3.0), SimilarityPair("a", "c", 2.0), SimilarityPair("b", "c", 1.0)]
        rho, coverage = word_similarity_eval(emb, good + [SimilarityPair("a", "z", 4.0)])
        assert (rho, coverage) == (word_similarity_eval(emb, good)[0], 0.75)


def orthogonal_analogy_embeddings(n_pairs=4):
    """Base words on orthogonal axes, derived words shifted by a shared
    direction: a_i : b_i :: a_j : b_j holds exactly under 3CosAdd."""
    dim = n_pairs + 1
    words, rows = [], []
    shift = np.zeros(dim)
    shift[-1] = 1.0
    for i in range(n_pairs):
        axis = np.zeros(dim)
        axis[i] = 1.0
        words.append(f"base{i}")
        rows.append(axis)
        words.append(f"shift{i}")
        rows.append(axis + shift)
    return WordEmbeddings(words, np.array(rows))


def reference_analogy_eval(embeddings, sections):
    """The per-question 3CosAdd loop: one matrix-vector product per question."""
    unit = embeddings.unit_matrix()
    per_section = {}
    total_correct = total_usable = total_questions = 0
    for name, questions in sections.items():
        correct = usable = 0
        for q in questions:
            total_questions += 1
            ids = [embeddings.word2id.get(embeddings.fold(w)) for w in (q.a, q.b, q.c)]
            expected = embeddings.word2id.get(embeddings.fold(q.expected))
            if any(i is None for i in ids) or expected is None:
                continue
            usable += 1
            ia, ib, ic = ids
            scores = unit @ (unit[ib] - unit[ia] + unit[ic])
            scores[[ia, ib, ic]] = -np.inf
            if int(np.argmax(scores)) == expected:
                correct += 1
        if usable:
            per_section[name] = correct / usable
        total_correct += correct
        total_usable += usable
    return total_correct / total_usable, per_section, total_usable / total_questions


class TestAnalogyEval:
    @pytest.mark.parametrize("block_bytes", [None, 1, 3 * 8 * 12])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_question_reference(self, monkeypatch, seed, block_bytes):
        if block_bytes is not None:
            # blocks of 1 and of 6 questions (4-byte scores of 12 rows) cross sections
            monkeypatch.setattr(evaluation, "_ANALOGY_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(12)]
        matrix = rng.normal(size=(12, 5))
        matrix[3] = 0.0
        emb = WordEmbeddings(words, matrix, lowercased=True)
        # mixed case folds to the vocabulary; "ghost" is out of it
        pool = words + [w.upper() for w in words] + ["ghost"]
        sections = {}
        for name in ("s0", "s1", "s2", "oov"):
            questions = []
            for _ in range(40):
                a, b, c, d = rng.choice(len(pool) if name == "oov" else 24, size=4)
                if rng.random() < 0.2:
                    c = a
                questions.append(AnalogyQuestion(pool[a], pool[b], pool[c], pool[d]))
            sections[name] = questions
        sections["all-oov"] = [AnalogyQuestion("ghost", "w0", "w1", "w2")]
        got = analogy_eval(emb, sections)
        want = reference_analogy_eval(emb, sections)
        assert got == want
        assert set(got[1]) == {"s0", "s1", "s2", "oov"}
        assert 0.0 < got[0] < 1.0 and got[2] < 1.0

    def test_constructed_analogies_score_perfectly(self):
        emb = orthogonal_analogy_embeddings(4)
        questions = [
            AnalogyQuestion(f"base{i}", f"shift{i}", f"base{j}", f"shift{j}")
            for i in range(4)
            for j in range(4)
            if i != j
        ]
        accuracy, sections, coverage = analogy_eval(emb, {"shifts": questions})
        assert accuracy == 1.0
        assert sections == {"shifts": 1.0}
        assert coverage == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(20)]
        emb = WordEmbeddings(words, rng.normal(size=(20, 6)))
        questions = [
            AnalogyQuestion(*(words[k] for k in rng.choice(20, size=4, replace=False)))
            for _ in range(80)
        ]
        accuracy, _, coverage = analogy_eval(emb, {"rand": questions})

        unit = emb.matrix / np.linalg.norm(emb.matrix, axis=1, keepdims=True)
        correct = 0
        for q in questions:
            ia, ib, ic = (emb.word2id[w] for w in (q.a, q.b, q.c))
            expected = emb.word2id[q.expected]
            scores = unit @ (unit[ib] - unit[ia] + unit[ic])
            best, best_score = None, -np.inf
            for i in range(20):
                if i in (ia, ib, ic):
                    continue
                if scores[i] > best_score:
                    best, best_score = i, scores[i]
            correct += best == expected
        assert coverage == 1.0
        assert accuracy == pytest.approx(correct / len(questions))

    def test_question_words_are_excluded_from_candidates(self):
        # b is the global cosine argmax of the target; the answer must
        # still be d because a, b, c are masked out
        words = ["a", "b", "c", "d"]
        matrix = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 0.1, 0.0],
                [0.0, 0.9, 0.4],
            ]
        )
        emb = WordEmbeddings(words, matrix)
        accuracy, _, _ = analogy_eval(
            emb, {"s": [AnalogyQuestion("a", "b", "c", "d")]}
        )
        assert accuracy == 1.0

    def test_non_finite_row_never_answers(self):
        # 3CosAdd on e1, e2, e3 answers (-1, 1, 1); the fifth row's NaN once
        # made argmax pick it for every question.
        matrix = np.array(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, 1.0, 1.0], [np.nan, 0.5, 0.5]]
        )
        emb = WordEmbeddings(list("abcde"), matrix)
        accuracy, _, _ = analogy_eval(emb, {"s": [AnalogyQuestion("a", "b", "c", "d")]})
        assert accuracy == 1.0
        np.testing.assert_array_equal(emb.non_finite_rows(), [4])
        # over the NaN word every other score is NaN; the first one is c's
        accuracy, _, coverage = analogy_eval(emb, {"s": [AnalogyQuestion("a", "b", "e", "c")]})
        assert (accuracy, coverage) == (0.0, 1.0)

    def test_oov_questions_dropped(self):
        emb = orthogonal_analogy_embeddings(2)
        questions = [
            AnalogyQuestion("base0", "shift0", "base1", "shift1"),
            AnalogyQuestion("base0", "shift0", "ghost", "shift1"),
        ]
        accuracy, _, coverage = analogy_eval(emb, {"s": questions})
        assert coverage == 0.5
        assert accuracy == 1.0

    def test_per_section_accuracies(self):
        emb = orthogonal_analogy_embeddings(3)
        good = AnalogyQuestion("base0", "shift0", "base1", "shift1")
        bad = AnalogyQuestion("base0", "shift0", "base1", "base2")
        accuracy, sections, _ = analogy_eval(emb, {"g": [good], "b": [bad]})
        assert sections["g"] == 1.0
        assert sections["b"] == 0.0
        assert accuracy == 0.5

    def test_all_oov_rejected(self):
        emb = orthogonal_analogy_embeddings(2)
        with pytest.raises(EvaluationError, match="vocabulary"):
            analogy_eval(emb, {"s": [AnalogyQuestion("x", "y", "z", "q")]})


def float64_scan(embeddings, a, b, c):
    """3CosAdd over every row, each score an exactly rounded float64 sum.

    Returns (answer, gap to the runner-up); the answer is the lowest row id
    of the maximum, or -1 where a question word's row is not finite or no
    row is left.
    """
    unit = embeddings.unit_matrix()
    if not np.isfinite(unit[[a, b, c]]).all():
        return -1, math.nan
    target = unit[b] - unit[a] + unit[c]
    scored = [
        (-math.fsum(row * target), i)
        for i, row in enumerate(unit)
        if i not in (a, b, c) and np.isfinite(row).all()
    ]
    if not scored:
        return -1, math.nan
    scored.sort()
    gap = scored[1][0] - scored[0][0] if len(scored) > 1 else math.inf
    return scored[0][1], gap


@st.composite
def analogy_cases(draw):
    """Small vocabularies with exact and near ties, zero and non-finite rows.

    Returns (embeddings, sections, block_rows): block_rows questions per
    scoring block, or None for the default block size.
    """
    n = draw(st.integers(1, 4) | st.integers(5, 12))
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.normal(size=(n, dim))
    kinds = ["plain"] * 3 + ["duplicate", "near-tie", "zero", "nan", "inf"]
    for i in range(n):
        kind, j = draw(st.sampled_from(kinds)), draw(st.integers(0, n - 1))
        if kind == "duplicate":
            matrix[i] = matrix[j]
        elif kind == "near-tie":
            # scores ~scale apart: inside the float32 margin, far outside float64 rounding
            scale = draw(st.sampled_from([1e-9, 1e-8, 1e-7]))
            matrix[i] = matrix[j] + scale * rng.normal(size=dim)
        elif kind == "zero":
            matrix[i] = 0.0
        elif kind in ("nan", "inf"):
            matrix[i, rng.integers(dim)] = np.nan if kind == "nan" else -np.inf
    words = [f"w{i}" for i in range(n)]
    emb = WordEmbeddings(words, matrix)
    zero_rows = np.flatnonzero(~matrix.any(axis=1))
    questions = []
    for _ in range(draw(st.integers(1, 10))):
        a, b, c = (draw(st.integers(0, n - 1)) for _ in range(3))
        if len(zero_rows) and draw(st.booleans()):
            b, c = a, int(zero_rows[0])  # b - a + c = 0
        answer, _ = float64_scan(emb, a, b, c)
        expected = answer if answer >= 0 and draw(st.booleans()) else draw(st.integers(0, n - 1))
        questions.append(AnalogyQuestion(words[a], words[b], words[c], words[expected]))
    cuts = sorted(draw(st.lists(st.integers(0, len(questions)), max_size=2)))
    bounds = [0, *cuts, len(questions)]
    sections = {f"s{k}": questions[lo:hi] for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))}
    return emb, sections, draw(st.sampled_from([None, 1, 2, 3]))


def bits(top):
    """(row id, score) pairs with each score as its exact bits, -0.0 apart from 0.0."""
    return [(i, score.hex()) for i, score in top]



def check_exact_top(emb, target, scores, drop, k, margin):
    """`kernel.ExactTop` on `emb` against `reference.exact_top`: the same rows
    and bitwise the same scores, and `drop`'s and the non-finite rows' scores
    set to -inf in the buffer it was given."""
    left_out = scores.copy()
    left_out[list(drop)] = -np.inf
    left_out[emb.non_finite_rows()] = -np.inf
    want = reference.exact_top(emb.unit_matrix(), target, left_out, k, margin)
    got = list(zip(*emb.exact_top()(scores, target, drop, k, margin)))
    assert bits(got) == bits(want)
    np.testing.assert_array_equal(scores, left_out)
    return got


def check_drawn_exact_top(data) -> None:
    """check_exact_top on drawn matrices with equal, near-equal, zero and
    non-finite rows, drawn left-out rows, scores planted one float32 step
    around the candidate threshold, margins up to 0.5 and k from 1 to past the
    rows left."""
    n = data.draw(st.integers(1, 40), label="rows")
    dim = data.draw(st.integers(1, 9), label="dim")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    matrix = rng.normal(size=(n, dim))
    for i in range(n):
        kind = data.draw(st.sampled_from(["plain"] * 3 + ["equal", "near", "zero", "nan", "inf"]))
        j = int(rng.integers(n))
        if kind == "equal":
            matrix[i] = matrix[j]
        elif kind == "near":
            matrix[i] = matrix[j] + 1e-7 * rng.normal(size=dim)
        elif kind == "zero":
            matrix[i] = 0.0
        elif kind in ("nan", "inf"):
            matrix[i, rng.integers(dim)] = np.nan if kind == "nan" else np.inf
    emb = WordEmbeddings([f"w{i}" for i in range(n)], matrix)
    target = rng.normal(size=dim)
    target /= np.linalg.norm(target)
    scores = emb.unit_matrix_f32() @ target.astype(np.float32)
    drop = data.draw(st.lists(st.integers(0, n - 1), max_size=4), label="drop")
    scores[data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="-inf")] = -np.inf
    k = data.draw(st.integers(1, n + 2) | st.just(2**62), label="k")
    margin = data.draw(
        st.sampled_from([evaluation._rescore_margin(dim, 1.0), evaluation._rescore_margin(dim, 3.0), 1e-3, 0.5]),
        label="margin",
    )
    left_out = scores.copy()
    left_out[drop] = -np.inf
    left_out[emb.non_finite_rows()] = -np.inf
    last = max(n - k, 0)
    kth = float(np.partition(left_out, last)[last])
    if kth > -np.inf:
        threshold = np.float32(max(kth - margin, float(np.finfo(np.float32).min)))
        below = np.flatnonzero((left_out > -np.inf) & (left_out < kth))
        for i in data.draw(st.lists(st.sampled_from(below.tolist()), max_size=3) if len(below) else st.just([])):
            step = data.draw(st.sampled_from([-np.inf, 0.0, np.inf]))
            scores[i] = threshold if step == 0.0 else np.nextafter(threshold, np.float32(step))
    got = check_exact_top(emb, target, scores, drop, k, margin)
    assert len(got) == min(k, int((left_out > -np.inf).sum()))


class TestExactTop:
    """`kernel.ExactTop`, and its oracle `reference.exact_top`, with every
    float32 score as far from its float64 score as the bound allows: the rows
    of the float64 top k low, all others high."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_answers_a_float64_scan_at_the_error_bound(self, k):
        n, d = 60, 100
        eps = evaluation._float32_score_error(d)
        cos = 0.5 - 0.3 * eps * np.random.default_rng(k).permutation(n)
        matrix = np.zeros((n, d))
        matrix[:, 0], matrix[:, 1] = cos, np.sqrt(1.0 - cos * cos)
        emb = WordEmbeddings([f"w{i}" for i in range(n)], matrix)
        target = np.zeros(d)
        target[0] = 1.0
        exact = np.array([math.fsum(row * target) for row in emb.unit_matrix()])
        order = np.lexsort((np.arange(n), -exact))
        error = np.full(n, 0.95 * eps)  # float32 rounding adds at most 2**-25
        error[order[:k]] *= -1.0
        scores = (exact + error).astype(np.float32)
        got = check_exact_top(emb, target, scores, [], k, evaluation._rescore_margin(d, 1.0))
        assert got == [(int(i), float(exact[i])) for i in order[:k]]

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_kernel_matches_the_oracle_bitwise(self, data):
        check_drawn_exact_top(data)

    def test_lane_order(self):
        # 1 + 2**-53 rounds to 1, so a sum in column order gives 1.  Columns 1
        # and 5 share lane 1, which holds 2**-52 for lane 0's 1; the tail
        # column 8 joins lane 0 and rounds away there (in a lane of its own it
        # would tie the total up to 1 + 2**-51).
        row = np.zeros(9)
        row[[0, 1, 5, 8]] = [1.0, 2.0**-53, 2.0**-53, 2.0**-53]
        assert reference.lane_dots(row, np.ones(9))[0] == 1.0 + 2.0**-52
        emb = WordEmbeddings(["a", "b"], np.vstack([row, np.zeros(9)]))
        got = emb.exact_top()(np.zeros(2, dtype=np.float32), np.ones(9), [], 1, 0.5)
        assert got == ([0], [1.0 + 2.0**-52])

    def test_scratch_grows_past_k_and_never_past_n(self):
        emb = WordEmbeddings([f"w{i}" for i in range(30)], np.ones((30, 3)))
        top = emb.exact_top()
        target = np.ones(3) / np.sqrt(3.0)
        rows, _ = top(np.ones(30, dtype=np.float32), target, [4], 2, 1e-6)
        assert rows == [0, 1] and top.capacity == 29  # every row but 4 a candidate
        rows, _ = top(np.ones(30, dtype=np.float32), target, [], 2**62, 1e-6)
        assert rows == list(range(30))
        assert top.capacity == 30

    def test_bad_arguments_rejected(self):
        top = toy_embeddings().exact_top()
        scores, target = np.zeros(5, dtype=np.float32), np.ones(3)
        with pytest.raises(ValueError, match="k must be positive"):
            top(scores, target, [], 0, 0.1)
        with pytest.raises(ValueError, match="out of range"):
            top(scores, target, [5], 1, 0.1)
        with pytest.raises(ValueError, match="out of range"):
            top(scores, target, [-1], 1, 0.1)
        with pytest.raises(ValueError, match="scores"):
            top(np.zeros(5), target, [], 1, 0.1)
        with pytest.raises(ValueError, match="scores"):
            top(np.zeros(4, dtype=np.float32), target, [], 1, 0.1)
        with pytest.raises(ValueError, match="target"):
            top(scores, np.ones(4), [], 1, 0.1)
        with pytest.raises(ValueError, match="target"):
            top(scores, np.ones(3, dtype=np.float32), [], 1, 0.1)


class TestAnalogyMatchesFloat64Scan:
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(analogy_cases())
    def test_same_accuracies(self, case):
        emb, sections, block_rows = case
        want_sections, correct, asked = {}, 0, 0
        for name, questions in sections.items():
            hits = 0
            for q in questions:
                a, b, c, d = (emb.word2id[w] for w in (q.a, q.b, q.c, q.expected))
                hits += float64_scan(emb, a, b, c)[0] == d
            if questions:
                want_sections[name] = hits / len(questions)
            correct, asked = correct + hits, asked + len(questions)
        block_bytes = evaluation._ANALOGY_BLOCK_BYTES if block_rows is None else block_rows * 4 * len(emb)
        with mock.patch.object(evaluation, "_ANALOGY_BLOCK_BYTES", block_bytes):
            assert analogy_eval(emb, sections) == (correct / asked, want_sections, 1.0)

    def test_strategy_reaches_every_case(self):
        # The differential test is only as good as the cases it draws.
        seen = set()

        @settings(max_examples=400, derandomize=True, deadline=None)
        @given(analogy_cases())
        def collect(case):
            emb, sections, block_rows = case
            if len(emb) <= 4:
                seen.add("vocabulary of at most 4")
            ends = np.cumsum([len(qs) for qs in sections.values()])
            if block_rows is not None and (ends[:-1] % block_rows)[ends[:-1] < ends[-1]].any():
                seen.add("block across sections")
            unit, non_finite = emb.unit_matrix(), emb.non_finite_rows()
            for q in (q for qs in sections.values() for q in qs):
                a, b, c = (emb.word2id[w] for w in (q.a, q.b, q.c))
                answer, gap = float64_scan(emb, a, b, c)
                if np.isin([a, b, c], non_finite).any():
                    seen.add("non-finite question word")
                elif answer < 0:
                    seen.add("no row left")
                elif not (unit[b] - unit[a] + unit[c]).any():
                    seen.add("zero target")
                elif gap == 0.0:
                    seen.add("exact tie")
                elif gap < 1e-6:
                    seen.add("near tie beside a non-finite row" if len(non_finite) else "near tie")

        collect()
        assert seen == {
            "vocabulary of at most 4",
            "block across sections",
            "non-finite question word",
            "no row left",
            "zero target",
            "exact tie",
            "near tie",
            "near tie beside a non-finite row",
        }


class TestPhraseSimilarityEval:
    def test_matches_manual_composition(self):
        rng = np.random.default_rng(13)
        words = ["sun", "rises", "sets", "moon", "glows"]
        emb = WordEmbeddings(words, rng.normal(size=(5, 4)))
        comp = CompositionConfig(alpha=1.0)
        dataset = [
            PhraseCompositionItem("sun", "rises", "sets", 6.0),
            PhraseCompositionItem("moon", "glows", "rises", 3.0),
            PhraseCompositionItem("sun", "sets", "glows", 1.0),
        ]
        rho, coverage = phrase_similarity_eval(emb, comp, dataset)
        model = [
            cosine(
                (emb.get(i.subject) + emb.get(i.reference_verb)) / 2,
                emb.get(i.landmark),
            )
            for i in dataset
        ]
        assert rho == pytest.approx(spearman(model, [i.rating for i in dataset]))
        assert coverage == 1.0

    def test_oov_items_dropped(self):
        rng = np.random.default_rng(17)
        emb = WordEmbeddings(["a", "b", "c"], rng.normal(size=(3, 4)))
        dataset = [
            PhraseCompositionItem("a", "b", "c", 5.0),
            PhraseCompositionItem("a", "zzz", "c", 4.0),
            PhraseCompositionItem("b", "c", "a", 2.0),
        ]
        rho, coverage = phrase_similarity_eval(
            emb, CompositionConfig(), dataset
        )
        assert coverage == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("bad", [0.0, np.nan, 1e155])
    def test_items_without_a_cosine_dropped_and_counted(self, bad):
        rng = np.random.default_rng(23)
        emb = WordEmbeddings(["a", "b", "c", "d", "z"], np.vstack([rng.normal(size=(4, 3)), [bad, bad, bad]]))
        good = [
            PhraseCompositionItem("a", "b", "c", 5.0),
            PhraseCompositionItem("b", "c", "d", 3.0),
            PhraseCompositionItem("c", "d", "a", 1.0),
        ]
        rho, coverage = phrase_similarity_eval(emb, CompositionConfig(), good + [PhraseCompositionItem("a", "b", "z", 4.0)])
        assert (rho, coverage) == (phrase_similarity_eval(emb, CompositionConfig(), good)[0], 0.75)

    def test_alpha_changes_the_score(self):
        rng = np.random.default_rng(19)
        emb = WordEmbeddings(
            [f"w{i}" for i in range(8)], rng.normal(size=(8, 5)) + 0.3
        )
        dataset = [
            PhraseCompositionItem(f"w{i}", f"w{i+1}", f"w{i+2}", float(i))
            for i in range(6)
        ]
        rho1, _ = phrase_similarity_eval(emb, CompositionConfig(alpha=1.0), dataset)
        rho2, _ = phrase_similarity_eval(emb, CompositionConfig(alpha=2.0), dataset)
        assert rho1 != rho2


class TestLoaders:
    def test_similarity_loader(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("# comment line\nking\tqueen\t8.5\n\nman\twoman\t7\n")
        pairs = load_similarity_dataset(path)
        assert pairs == [
            SimilarityPair("king", "queen", 8.5),
            SimilarityPair("man", "woman", 7.0),
        ]

    def test_similarity_loader_rejects_bad_field_count(self, tmp_path):
        path = tmp_path / "sim.tsv"
        path.write_text("king\tqueen\n")
        with pytest.raises(ValueError, match="3 tab-separated"):
            load_similarity_dataset(path)

    def test_analogy_loader_sections(self, tmp_path):
        path = tmp_path / "an.txt"
        path.write_text(
            ": capital-common\nathens greece oslo norway\n"
            ": family\nboy girl king queen\nman woman king queen\n"
        )
        sections = load_analogy_dataset(path)
        assert list(sections) == ["capital-common", "family"]
        assert sections["capital-common"] == [
            AnalogyQuestion("athens", "greece", "oslo", "norway")
        ]
        assert len(sections["family"]) == 2

    def test_analogy_loader_default_section(self, tmp_path):
        path = tmp_path / "an.txt"
        path.write_text("a b c d\n")
        assert list(load_analogy_dataset(path)) == ["default"]

    def test_analogy_loader_rejects_bad_word_count(self, tmp_path):
        path = tmp_path / "an.txt"
        path.write_text("a b c\n")
        with pytest.raises(ValueError, match="4 words"):
            load_analogy_dataset(path)

    def test_phrase_loader(self, tmp_path):
        path = tmp_path / "ph.tsv"
        path.write_text("# header\nfire\tglow\tburn\t6.2\nchild\tstray\troam\t5\n")
        items = load_phrase_dataset(path)
        assert items[0] == PhraseCompositionItem("fire", "glow", "burn", 6.2)
        assert items[1].rating == 5.0

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-Infinity", "1e999"])
    def test_loaders_reject_non_finite_scores(self, tmp_path, value):
        # spearman ranks a NaN above every score, so one would skew rho silently
        sim, phrase = tmp_path / "sim.tsv", tmp_path / "ph.tsv"
        sim.write_text(f"a\tb\t1\nc\td\t{value}\n")
        phrase.write_text(f"a\tb\tc\t{value}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(sim))}:2: score is not finite: '{value}'$"):
            load_similarity_dataset(sim)
        with pytest.raises(ValueError, match=f"^{re.escape(str(phrase))}:1: rating is not finite: '{value}'$"):
            load_phrase_dataset(phrase)

    def test_phrase_loader_rejects_bad_field_count(self, tmp_path):
        path = tmp_path / "ph.tsv"
        path.write_text("a\tb\t5.0\n")
        with pytest.raises(ValueError, match="4 tab-separated"):
            load_phrase_dataset(path)
