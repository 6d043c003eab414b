"""Evaluation math: Spearman correlation against an independent
reference, 3CosAdd analogy against brute force, composed-phrase scoring,
and the dataset file loaders.
"""

import numpy as np
import pytest
import scipy.stats

from phrasegram.composition import CompositionConfig
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

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine(np.ones(3), np.ones(4))


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

    def test_constant_input_rejected(self):
        with pytest.raises(EvaluationError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_too_short_rejected(self):
        with pytest.raises(EvaluationError, match="two"):
            spearman([1.0], [2.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])


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


class TestAnalogyEval:
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

    def test_phrase_loader_rejects_bad_field_count(self, tmp_path):
        path = tmp_path / "ph.tsv"
        path.write_text("a\tb\t5.0\n")
        with pytest.raises(ValueError, match="4 tab-separated"):
            load_phrase_dataset(path)
