"""Training-step gradients against finite differences, window-pair
enumeration against brute force, and end-to-end run properties:
objective ascent, determinism, resume fidelity, and the beta = 0
reduction to the baseline mode.
"""

import numpy as np
import pytest

from gradient_utils import bound_away_from_zero, check_step_against_fd
from phrasegram.composition import CompositionConfig
from phrasegram.corpus import Vocab, parse_chunked_line
from phrasegram.model import (
    CheckpointData,
    Mode,
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    init_params,
)
from phrasegram import trainer
from phrasegram.trainer import (
    MappedSentence,
    TrainingState,
    iter_window_pairs,
    map_sentence,
    phrase_objective,
    phrase_step,
    softmax_probability,
    train,
    train_sentence,
    word_objective,
    word_step,
)


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
        comp = CompositionConfig(alpha=1.0)
        v_p = (params.input_words[0] + params.input_words[1]) / 2.0
        ctx = (
            params.phrase_output_words[0][2] + params.phrase_output_words[0][3]
        ) / 2.0
        neg = params.phrase_output_words[0][4]

        def ls(x):
            return float(np.log(1.0 / (1.0 + np.exp(-x))))

        expected = ls(ctx @ v_p) + ls(-(neg @ v_p))
        got = phrase_objective(params, [0, 1], [2, 3], [[4]], comp)
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
        comp = CompositionConfig(alpha=alpha)
        lr = 1e-3
        for _ in range(15):
            params = rand_params(rng, vocab_size=10, dim=int(rng.integers(2, 5)))
            if alpha > 1.0:
                bound_away_from_zero(params)
            current = rng.integers(0, 10, size=int(rng.integers(1, 5))).tolist()
            context = rng.integers(0, 10, size=int(rng.integers(1, 5))).tolist()
            negs = [
                rng.integers(0, 10, size=int(rng.integers(1, 5))).tolist()
                for _ in range(int(rng.integers(1, 4)))
            ]
            pout = params.phrase_output_words[0]
            touched = [("input", params.input_words, w) for w in current]
            for ws in [context, *negs]:
                touched += [("pout", pout, w) for w in ws]
            err = check_step_against_fd(
                step=lambda: phrase_step(params, current, context, negs, lr, comp),
                objective=lambda: phrase_objective(
                    params, current, context, negs, comp
                ),
                touched=touched,
                lr=lr,
            )
            assert err < 1e-4

    def test_shared_word_across_phrases_accumulates(self):
        # word 5 sits in the context phrase and in both negative phrases
        rng = np.random.default_rng(29)
        params = rand_params(rng)
        bound_away_from_zero(params)
        comp = CompositionConfig(alpha=1.5)
        lr = 1e-3
        current, context = [0, 1], [5, 2]
        negs = [[5, 3], [4, 5]]
        pout = params.phrase_output_words[0]
        touched = [("input", params.input_words, w) for w in current]
        for ws in [context, *negs]:
            touched += [("pout", pout, w) for w in ws]
        err = check_step_against_fd(
            step=lambda: phrase_step(params, current, context, negs, lr, comp),
            objective=lambda: phrase_objective(params, current, context, negs, comp),
            touched=touched,
            lr=lr,
        )
        assert err < 1e-4

    def test_repeated_word_inside_current_phrase(self):
        rng = np.random.default_rng(31)
        params = rand_params(rng)
        comp = CompositionConfig(alpha=1.0)
        lr = 1e-3
        current = [3, 3, 7]
        context, negs = [1], [[2]]
        pout = params.phrase_output_words[0]
        touched = [("input", params.input_words, w) for w in current]
        touched += [("pout", pout, w) for w in [1, 2]]
        err = check_step_against_fd(
            step=lambda: phrase_step(params, current, context, negs, lr, comp),
            objective=lambda: phrase_objective(params, current, context, negs, comp),
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
        phrase_step(
            params_a, [2], [5], [[1], [7]], lr, CompositionConfig(alpha=1.0)
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
        comp = CompositionConfig(alpha=1.5)
        before = phrase_objective(params, [0, 1], [2], [[3]], comp)
        returned = phrase_step(params, [0, 1], [2], [[3]], 0.05, comp)
        assert returned == pytest.approx(before, rel=1e-12)

    def test_repeated_steps_ascend(self):
        rng = np.random.default_rng(43)
        params = rand_params(rng)
        comp = CompositionConfig(alpha=1.0)
        args = ([0, 1], [2, 3], [[4], [5, 6]])
        for _ in range(80):
            phrase_step(params, *args, 0.1, comp)
        first = phrase_step(params, *args, 0.0, comp)  # lr 0: evaluate only
        fresh = rand_params(np.random.default_rng(43))
        assert first > phrase_objective(fresh, *args, comp)


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


class TestTrainSentencePairSelection:
    def _setup(self, mode=Mode.BASELINE, window=2, seed=51):
        rng = np.random.default_rng(seed)
        params = rand_params(rng, vocab_size=6, mode=mode, window=window)
        config = TrainConfig(
            dim=4, window=window, min_count=1, mode=mode,
            word_negatives=2, phrase_negatives=2,
        )
        vocab = Vocab([f"w{i}" for i in range(6)], [10, 9, 8, 7, 6, 5])
        word_dist = trainer.build_noise_distribution(vocab.counts)
        ctx = trainer._SentenceContext(
            word_dist=word_dist,
            phrase_dist=None,
            phrase_components=[],
            comp=CompositionConfig(),
            keep_prob=None,
        )
        state = TrainingState(
            lr=0.01,
            word_rng=np.random.default_rng(seed + 1),
            phrase_rng=np.random.default_rng(seed + 2),
        )
        return params, config, vocab, ctx, state

    def test_word_pass_visits_window_pairs_in_order(self, monkeypatch):
        params, config, vocab, ctx, state = self._setup()
        calls = []

        def recorder(params_, center, context, negatives, lr, bank=0):
            calls.append((center, context, bank))
            return 0.0

        monkeypatch.setattr(trainer, "word_step", recorder)
        mapped = MappedSentence([3, 1, -1, 2], [-1] * 4)
        train_sentence(params, state, mapped, config, ctx)
        ids = mapped.word_ids
        expected = [
            (ids[t], ids[u], 0) for t, u, _ in iter_window_pairs(ids, config.window)
        ]
        assert calls == expected

    def test_positional_banks_follow_offsets(self, monkeypatch):
        params, config, vocab, ctx, state = self._setup(mode=Mode.POSITIONAL)
        calls = []

        def recorder(params_, center, context, negatives, lr, bank=0):
            calls.append(bank)
            return 0.0

        monkeypatch.setattr(trainer, "word_step", recorder)
        mapped = MappedSentence([0, 1, 2], [-1] * 3)
        train_sentence(params, state, mapped, config, ctx)
        from phrasegram.model import bank_for_offset

        expected = [
            bank_for_offset(off, config.window, True)
            for _, _, off in iter_window_pairs(mapped.word_ids, config.window)
        ]
        assert calls == expected

    def test_negatives_exclude_center(self, monkeypatch):
        params, config, vocab, ctx, state = self._setup()
        seen = []

        def recorder(params_, center, context, negatives, lr, bank=0):
            seen.append((center, list(negatives)))
            return 0.0

        monkeypatch.setattr(trainer, "word_step", recorder)
        mapped = MappedSentence([0, 1, 0, 1, 0], [-1] * 5)
        for _ in range(40):
            train_sentence(params, state, mapped, config, ctx)
        assert seen
        for center, negatives in seen:
            assert center not in negatives


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

    def test_single_worker_is_deterministic(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        a = train(corpus, self._config(mode=Mode.COMPOSITIONAL))
        b = train(corpus, self._config(mode=Mode.COMPOSITIONAL))
        for (_, ma), (_, mb) in zip(a.params.matrices(), b.params.matrices()):
            np.testing.assert_array_equal(ma, mb)
        assert a.state_dict == b.state_dict

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
        fresh = init_params(len(result.vocab), cfg, trainer._init_rng(cfg))
        np.testing.assert_array_equal(result.params.input_words, fresh.input_words)
        assert result.report.epochs == []

    def test_tokens_processed_counts_in_vocab_tokens(self, tmp_path):
        corpus = tmp_path / "c.txt"
        self._write_corpus(corpus)
        cfg = self._config(epochs=2)
        result = train(corpus, cfg)
        assert result.state_dict["tokens_processed"] == 2 * result.vocab.total_tokens

    def test_missing_corpus_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not found"):
            train(tmp_path / "nope.txt", self._config())

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
        assert result.params.all_finite()
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
        cfg = TrainConfig(dim=4, window=2, min_count=1, seed=9)
        state = trainer.TrainingState.fresh(cfg)
        state.epoch, state.tokens_processed = 1, 42
        restored = trainer.TrainingState.from_dict(state.to_dict(), lr=0.01)
        np.testing.assert_array_equal(
            state.word_rng.random(20), restored.word_rng.random(20)
        )
        np.testing.assert_array_equal(
            state.phrase_rng.random(20), restored.phrase_rng.random(20)
        )
        assert restored.epoch == 1
        assert restored.tokens_processed == 42

    def test_worker_streams_are_distinct(self):
        # The single state draws words and phrases from children 1 and 2 of
        # SeedSequence(seed), the streams v1 checkpoints store as worker 0.
        cfg = TrainConfig(dim=4, window=2, min_count=1, seed=9)
        state = trainer.TrainingState.fresh(cfg)
        children = np.random.SeedSequence(9).spawn(3)
        for rng, child in ((state.word_rng, children[1]), (state.phrase_rng, children[2])):
            expected = np.random.Generator(np.random.PCG64(child)).random(10)
            np.testing.assert_array_equal(rng.random(10), expected)
        assert not np.array_equal(state.word_rng.random(10), state.phrase_rng.random(10))

    def test_worker_count_mismatch_rejected(self):
        cfg = TrainConfig(dim=4, window=2, min_count=1)
        snapshot = trainer.TrainingState.fresh(cfg).to_dict()
        snapshot["workers"] = snapshot["workers"] * 2
        with pytest.raises(ValueError, match="workers"):
            trainer.TrainingState.from_dict(snapshot, 0.01)


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
