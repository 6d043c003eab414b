"""Release gates for the package, one test per gate.

Each gate prints a single PASS/FAIL verdict line on the real stdout so
the verdicts survive pytest's output capture.  Tolerances and runtime
budgets are enforced inline; the synthetic-corpus thresholds were frozen
after a single pilot run (observed margin 0.60, observed rho 0.87), the
phrase-objective gain below the smallest of seven seeds' gains, and the
word-similarity gain below the smallest of ten seeds' gains.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from mpmath import exp as mp_exp, mp, mpf

from gradient_utils import bound_away_from_zero, check_step_against_fd, compiled_phrase_step
from phrasegram import reference
from phrasegram.composition import (
    CompositionConfig,
    compose_rows,
    sigma,
    sigma_jacobian_diag,
)
from phrasegram.embeddings_io import (
    export_embeddings,
    read_embeddings_binary,
    read_embeddings_text,
)
from phrasegram.evaluation import (
    AnalogyQuestion,
    PhraseCompositionItem,
    WordEmbeddings,
    analogy_eval,
    cosine,
    phrase_similarity_eval,
    spearman,
)
from phrasegram.manifest import (
    build_manifest,
    comparable_items,
    file_sha256,
    params_sha256,
)
from phrasegram.model import (
    Mode,
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    init_params,
)
from phrasegram.reference import phrase_objective, softmax_probability, word_objective, word_step
from phrasegram.sampling import build_noise_distribution
from phrasegram.trainer import train


@pytest.fixture
def verdict(capfd):
    """Context manager printing one PASS/FAIL line outside pytest capture."""

    @contextmanager
    def gate(label):
        def emit(status):
            with capfd.disabled():
                print(f"acceptance: {label}: {status}", flush=True)

        try:
            yield
        except BaseException:
            emit("FAIL")
            raise
        emit("PASS")

    return gate


# ---------------------------------------------------------------------------
# Gate 1: analytic gradients vs central finite differences
# ---------------------------------------------------------------------------

GRAD_TOL = 1e-4
FD_EPS = 1e-5
N_INSTANCES = 100  # per (mode, alpha) combination
VOCAB = 7
LR = 0.01


def _fresh_params(rng, mode, alpha):
    dim = int(rng.integers(2, 6))  # d <= 5
    cfg = TrainConfig(dim=dim, window=2, min_count=1, mode=mode, alpha=alpha)
    params = init_params(VOCAB, cfg, rng)
    for _, m in params.matrices():
        m[:] = rng.normal(scale=0.5, size=m.shape)
    if alpha > 1:
        # keep coordinates off the |x| -> 0 kink of the power map, where
        # central differences of its derivative are ill-conditioned
        bound_away_from_zero(params)
    return params


def _word_instance(rng, params):
    bank = int(rng.integers(len(params.output_words)))
    center = int(rng.integers(VOCAB))
    context = int(rng.integers(VOCAB))
    negatives = [int(x) for x in rng.integers(0, VOCAB, size=2)]
    out = params.output_words[bank]
    touched = [("in", params.input_words, center)]
    touched += [("out", out, w) for w in (context, *negatives)]

    def step():
        return word_step(params, center, context, negatives, LR, bank)

    def objective():
        return word_objective(params, center, context, negatives, bank)

    return step, objective, touched


def _phrase_instances(rng, params, alpha):
    """One phrase instance, stepped by its numpy reference on the negatives
    picked here and by the compiled step on the negatives it draws from
    the current phrase's context and the picked ones (from a child of rng,
    so that the instances drawn after it do not change)."""
    bank = int(rng.integers(len(params.phrase_output_words)))

    def pick():
        return [int(x) for x in rng.integers(0, VOCAB, size=rng.integers(1, 5))]

    current, context = pick(), pick()
    negatives = [pick(), pick()]
    pout = params.phrase_output_words[bank]
    drawn, compiled = compiled_phrase_step(
        params, current, context, negatives, alpha, rng.spawn(1)[0], bank
    )

    def instance(step, negs):
        touched = [("in", params.input_words, w) for w in current]
        for ws in (context, *negs):
            touched += [("pout", pout, w) for w in ws]

        def objective():
            return phrase_objective(params, current, context, negs, alpha, bank)

        return step, objective, touched

    def oracle():
        return reference.phrase_step(params, current, context, negatives, LR, alpha, bank)

    return [instance(lambda: compiled(LR), drawn), instance(oracle, negatives)]


def test_gradient_suite(verdict):
    with verdict("gradient suite"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        worst = 0.0
        for mode in Mode:
            for alpha in (1.0, 1.5, 2.0):
                n = 0
                for i in range(N_INSTANCES):
                    params = _fresh_params(rng, mode, alpha)
                    if mode.compositional and i % 2 == 1:
                        instances = _phrase_instances(rng, params, alpha)
                    else:
                        instances = [_word_instance(rng, params)]
                    for step, objective, touched in instances:
                        err = check_step_against_fd(
                            step, objective, touched, LR, eps=FD_EPS
                        )
                        worst = max(worst, err)
                    n += 1
                assert n >= 100
        assert worst < GRAD_TOL, f"worst relative error {worst}"
        assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# Gate 2: noise distribution, exact and empirical
# ---------------------------------------------------------------------------


def test_noise_distribution(verdict):
    with verdict("noise distribution"):
        t0 = time.perf_counter()
        dist = build_noise_distribution(np.array([1.0, 16.0]))
        # 16**0.75 is exactly 8, so both probabilities are exact dyadics
        np.testing.assert_array_equal(dist.probs, [1.0 / 9.0, 8.0 / 9.0])

        counts = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0])
        dist = build_noise_distribution(counts)
        rng = np.random.default_rng(7)
        draws = dist.sample(rng, 10**6)
        freq = np.bincount(draws, minlength=len(counts)) / 1e6
        assert np.max(np.abs(freq - dist.probs)) < 0.01
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# Gate 3: composition identities
# ---------------------------------------------------------------------------


def test_composition_identities(verdict):
    with verdict("composition identities"):
        rng = np.random.default_rng(31)

        # alpha=1 uniform composition is the arithmetic mean, bitwise,
        # when the reference accumulates in the same left-to-right order
        matrix = rng.normal(size=(9, 6))
        for ids in ([4], [2, 7], [1, 3, 5, 8, 0]):
            w = 1.0 / len(ids)
            acc = np.zeros(6)
            for i in ids:
                acc = acc + w * matrix[i]
            np.testing.assert_array_equal(compose_rows(matrix, ids, 1.0), acc)

        # oddness of the power nonlinearity
        vectors = rng.normal(size=(1000, 8))
        for alpha in (1.0, 1.5, 2.0):
            np.testing.assert_array_equal(
                sigma(-vectors, alpha), -sigma(vectors, alpha)
            )

        # diagonal Jacobian vs central finite differences
        worst = 0.0
        for alpha in (1.0, 1.5, 2.0):
            for _ in range(50):
                v = rng.uniform(0.1, 1.5, size=6) * rng.choice([-1.0, 1.0], size=6)
                diag = sigma_jacobian_diag(v, alpha)
                for j in range(6):
                    e = np.zeros(6)
                    e[j] = FD_EPS
                    fd = (sigma(v + e, alpha)[j] - sigma(v - e, alpha)[j]) / (
                        2 * FD_EPS
                    )
                    denom = max(abs(diag[j]), abs(fd), 1e-12)
                    worst = max(worst, abs(diag[j] - fd) / denom)
        assert worst < 1e-4, f"worst relative error {worst}"


# ---------------------------------------------------------------------------
# Gate 4: exact softmax against a 50-digit recomputation
# ---------------------------------------------------------------------------


def test_softmax_oracle(verdict):
    with verdict("softmax oracle"):
        rng = np.random.default_rng(41)
        cfg = TrainConfig(dim=4, window=2, min_count=1, mode=Mode.BASELINE)
        params = init_params(5, cfg, rng)
        params.input_words[:] = rng.normal(size=params.input_words.shape)
        params.output_words[0][:] = rng.normal(size=(5, 4))

        mp.dps = 50
        for center in range(5):
            probs = [softmax_probability(params, center, c) for c in range(5)]
            assert abs(sum(probs) - 1.0) <= 1e-9
            scores = [
                mpf(float(np.dot(params.output_words[0][c], params.input_words[center])))
                for c in range(5)
            ]
            z = sum(mp_exp(s) for s in scores)
            for c in range(5):
                exact = float(mp_exp(scores[c]) / z)
                assert abs(probs[c] - exact) < 1e-12


# ---------------------------------------------------------------------------
# Gate 5: convergence on a synthetic two-group corpus
# ---------------------------------------------------------------------------

N_FILLERS = 12
N_PHRASES = 4


def _group_inventory(g):
    fillers = [f"g{g}f{i}" for i in range(N_FILLERS)]
    phrases = [(f"g{g}p{j}a", f"g{g}p{j}b") for j in range(N_PHRASES)]
    landmarks = [f"g{g}l{j}" for j in range(N_PHRASES)]
    return fillers, phrases, landmarks


def _write_synthetic_corpus(path, target_tokens=100_000, seed=7):
    """Two disjoint co-occurrence groups; every sentence stays in one group.

    Each sentence plants two distinct 2-word phrases as chunks within
    window distance of each other, each followed by its landmark token,
    then group-local filler.  10 tokens per sentence.
    """
    rng = np.random.default_rng(seed)
    groups = [_group_inventory(0), _group_inventory(1)]
    lines = []
    tokens = 0
    while tokens < target_tokens:
        fillers, phrases, landmarks = groups[int(rng.integers(2))]
        j, k = rng.choice(N_PHRASES, size=2, replace=False)
        f = rng.choice(N_FILLERS, size=4)
        pj, pk = phrases[j], phrases[k]
        lines.append(
            f"[NP {pj[0]} {pj[1]}] {landmarks[j]} "
            f"[NP {pk[0]} {pk[1]}] {landmarks[k]} "
            f"{fillers[f[0]]} {fillers[f[1]]} {fillers[f[2]]} {fillers[f[3]]}"
        )
        tokens += 10
    path.write_text("\n".join(lines) + "\n")


def _planted_phrase_items():
    """Composed phrase vs landmark, rated high in-group and low cross-group."""
    items = []
    for g in (0, 1):
        _, phrases, landmarks = _group_inventory(g)
        _, _, other_landmarks = _group_inventory(1 - g)
        for j in range(N_PHRASES):
            a, b = phrases[j]
            items.append(PhraseCompositionItem(a, b, landmarks[j], 6.0))
            items.append(PhraseCompositionItem(a, b, other_landmarks[j], 1.0))
    return items


def _group_margin(emb):
    unit = emb.unit_matrix()

    def mean_cos(pairs):
        return float(
            np.mean([unit[emb.word2id[a]] @ unit[emb.word2id[b]] for a, b in pairs])
        )

    f0 = _group_inventory(0)[0]
    f1 = _group_inventory(1)[0]
    intra = [(a, b) for ws in (f0, f1) for i, a in enumerate(ws) for b in ws[i + 1:]]
    inter = [(a, b) for a in f0 for b in f1]
    return mean_cos(intra) - mean_cos(inter)


def test_synthetic_corpus_convergence(tmp_path, verdict):
    with verdict("synthetic-corpus convergence"):
        t0 = time.perf_counter()
        corpus = tmp_path / "synthetic.txt"
        _write_synthetic_corpus(corpus)
        config = TrainConfig(
            dim=25,
            window=2,
            epochs=5,
            word_negatives=5,
            phrase_negatives=5,
            min_count=5,
            phrase_min_count=5,
            mode=Mode.COMPOSITIONAL,
            alpha=1.0,
            beta=1.0,
            seed=11,
        )
        result = train(corpus, config)
        emb = WordEmbeddings(result.vocab.words, result.params.input_words)

        margin = _group_margin(emb)
        assert margin >= 0.2, f"intra-inter cosine margin {margin}"

        rho, coverage = phrase_similarity_eval(
            emb, CompositionConfig(alpha=config.alpha), _planted_phrase_items()
        )
        assert coverage == 1.0
        assert rho >= 0.5, f"phrase rho {rho}"
        assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# Gates 6 and 7: ablation identity, determinism, resume
# ---------------------------------------------------------------------------


def _chunked_corpus(path, n_lines=80, seed=19):
    rng = np.random.default_rng(seed)
    words = [f"t{i}" for i in range(8)]
    lines = []
    for _ in range(n_lines):
        w = rng.choice(words, size=7)
        lines.append(f"[NP {w[0]} {w[1]}] {w[2]} [VP {w[3]} {w[4]}] {w[5]} {w[6]}")
    path.write_text("\n".join(lines) + "\n")


def _small_config(**kw):
    cfg = dict(
        dim=6, window=2, min_count=1, phrase_min_count=1, epochs=4,
        word_negatives=3, phrase_negatives=2, seed=5, lr_start=0.05,
        mode=Mode.COMPOSITIONAL,
    )
    cfg.update(kw)
    return TrainConfig(**cfg)


def test_beta_zero_matches_baseline(tmp_path, verdict):
    with verdict("beta=0 ablation"):
        corpus = tmp_path / "c.txt"
        _chunked_corpus(corpus)
        ablated = train(corpus, _small_config(beta=0.0))
        baseline = train(corpus, _small_config(mode=Mode.BASELINE))
        np.testing.assert_array_equal(
            ablated.params.input_words, baseline.params.input_words
        )
        for a, b in zip(ablated.params.output_words, baseline.params.output_words):
            np.testing.assert_array_equal(a, b)


def test_determinism_and_resume(tmp_path, verdict):
    with verdict("determinism and resume"):
        corpus = tmp_path / "c.txt"
        _chunked_corpus(corpus)
        cfg = _small_config()
        digest = file_sha256(corpus)

        first = train(corpus, cfg)
        second = train(corpus, cfg)
        m1 = build_manifest(first, corpus, digest, wallclock_seconds=1.0)
        m2 = build_manifest(second, corpus, digest, wallclock_seconds=2.0)
        assert m1 != m2  # timing differs
        assert comparable_items(m1) == comparable_items(m2)

        half = train(corpus, cfg, stop_after_epoch=1)
        ckpt = tmp_path / "half.ckpt"
        checkpoint_save(
            ckpt, half.params, cfg, half.vocab, half.phrase_vocab, half.state_dict
        )
        resumed = train(corpus, cfg, start=checkpoint_load(ckpt))
        assert params_sha256(resumed.params.matrices()) == m1["params.sha256"]
        assert resumed.state_dict == first.state_dict


# ---------------------------------------------------------------------------
# Gate 8: evaluation against independent references
# ---------------------------------------------------------------------------


def _brute_force_analogy(emb, a, b, c):
    # offsets are taken between unit vectors, as in the evaluated method
    def unit(w):
        v = emb.get(w)
        return v / np.linalg.norm(v)

    target = unit(b) - unit(a) + unit(c)
    best, best_score = None, -np.inf
    for w in emb.words:
        if w in (a, b, c):
            continue
        score = cosine(emb.get(w), target)
        if score > best_score:
            best, best_score = w, score
    return best


def test_evaluation_correctness(verdict):
    with verdict("evaluation correctness"):
        rng = np.random.default_rng(83)

        # rank correlation with ties vs the scipy reference
        checked = 0
        while checked < 100:
            n = int(rng.integers(8, 40))
            xs = rng.integers(0, 6, size=n).astype(float)
            ys = rng.integers(0, 6, size=n).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            ref = scipy.stats.spearmanr(xs, ys).statistic
            assert abs(spearman(xs, ys) - ref) < 1e-12
            checked += 1

        # analogy argmax vs an explicit per-word scan
        words = [f"w{i}" for i in range(20)]
        emb = WordEmbeddings(words, rng.normal(size=(20, 5)))
        questions = []
        for _ in range(60):
            a, b, c = (words[int(i)] for i in rng.choice(20, size=3, replace=False))
            questions.append(AnalogyQuestion(a, b, c, _brute_force_analogy(emb, a, b, c)))
        accuracy, _, coverage = analogy_eval(emb, {"random": questions})
        assert coverage == 1.0
        assert accuracy == 1.0

        # constructed pairs with a shared offset are solved exactly
        dim = 5
        shift = np.zeros(dim)
        shift[-1] = 1.0
        exact_words, rows = [], []
        for i in range(dim - 1):
            axis = np.zeros(dim)
            axis[i] = 1.0
            exact_words += [f"base{i}", f"shift{i}"]
            rows += [axis, axis + shift]
        exact = WordEmbeddings(exact_words, np.array(rows))
        exact_questions = [
            AnalogyQuestion(f"base{i}", f"shift{i}", f"base{j}", f"shift{j}")
            for i in range(dim - 1)
            for j in range(dim - 1)
            if i != j
        ]
        accuracy, _, coverage = analogy_eval(exact, {"exact": exact_questions})
        assert (accuracy, coverage) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# Gate 9: interchange round-trip; third-party load is a documented manual step
# ---------------------------------------------------------------------------


def test_interchange_round_trip(tmp_path, verdict):
    with verdict("embedding interchange"):
        rng = np.random.default_rng(97)
        from phrasegram.corpus import Vocab

        words = [f"word{i}" for i in range(12)]
        vocab = Vocab(words, list(range(12, 0, -1)))
        cfg = TrainConfig(dim=9, window=2, min_count=1, mode=Mode.COMPOSITIONAL)
        params = init_params(12, cfg, rng)
        params.input_words[:] = rng.normal(size=params.input_words.shape)
        expected = params.input_words.astype(np.float32)

        text_path = tmp_path / "e.txt"
        export_embeddings(params, vocab, text_path, format="text", which="input")
        got_words, got = read_embeddings_text(text_path)
        assert got_words == words
        np.testing.assert_array_equal(got, expected)

        bin_path = tmp_path / "e.bin"
        export_embeddings(params, vocab, bin_path, format="binary", which="input")
        got_words, got = read_embeddings_binary(bin_path)
        assert got_words == words
        np.testing.assert_array_equal(got, expected)

        # the third-party loader check is manual; it must stay documented
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text()
        assert "KeyedVectors" in text
        assert "third-party" in text.lower()


# ---------------------------------------------------------------------------
# Gate 10: the phrase objective learns what word-level training cannot
# ---------------------------------------------------------------------------

PLANTED_WORDS = 24
PLANTED_PHRASES = 12  # per group
PLANTED_LINES = 2000  # sized so that the gate's three runs take about 5 s
PHRASE_GAIN = 0.1  # least rho gain of beta = 1 over beta = 0; see planted_rhos


def _planted_corpus(path, seed):
    """Two groups of 12 four-word phrases over one 24-word vocabulary.

    Each line is three chunks of one group.  At window 1 the word pairs
    lie mostly inside a chunk, and every word sits in phrases of both
    groups, so word-level training sees no group.  The phrase pairs link
    phrases of one group.  Returns each group's phrases as word lists.
    """
    rng = np.random.default_rng(seed)
    groups = [
        [[f"w{i}" for i in rng.choice(PLANTED_WORDS, 4, replace=False)] for _ in range(PLANTED_PHRASES)]
        for _ in range(2)
    ]
    lines = []
    for _ in range(PLANTED_LINES):
        group = groups[rng.integers(2)]
        lines.append(" ".join(f"[NP {' '.join(group[j])}]" for j in rng.integers(PLANTED_PHRASES, size=3)))
    path.write_text("\n".join(lines) + "\n")
    return groups


def _group_rho(result, groups, alpha):
    """Spearman rho of composed phrase-pair cosines against same-group labels."""
    word2id = {w: i for i, w in enumerate(result.vocab.words)}
    labels, vectors = [], []
    for g, phrases in enumerate(groups):
        for words in phrases:
            labels.append(g)
            vectors.append(compose_rows(result.params.input_words, [word2id[w] for w in words], alpha))
    pairs = [(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    return spearman(
        [cosine(vectors[i], vectors[j]) for i, j in pairs],
        [float(labels[i] == labels[j]) for i, j in pairs],
    )


def planted_rhos(path, seed):
    """Group rho at alpha 1 and 1.5, with beta = 1 and then with beta = 0.

    At beta = 0 no phrase pass runs, so one run serves both alphas.  Over
    the seeds 1 to 7 the smallest gain of beta = 1 was 0.118 at alpha 1 and
    0.171 at alpha 1.5 (the numbers per seed are in CHANGES.md).
    """
    groups = _planted_corpus(path, seed)
    config = dict(
        dim=25, window=1, epochs=5, word_negatives=5, phrase_negatives=5, min_count=1,
        phrase_min_count=1, lr_start=0.05, mode=Mode.COMPOSITIONAL, seed=seed,
    )
    words_only = train(path, TrainConfig(**config, beta=0.0))
    return {
        alpha: (
            _group_rho(train(path, TrainConfig(**config, alpha=alpha)), groups, alpha),
            _group_rho(words_only, groups, alpha),
        )
        for alpha in (1.0, 1.5)
    }


def test_phrase_objective_separates_planted_groups(tmp_path, verdict):
    with verdict("phrase objective"):
        t0 = time.perf_counter()
        for alpha, (joint, words_only) in planted_rhos(tmp_path / "planted.txt", seed=1).items():
            assert joint - words_only >= PHRASE_GAIN, f"alpha {alpha}: rho {joint} against {words_only}"
        assert time.perf_counter() - t0 < 120.0


# ---------------------------------------------------------------------------
# Gate 11: the phrase objective improves word similarity
# ---------------------------------------------------------------------------

PARTNER_CONTENT = 8  # content words per group
PARTNER_WORDS = 16  # partner words, shared by both groups
PARTNER_LINES = 2000
WORD_GAIN = 0.4  # least rho gain of beta = 1 over beta = 0; see word_similarity_rhos


def _partner_corpus(path, seed):
    """Two groups of 8 content words that share 16 partner words.

    Each line is three chunks `[NP g<g>c<c> s<s>]` of one group g: a content
    word of the group and a partner drawn from all 16.  At window 1 a
    content word's word pairs are partners, its own and the one ending the
    chunk before, which both groups share; so word-level training sees
    almost no group.  The phrase pairs link the chunks of one line, and so
    the content words of one group.  Returns each group's content words.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(PARTNER_LINES):
        g = rng.integers(2)
        content, partners = rng.integers(PARTNER_CONTENT, size=3), rng.integers(PARTNER_WORDS, size=3)
        lines.append(" ".join(f"[NP g{g}c{c} s{s}]" for c, s in zip(content, partners)))
    path.write_text("\n".join(lines) + "\n")
    return [[f"g{g}c{c}" for c in range(PARTNER_CONTENT)] for g in range(2)]


def _word_group_rho(result, groups):
    """Spearman rho of content-word cosines against same-group labels."""
    word2id = {w: i for i, w in enumerate(result.vocab.words)}
    labels, vectors = [], []
    for g, words in enumerate(groups):
        for word in words:
            labels.append(g)
            vectors.append(result.params.input_words[word2id[word]])
    pairs = [(i, j) for i in range(len(labels)) for j in range(i + 1, len(labels))]
    return spearman(
        [cosine(vectors[i], vectors[j]) for i, j in pairs],
        [float(labels[i] == labels[j]) for i, j in pairs],
    )


def word_similarity_rhos(path, seed):
    """Content-word rho at alpha 1 and 1.5, with beta = 1 and then with beta = 0,
    on the corpus of `seed`, trained at seed 1.

    Over the corpus seeds 0 to 9 the smallest gain of beta = 1 was 0.439,
    at both alphas (the numbers per seed are in CHANGES.md).
    """
    groups = _partner_corpus(path, seed)
    config = dict(
        dim=25, window=1, epochs=5, word_negatives=5, phrase_negatives=5, min_count=1,
        phrase_min_count=1, lr_start=0.05, mode=Mode.COMPOSITIONAL, seed=1,
    )
    words_only = _word_group_rho(train(path, TrainConfig(**config, beta=0.0)), groups)
    return {
        alpha: (_word_group_rho(train(path, TrainConfig(**config, alpha=alpha)), groups), words_only)
        for alpha in (1.0, 1.5)
    }


def test_phrase_objective_improves_word_similarity(tmp_path, verdict):
    with verdict("word similarity"):
        t0 = time.perf_counter()
        for alpha, (joint, words_only) in word_similarity_rhos(tmp_path / "partners.txt", seed=1).items():
            assert joint - words_only >= WORD_GAIN, f"alpha {alpha}: rho {joint} against {words_only}"
        assert time.perf_counter() - t0 < 120.0
