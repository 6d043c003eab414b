"""Stochastic gradient ascent over the joint word/phrase skip-gram objective.

The word-level pass applies the standard skip-gram negative-sampling
update for every (center, context) pair within the window.  The
phrase-level pass, active in compositional modes with beta > 0, composes
the current phrase vector from input word embeddings and the context and
negative phrase vectors from the dedicated component-word output space,
then back-propagates through the composition's power nonlinearity with
exact analytic derivatives.

beta scales the phrase-level objective relative to the word-level one; it
enters the updates as a multiplier on the phrase-level learning rate,
which is exactly the gradient of (word objective + beta * phrase objective).

All step functions compute every read (scores, Jacobian diagonals,
gradient accumulations) from pre-update parameter values and only then
apply the writes, so the net parameter change of one step equals the
learning rate times the exact simultaneous gradient of that step's
objective term, even when an id appears more than once in the step.

Window distances are surface distances: positions in the token sequence
for words and in the chunk sequence for phrases.  Out-of-vocab tokens and
non-retained chunks stay in place as holes that never pair but still
occupy a position.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from phrasegram.composition import (
    CompositionConfig,
    compose_rows,
    sigma_jacobian_diag,
)
from phrasegram.corpus import (
    ChunkedSentence,
    PhraseVocab,
    Vocab,
    build_phrase_vocab,
    build_vocab,
    chunk_phrase_key,
    iter_corpus,
)
from phrasegram.model import (
    CheckpointData,
    ModelParams,
    TrainConfig,
    bank_for_offset,
    init_params,
)
from phrasegram.sampling import NoiseDistribution, build_noise_distribution

__all__ = [
    "TrainingState",
    "MappedSentence",
    "EpochStats",
    "TrainReport",
    "TrainResult",
    "softmax_probability",
    "word_objective",
    "phrase_objective",
    "word_step",
    "phrase_step",
    "iter_window_pairs",
    "map_sentence",
    "train_sentence",
    "train",
]

logger = logging.getLogger(__name__)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _log_sigmoid(x: float) -> float:
    return -float(np.logaddexp(0.0, -x))


# ---------------------------------------------------------------------------
# Objective evaluation (also the finite-difference reference in tests)
# ---------------------------------------------------------------------------


def softmax_probability(
    params: ModelParams, center_word: int, context_word: int, bank: int = 0
) -> float:
    """Exact softmax probability of context_word given center_word.

    Enumerates the whole vocabulary; intended for small-vocabulary
    verification, not training.
    """
    v = params.input_words[center_word]
    scores = params.output_words[bank] @ v
    scores = scores - scores.max()  # shift-invariant, avoids overflow
    expd = np.exp(scores)
    return float(expd[context_word] / expd.sum())


def word_objective(
    params: ModelParams,
    center: int,
    context: int,
    negatives: Sequence[int],
    bank: int = 0,
) -> float:
    """Negative-sampling objective term for one (center, context) pair."""
    v = params.input_words[center]
    out = params.output_words[bank]
    term = _log_sigmoid(float(np.dot(out[context], v)))
    for n in negatives:
        term += _log_sigmoid(-float(np.dot(out[n], v)))
    return term


def phrase_objective(
    params: ModelParams,
    current_words: Sequence[int],
    context_words: Sequence[int],
    negative_phrases: Sequence[Sequence[int]],
    comp: CompositionConfig,
    bank: int = 0,
) -> float:
    """Negative-sampling objective term for one (phrase, context phrase) pair.

    The current phrase vector is composed from input embeddings, the
    context and negative phrase vectors from the component-word output
    space of the given bank.
    """
    alpha = comp.alpha
    v_p = compose_rows(params.input_words, current_words, alpha)
    pout = params.phrase_output_words[bank]
    term = _log_sigmoid(float(np.dot(compose_rows(pout, context_words, alpha), v_p)))
    for neg in negative_phrases:
        term += _log_sigmoid(-float(np.dot(compose_rows(pout, neg, alpha), v_p)))
    return term


# ---------------------------------------------------------------------------
# Gradient steps
# ---------------------------------------------------------------------------


def word_step(
    params: ModelParams,
    center: int,
    context: int,
    negatives: Sequence[int],
    lr: float,
    bank: int = 0,
) -> float:
    """One gradient-ascent update for a (center, context) pair.

    Updates the center's input embedding and the context and negative
    rows of the selected output bank.  Returns the objective term
    evaluated before the update.
    """
    v = params.input_words[center]
    out = params.output_words[bank]
    idx = np.empty(1 + len(negatives), dtype=np.int64)
    idx[0] = context
    idx[1:] = negatives
    rows = out[idx]  # (K+1, d) copy of pre-update rows
    scores = rows @ v
    term = float(
        -np.logaddexp(0.0, -scores[0]) - np.logaddexp(0.0, scores[1:]).sum()
    )
    coefs = -_sigmoid(scores)
    coefs[0] += 1.0  # label - sigmoid(score)
    grad_v = coefs @ rows
    deltas = (lr * coefs)[:, None] * v
    if len(set(idx.tolist())) == len(idx):
        out[idx] += deltas
    else:
        # Repeated rows must accumulate, which fancy-index += would drop.
        np.add.at(out, idx, deltas)
    v += lr * grad_v
    return term


def phrase_step(
    params: ModelParams,
    current_words: Sequence[int],
    context_words: Sequence[int],
    negative_phrases: Sequence[Sequence[int]],
    lr: float,
    comp: CompositionConfig,
    bank: int = 0,
) -> float:
    """One gradient-ascent update for a (phrase, context phrase) pair.

    Every component word of the context and negative phrases is updated
    in the phrase output space; every component word of the current
    phrase is updated in the input space.  Both updates pass through the
    diagonal Jacobian of the composition nonlinearity.  Returns the
    objective term evaluated before the update.
    """
    alpha = comp.alpha
    inp = params.input_words
    pout = params.phrase_output_words[bank]

    v_p = compose_rows(inp, current_words, alpha)
    phrases: list[Sequence[int]] = [context_words, *negative_phrases]
    composed = np.stack([compose_rows(pout, ws, alpha) for ws in phrases])
    scores = composed @ v_p
    term = float(
        -np.logaddexp(0.0, -scores[0]) - np.logaddexp(0.0, scores[1:]).sum()
    )
    coefs = -_sigmoid(scores)
    coefs[0] += 1.0  # y - sigmoid(score), y = 1 only for the context phrase

    # All deltas are computed from pre-update values before any write.
    out_deltas: list[tuple[int, np.ndarray]] = []
    for t, ws in enumerate(phrases):
        scale = lr * coefs[t] / len(ws)
        for w in ws:
            out_deltas.append((w, scale * (sigma_jacobian_diag(pout[w], alpha) * v_p)))

    grad_vp = coefs @ composed
    in_scale = lr / len(current_words)
    in_deltas = [
        (w, in_scale * (sigma_jacobian_diag(inp[w], alpha) * grad_vp))
        for w in current_words
    ]

    for w, delta in out_deltas:
        pout[w] += delta
    for w, delta in in_deltas:
        inp[w] += delta
    return term


# ---------------------------------------------------------------------------
# Sentence-level training
# ---------------------------------------------------------------------------


@dataclass
class MappedSentence:
    """A sentence mapped to vocabulary ids.

    word_ids: one entry per surface token, -1 for out-of-vocab.
    phrase_ids: one entry per chunk, -1 if the chunk is not a retained phrase.
    """

    word_ids: list[int]
    phrase_ids: list[int]


def map_sentence(
    sentence: ChunkedSentence, vocab: Vocab, phrase_vocab: PhraseVocab | None
) -> MappedSentence:
    word_ids = [
        vocab.word2id.get(tok, -1) for c in sentence.chunks for tok in c.tokens
    ]
    phrase_ids: list[int] = []
    for chunk in sentence.chunks:
        pid = -1
        if phrase_vocab is not None:
            key = chunk_phrase_key(chunk, vocab)
            if key is not None:
                pid = phrase_vocab.key2id.get(key, -1)
        phrase_ids.append(pid)
    return MappedSentence(word_ids, phrase_ids)


def iter_window_pairs(
    ids: Sequence[int], window: int
) -> Iterator[tuple[int, int, int]]:
    """Yield (center_pos, context_pos, offset) for valid pairs.

    Both endpoints must be mapped (id >= 0); holes keep their position, so
    distances are surface distances.
    """
    n = len(ids)
    for t in range(n):
        if ids[t] < 0:
            continue
        lo = t - window if t >= window else 0
        hi = t + window + 1
        if hi > n:
            hi = n
        for u in range(lo, hi):
            if u == t or ids[u] < 0:
                continue
            yield t, u, u - t


def _rng_from(seedseq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seedseq))


def _restore_rng(state: dict) -> np.random.Generator:
    bg = np.random.PCG64()
    bg.state = state
    return np.random.Generator(bg)


@dataclass
class TrainingState:
    """Optimizer bookkeeping: learning rate, RNG streams and progress."""

    lr: float
    word_rng: np.random.Generator
    phrase_rng: np.random.Generator
    tokens_processed: int = 0
    epoch: int = 0

    @classmethod
    def fresh(cls, config: TrainConfig) -> "TrainingState":
        """Start state; child 0 of SeedSequence(seed) seeds init_params."""
        children = np.random.SeedSequence(config.seed).spawn(3)
        return cls(config.lr_start, _rng_from(children[1]), _rng_from(children[2]))

    def to_dict(self) -> dict:
        # `workers` stays a one-entry list: the v1 checkpoint layout.
        return {
            "epoch": self.epoch,
            "tokens_processed": self.tokens_processed,
            "workers": [
                {
                    "word_rng": self.word_rng.bit_generator.state,
                    "phrase_rng": self.phrase_rng.bit_generator.state,
                }
            ],
        }

    @classmethod
    def from_dict(cls, state: dict, lr: float) -> "TrainingState":
        workers = state["workers"]
        if len(workers) != 1:
            raise ValueError(
                f"checkpoint state holds {len(workers)} workers entries; "
                "only single-state (workers=1) checkpoints can be resumed"
            )
        return cls(
            lr=lr,
            word_rng=_restore_rng(workers[0]["word_rng"]),
            phrase_rng=_restore_rng(workers[0]["phrase_rng"]),
            tokens_processed=state["tokens_processed"],
            epoch=state["epoch"],
        )


@dataclass
class _SentenceContext:
    """Immutable per-run lookups shared by train_sentence calls."""

    word_dist: NoiseDistribution
    phrase_dist: NoiseDistribution | None
    phrase_components: list[tuple[int, ...]]
    comp: CompositionConfig
    keep_prob: np.ndarray | None  # per word id, only when subsampling


def train_sentence(
    params: ModelParams,
    state: TrainingState,
    mapped: MappedSentence,
    config: TrainConfig,
    ctx: _SentenceContext,
) -> tuple[float, int, float, int]:
    """Run the word-level and phrase-level passes over one sentence.

    Returns (E_w sum, word step count, E_p sum, phrase step count).  The
    phrase pass runs only in compositional modes with beta > 0 and a
    non-empty phrase vocabulary; its updates are scaled by lr * beta.
    """
    c = config.window
    positional = params.mode.positional
    lr = state.lr

    word_ids = mapped.word_ids
    if ctx.keep_prob is not None:
        word_ids = [
            wid
            if wid >= 0 and state.word_rng.random() < ctx.keep_prob[wid]
            else -1
            for wid in word_ids
        ]

    ew, n_w = 0.0, 0
    k = config.word_negatives
    for t, u, off in iter_window_pairs(word_ids, c):
        negs = ctx.word_dist.sample(state.word_rng, k, exclude=word_ids[t])
        bank = bank_for_offset(off, c, positional)
        ew += word_step(params, word_ids[t], word_ids[u], negs, lr, bank)
        n_w += 1

    ep, n_p = 0.0, 0
    if config.beta > 0 and params.mode.compositional and ctx.phrase_dist is not None:
        phrase_lr = lr * config.beta
        n = config.phrase_negatives
        comps = ctx.phrase_components
        for i, j, off in iter_window_pairs(mapped.phrase_ids, c):
            pid = mapped.phrase_ids[i]
            negs = ctx.phrase_dist.sample(state.phrase_rng, n, exclude=pid)
            bank = bank_for_offset(off, c, positional)
            ep += phrase_step(
                params,
                comps[pid],
                comps[mapped.phrase_ids[j]],
                [comps[g] for g in negs],
                phrase_lr,
                ctx.comp,
                bank,
            )
            n_p += 1
    return ew, n_w, ep, n_p


# ---------------------------------------------------------------------------
# Full training runs
# ---------------------------------------------------------------------------


@dataclass
class EpochStats:
    epoch: int
    mean_ew: float
    mean_ep: float
    word_steps: int
    phrase_steps: int
    tokens: int
    seconds: float

    @property
    def tokens_per_s(self) -> float:
        return self.tokens / self.seconds if self.seconds > 0 else 0.0

    def line(self) -> str:
        return (
            f"epoch {self.epoch} E_w={self.mean_ew:.6f} "
            f"E_p={self.mean_ep:.6f} tokens/s={self.tokens_per_s:.1f}"
        )


@dataclass
class TrainReport:
    epochs: list[EpochStats] = field(default_factory=list)
    total_seconds: float = 0.0

    def lines(self) -> list[str]:
        return [e.line() for e in self.epochs]


@dataclass
class TrainResult:
    params: ModelParams
    report: TrainReport
    vocab: Vocab
    phrase_vocab: PhraseVocab | None
    config: TrainConfig
    state_dict: dict


def _init_rng(config: TrainConfig) -> np.random.Generator:
    root = np.random.SeedSequence(config.seed)
    return _rng_from(root.spawn(1)[0])


def _subsample_keep_prob(vocab: Vocab, threshold: float) -> np.ndarray:
    """Per-word keep probability for frequent-word subsampling."""
    freq = vocab.counts / vocab.total_tokens
    keep = (np.sqrt(freq / threshold) + 1.0) * (threshold / freq)
    return np.minimum(keep, 1.0)


def train(
    corpus_path: str | Path,
    config: TrainConfig,
    *,
    start: CheckpointData | None = None,
    stop_after_epoch: int | None = None,
) -> TrainResult:
    """Train a model over a chunked corpus file.

    With a fixed seed the run is bit-reproducible.  Passing a checkpoint
    as `start` resumes training at the saved epoch boundary and continues
    identically to an uninterrupted run (the checkpoint must come from the
    same config).  `stop_after_epoch` ends the run early at that epoch
    boundary, e.g. to write a mid-run checkpoint.

    The mapped corpus is held in memory across epochs.
    """
    corpus_path = Path(corpus_path)
    if not corpus_path.exists():
        raise FileNotFoundError(f"corpus file not found: {corpus_path}")

    def sentences():
        return iter_corpus(
            corpus_path, lowercase=config.lowercase, plain=config.plain_text
        )

    if start is not None:
        if start.config != config:
            raise ValueError("resume config differs from checkpoint config")
        vocab = start.vocab
        phrase_vocab = start.phrase_vocab
        params = start.params
        if start.state is None:
            raise ValueError("checkpoint carries no training state to resume from")
        state = TrainingState.from_dict(start.state, config.lr_start)
    else:
        vocab = build_vocab(sentences(), config.min_count)
        if len(vocab) < 2:
            raise ValueError(
                f"{corpus_path}: vocabulary has {len(vocab)} word(s) at "
                f"min_count={config.min_count}; negative sampling needs at least 2"
            )
        phrase_vocab = None
        if config.mode.compositional:
            phrase_vocab = build_phrase_vocab(
                sentences(), vocab, config.phrase_min_count, config.include_singletons
            )
            if len(phrase_vocab) < 2:
                logger.warning(
                    "%d phrase(s) retained, fewer than the 2 negative sampling "
                    "needs; phrase-level pass will be skipped",
                    len(phrase_vocab),
                )
        params = init_params(len(vocab), config, _init_rng(config))
        state = TrainingState.fresh(config)

    word_dist = build_noise_distribution(vocab.counts, config.noise_exponent)
    phrase_dist = None
    phrase_components: list[tuple[int, ...]] = []
    if phrase_vocab is not None and len(phrase_vocab) >= 2:
        phrase_dist = build_noise_distribution(phrase_vocab.counts, config.noise_exponent)
        phrase_components = [phrase_vocab.component_ids(i) for i in range(len(phrase_vocab))]
    ctx = _SentenceContext(
        word_dist=word_dist,
        phrase_dist=phrase_dist,
        phrase_components=phrase_components,
        comp=CompositionConfig(alpha=config.alpha),
        keep_prob=_subsample_keep_prob(vocab, config.subsample)
        if config.subsample > 0
        else None,
    )

    mapped = [map_sentence(s, vocab, phrase_vocab) for s in sentences()]
    token_counts = [sum(1 for w in m.word_ids if w >= 0) for m in mapped]

    budget = max(config.epochs * vocab.total_tokens, 1)
    floor = config.lr_floor

    first_epoch = state.epoch

    report = TrainReport()
    run_started = time.perf_counter()
    last_epoch = config.epochs if stop_after_epoch is None else min(
        stop_after_epoch, config.epochs
    )

    for epoch in range(first_epoch, last_epoch):
        epoch_started = time.perf_counter()
        ew = ep = 0.0
        n_w = n_p = 0
        for m, n_tokens in zip(mapped, token_counts):
            state.lr = max(
                config.lr_start * (1.0 - state.tokens_processed / (budget + 1)), floor
            )
            sew, snw, sep, snp = train_sentence(params, state, m, config, ctx)
            ew += sew
            ep += sep
            n_w += snw
            n_p += snp
            state.tokens_processed += n_tokens
        if not params.all_finite():
            raise RuntimeError(f"non-finite parameter detected after epoch {epoch}")
        stats = EpochStats(
            epoch=epoch,
            mean_ew=ew / n_w if n_w else 0.0,
            mean_ep=ep / n_p if n_p else 0.0,
            word_steps=n_w,
            phrase_steps=n_p,
            tokens=sum(token_counts),
            seconds=time.perf_counter() - epoch_started,
        )
        state.epoch = epoch + 1
        report.epochs.append(stats)
        logger.info("%s", stats.line())

    report.total_seconds = time.perf_counter() - run_started
    return TrainResult(
        params=params,
        report=report,
        vocab=vocab,
        phrase_vocab=phrase_vocab,
        config=config,
        state_dict=state.to_dict(),
    )
