"""Training runs: ingest, the word and phrase passes, and the report.

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

Training runs each sentence as two passes, which `train` prepares once
per run, when an epoch is to run: the word pass (`kernel.WordPass`) and
then, in compositional modes with beta > 0 and at least two retained
phrases, the phrase pass (`PhrasePass`).  Both write the input matrix,
so their order is part of the result.  Both steps run in the compiled
kernel (`_kernel.c`, built, checked and called by `phrasegram.kernel`).
The objectives and the numpy steps that the tests hold the kernel to
live in `phrasegram.reference`, which training never imports.

The word pass is one kernel call per sentence.  It also subsamples the
sentence and draws every uniform of the pass itself from the word
stream's generator, in the per-pair reference's order: one per in-vocab
token when subsampling, then k per pair.  The phrase pass packs and
checks the phrase inventory, its noise table and the matrices once per
run into `kernel.PhraseTables`, then applies `kernel.phrase_step` to
each window pair of a sentence (`iter_window_pairs`): one kernel call,
which draws the pair's k uniforms from the phrase stream's generator.
Both look each negative up through the noise table's guide table
(`NoiseDistribution.guide`), which returns the id
`NoiseDistribution.sample`'s whole-table search returns, so every seed
keeps the same tokens and draws the same negatives as the per-pair
reference.

Window distances are surface distances: positions in the token sequence
for words and in the chunk sequence for phrases.  Out-of-vocab tokens and
non-retained chunks stay in place as holes that never pair but still
occupy a position.
"""

from __future__ import annotations

import logging
import os
import stat
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from phrasegram import kernel
from phrasegram.corpus import (
    ChunkedSentence,
    PhraseVocab,
    Vocab,
    build_phrase_vocab,
    build_vocab,
    chunk_spans,
    iter_corpus,
)
from phrasegram.kernel import phrase_step  # PhrasePass looks it up here, where perfbench traces it
from phrasegram.model import (
    CheckpointData,
    ModelParams,
    TrainConfig,
    TrainingState,
    bank_for_offset,
    init_params,
)
from phrasegram.sampling import NoiseDistribution, build_noise_distribution

__all__ = [
    "TrainingDivergedError",
    "TrainingState",
    "MappedSentence",
    "EpochStats",
    "TrainReport",
    "TrainResult",
    "iter_window_pairs",
    "map_sentence",
    "PhrasePass",
    "check_corpus",
    "train",
]

logger = logging.getLogger(__name__)


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
    """Ids of the sentence's tokens and of its chunk spans (by their
    `chunk_spans` keys), holes as -1."""
    word_ids = vocab.ids(sentence.tokens)
    if phrase_vocab is None:
        return MappedSentence(word_ids, [-1] * len(sentence.chunks))
    key2id = phrase_vocab.key2id
    spans = chunk_spans(word_ids, sentence.chunks)
    phrase_ids = [-1 if key is None else key2id.get(key, -1) for _, key in spans]
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


class PhrasePass:
    """The phrase-level pass, prepared once for a run.

    `params` is the model it updates, `noise` the phrase NoiseDistribution,
    `components` each phrase id's component word ids and rng the generator
    of the negatives, all prepared once into `kernel.PhraseTables`; each
    offset's bank is looked up in a table built once too.  A call applies
    phrase_step, which draws the pair's negatives, to each window pair of a
    sentence's phrase ids (-1 for a chunk that is not a retained phrase) in
    turn, at lr * beta in the bank of the pair's offset.
    """

    def __init__(
        self,
        params: ModelParams,
        noise: NoiseDistribution,
        components: Sequence[Sequence[int]],
        rng: np.random.Generator,
        k: int,
        window: int,
        positional: bool,
        alpha: float,
        beta: float,
    ) -> None:
        self.tables = kernel.PhraseTables(params, components, noise, rng, alpha, k)
        self.window, self.beta = window, beta
        # Each offset's phrase output bank, looked up per pair.
        self.banks = {
            off: bank_for_offset(off, window, positional)
            for off in range(-window, window + 1) if off
        }

    def __call__(self, phrase_ids: Sequence[int], lr: float) -> tuple[float, int]:
        """Returns the summed pre-update objective and the number of pairs."""
        tables, banks, phrase_lr = self.tables, self.banks, lr * self.beta
        ep, pairs = 0.0, 0
        for i, j, off in iter_window_pairs(phrase_ids, self.window):
            ep += phrase_step(tables, phrase_ids[i], phrase_ids[j], phrase_lr, banks[off])
            pairs += 1
        return ep, pairs


def _no_phrase_pass(phrase_ids: Sequence[int], lr: float) -> tuple[float, int]:
    """The phrase pass of a run that has none."""
    return 0.0, 0


# ---------------------------------------------------------------------------
# Full training runs
# ---------------------------------------------------------------------------


class TrainingDivergedError(RuntimeError):
    """A parameter became NaN or infinite; the message names matrix, row and epoch."""


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


def _seed_streams(seed: int) -> list[np.random.Generator]:
    """Generators for init_params and the word and phrase streams of a fresh
    run: children 0, 1 and 2 of SeedSequence(seed)."""
    return [_rng_from(child) for child in np.random.SeedSequence(seed).spawn(3)]


def _subsample_keep_prob(vocab: Vocab, threshold: float) -> np.ndarray:
    """Per-word keep probability for frequent-word subsampling."""
    freq = vocab.counts / vocab.total_tokens
    keep = (np.sqrt(freq / threshold) + 1.0) * (threshold / freq)
    return np.minimum(keep, 1.0)


def check_corpus(path: str | Path) -> None:
    """Reject a corpus that is not a regular file, before anything opens it.

    Training reads the corpus more than once, so a pipe would be drained
    by the first read and a FIFO with no writer would block the first
    open.  A missing file raises os.stat's OSError.
    """
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ValueError(
            f"{path}: the corpus must be a regular file, because training reads it more than once"
        )


def train(
    corpus_path: str | Path,
    config: TrainConfig,
    *,
    start: CheckpointData | None = None,
    stop_after_epoch: int | None = None,
) -> TrainResult:
    """Train a model over a chunked corpus file.

    With a fixed seed the run is bit-reproducible on one host.  Passing a
    checkpoint as `start` resumes training at the saved epoch boundary and
    continues identically to an uninterrupted run (the checkpoint must come
    from the same config and the same corpus, whose in-vocabulary token
    count is checked).  `stop_after_epoch` ends the run early at that
    epoch boundary, e.g. to write a mid-run checkpoint.

    The mapped corpus is held in memory across epochs.  A parameter that
    is not finite after an epoch raises TrainingDivergedError.
    """
    corpus_path = Path(corpus_path)
    check_corpus(corpus_path)

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
        state = TrainingState.from_dict(start.state, config.epochs, vocab.total_tokens)
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
        init_rng, word_rng, phrase_rng = _seed_streams(config.seed)
        params = init_params(len(vocab), config, init_rng)
        state = TrainingState(word_rng, phrase_rng)

    mapped = [map_sentence(s, vocab, phrase_vocab) for s in sentences()]
    token_counts = [sum(1 for w in m.word_ids if w >= 0) for m in mapped]
    if start is not None and sum(token_counts) != vocab.total_tokens:
        # The lr schedule and the resume state count the checkpoint's tokens.
        raise ValueError(
            f"{corpus_path}: the corpus holds {sum(token_counts)} in-vocabulary tokens, "
            f"but the checkpoint was trained on {vocab.total_tokens}; resume on its corpus"
        )

    budget = max(config.epochs * vocab.total_tokens, 1)
    floor = config.lr_floor

    report = TrainReport()
    last_epoch = config.epochs if stop_after_epoch is None else min(
        stop_after_epoch, config.epochs
    )
    epochs = range(state.epoch, last_epoch)
    if epochs:  # a run without epochs builds neither pass and never loads the kernel
        word_pass = kernel.WordPass(
            params.input_words, params.output_words,
            build_noise_distribution(vocab.counts, config.noise_exponent),
            _subsample_keep_prob(vocab, config.subsample) if config.subsample > 0 else None,
            state.word_rng, config.word_negatives, config.window, config.mode.positional,
        )
        phrase_pass = _no_phrase_pass
        has_phrases = phrase_vocab is not None and len(phrase_vocab) >= 2
        if config.mode.compositional and config.beta > 0 and has_phrases:
            phrase_pass = PhrasePass(
                params, build_noise_distribution(phrase_vocab.counts, config.noise_exponent),
                [phrase_vocab.component_ids(i) for i in range(len(phrase_vocab))],
                state.phrase_rng, config.phrase_negatives, config.window, config.mode.positional,
                config.alpha, config.beta,
            )

    for epoch in epochs:
        epoch_started = time.perf_counter()
        ew = ep = 0.0
        n_w = n_p = 0
        for m, n_tokens in zip(mapped, token_counts):
            lr = max(config.lr_start * (1.0 - state.tokens_processed / (budget + 1)), floor)
            sew, snw = word_pass(m.word_ids, lr)
            sep, snp = phrase_pass(m.phrase_ids, lr)
            ew += sew
            ep += sep
            n_w += snw
            n_p += snp
            state.tokens_processed += n_tokens
        bad = params.first_non_finite()
        if bad is not None:
            raise TrainingDivergedError(
                f"non-finite parameter in {bad[0]} row {bad[1]} after epoch {epoch}"
            )
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

    return TrainResult(
        params=params,
        report=report,
        vocab=vocab,
        phrase_vocab=phrase_vocab,
        config=config,
        state_dict=state.to_dict(),
    )
