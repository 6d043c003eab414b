"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of a numpy Generator, so one seed gives
byte-identical corpora, checkpoints, query lists and analogy files.  The
generators also return the facts the output checks need (expected pair
counts, the word list in frequency order), computed from the generated
structure itself rather than by re-reading the files through phrasegram.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from phrasegram.corpus import Vocab
from phrasegram.model import Mode, TrainConfig, checkpoint_save, init_params

# Consonant-vowel syllables; every word is a concatenation of them, so each
# word decodes uniquely and frequent (low-rank) words are short.
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
_LABELS = ["NP", "VP", "PP", "ADJP"]


def syllables(rng: np.random.Generator) -> list[str]:
    return [_SYLLABLES[i] for i in rng.permutation(len(_SYLLABLES))]


def word_for(rank: int, syl: list[str]) -> str:
    """Bijective base-len(syl) spelling of a rank: distinct ranks, distinct words."""
    n, parts = rank + 1, []
    while n:
        n, d = divmod(n - 1, len(syl))
        parts.append(syl[d])
    return "".join(parts)


def zipf_ranks(rng: np.random.Generator, n_types: int, exponent: float, size: int) -> np.ndarray:
    cdf = np.cumsum(np.arange(1, n_types + 1, dtype=np.float64) ** -exponent)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(size), side="right"), n_types - 1)


def window_pairs(length: int, window: int) -> int:
    """Skip-gram pairs in a sequence of `length` mapped positions."""
    return sum(min(t, window) + min(length - 1 - t, window) for t in range(length))


def zipf_corpus(path: Path, rng: np.random.Generator, *, tokens: int, inventory: int,
                exponent: float, window: int) -> dict:
    """Plain text, 20 Zipf-drawn words per line.

    Every other word of a sentence comes from one of 64 topic word lists,
    so that contexts depend on the center word; the others are drawn from
    the whole inventory.  Only the words depend on the seed: the number of
    tokens and of pairs does not.
    """
    syl = syllables(rng)
    length = 20
    n_sentences = max(1, tokens // length)
    tokens = n_sentences * length
    ranks = zipf_ranks(rng, inventory, exponent, tokens)
    topics = zipf_ranks(rng, inventory, exponent, (64, 256))
    topic_of = np.repeat(rng.integers(0, len(topics), n_sentences), length)
    local = np.arange(tokens) % 2 == 0
    ranks[local] = topics[topic_of[local], zipf_ranks(rng, topics.shape[1], 1.0, int(local.sum()))]
    uniq, counts = np.unique(ranks, return_counts=True)
    spell = {int(r): word_for(int(r), syl) for r in uniq}
    with path.open("w", encoding="utf-8") as fh:
        for sentence in ranks.reshape(n_sentences, length):
            fh.write(" ".join(spell[int(r)] for r in sentence) + "\n")
    return {
        "tokens": tokens,
        "types": len(uniq),
        "word_pairs": n_sentences * window_pairs(length, window),
        "phrase_pairs": 0,
        "words_by_freq": [spell[int(uniq[i])] for i in np.lexsort((uniq, -counts))],
    }


# Chunk lengths by phrase rank: 70% two-word, 20% three-word, 10% four-word.
_CHUNK_LENGTHS = [2, 2, 2, 3, 2, 2, 2, 2, 3, 4]


def chunk_corpus(path: Path, rng: np.random.Generator, *, tokens: int, words: int,
                 phrases: int, chunks_per_sentence: int, phrase_min_count: int,
                 window: int) -> dict:
    """Bracketed text in which every token sits in a 2-4-word chunk.

    The chunks are a Zipfian inventory of distinct (words, label) phrases,
    each used at least `phrase_min_count` times, so every chunk is a
    retained phrase; every one of the `words` words occurs.  Only the words,
    labels and order depend on the seed: the vocabulary size, the chunk
    counts and lengths, and so the pair counts, do not.
    """
    syl = syllables(rng)
    lengths = np.resize(_CHUNK_LENGTHS, phrases)
    if lengths.sum() < words:
        raise ValueError("too few chunk slots to use every word")
    # Every word fills one slot; the other slots are Zipf-drawn.
    slots = rng.permutation(np.concatenate([np.arange(words), zipf_ranks(rng, words, 1.0, lengths.sum() - words)]))
    inventory: list[tuple[tuple[int, ...], str]] = []
    start = 0
    for n in lengths:
        ids = tuple(int(w) for w in slots[start : start + n])
        start += n
        label = int(rng.integers(len(_LABELS)))
        while (ids, _LABELS[label % len(_LABELS)]) in inventory:
            label += 1
        inventory.append((ids, _LABELS[label % len(_LABELS)]))
    n_sentences = max(1, round(tokens / (chunks_per_sentence * float(np.mean(lengths)))))
    n_chunks = n_sentences * chunks_per_sentence
    if n_chunks < phrases * phrase_min_count:
        raise ValueError("too few chunks to use every phrase phrase_min_count times")
    # Zipfian counts with a floor, rounded by largest remainder to n_chunks.
    share = 1.0 / np.arange(1, phrases + 1)
    extra = (n_chunks - phrases * phrase_min_count) * share / share.sum()
    counts = phrase_min_count + np.floor(extra).astype(int)
    counts[np.argsort(np.floor(extra) - extra, kind="stable")[: n_chunks - counts.sum()]] += 1
    order = rng.permutation(np.repeat(np.arange(phrases), counts)).reshape(n_sentences, chunks_per_sentence)
    with path.open("w", encoding="utf-8") as fh:
        for ids in order:
            fh.write(" ".join(
                f"[{inventory[p][1]} {' '.join(word_for(w, syl) for w in inventory[p][0])}]" for p in ids
            ) + "\n")
    word_counts = np.zeros(words, dtype=np.int64)
    for p, c in enumerate(counts):
        for w in inventory[p][0]:
            word_counts[w] += c
    present = np.flatnonzero(word_counts)
    sentence_tokens = [sum(len(inventory[p][0]) for p in ids) for ids in order]
    return {
        "tokens": sum(sentence_tokens),
        "types": len(present),
        "word_pairs": sum(window_pairs(n, window) for n in sentence_tokens),
        "phrase_pairs": n_sentences * window_pairs(chunks_per_sentence, window),
        "words_by_freq": [word_for(int(w), syl) for w in present[np.argsort(-word_counts[present], kind="stable")]],
    }


def serve_checkpoint(path: Path, rng: np.random.Generator, *, words: int, dim: int,
                     window: int) -> dict:
    """A `compositional` checkpoint: init_params plus random output matrices."""
    syl = syllables(rng)
    vocab = Vocab([word_for(r, syl) for r in range(words)],
                  [1_000_000 // (r + 1) + 1 for r in range(words)])
    config = TrainConfig(dim=dim, window=window, mode=Mode.COMPOSITIONAL, min_count=1)
    params = init_params(words, config, rng)
    for m in params.output_words + params.phrase_output_words:
        m[:] = rng.standard_normal(m.shape) / dim
    checkpoint_save(path, params, config, vocab)
    return {
        "words_by_freq": vocab.words,
        "input": params.input_words,
        "matrix_sha256": matrix_digest(params.matrices()),
    }


def matrix_digest(named) -> str:
    """Digest of named float64 matrices; independent of phrasegram's own hash."""
    h = hashlib.sha256()
    for name, m in named:
        h.update(name.encode())
        h.update(np.ascontiguousarray(m, dtype="<f8").tobytes())
    return h.hexdigest()


def unit_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; zero rows stay zero."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.where(norms == 0.0, 1.0, norms)


def cos_add(unit: np.ndarray, a: int, b: int, c: int) -> int:
    """3CosAdd answer to a : b :: c : ?, excluding the three question words."""
    scores = unit @ (unit[b] - unit[a] + unit[c])
    scores[[a, b, c]] = -np.inf
    return int(np.argmax(scores))


def queries(rng: np.random.Generator, words_by_freq: list[str], n: int) -> list[str]:
    """n distinct queries of Zipf-drawn words.

    Draws alternate between single words and bracketed phrases of two or
    three words; a draw that repeats an earlier query is dropped, so a small
    vocabulary yields more phrases.
    """
    out: dict[str, None] = {}
    draws = 0
    while len(out) < n:
        size = (1, 2, 1, 3)[draws % 4]
        draws += 1
        words = " ".join(words_by_freq[int(i)] for i in zipf_ranks(rng, len(words_by_freq), 1.0, size))
        out[words if size == 1 else f"[{words}]"] = None
    return list(out)


def analogy_file(path: Path, rng: np.random.Generator, words_by_freq: list[str], n: int,
                 sections: int, answer_matrix: np.ndarray | None = None) -> None:
    """Google-format analogy questions over four distinct Zipf-drawn words.

    With `answer_matrix` (rows in `words_by_freq` order), every other
    question is given the 3CosAdd answer computed here by brute force, so
    the expected accuracy is about one half rather than about zero.
    """
    unit = None if answer_matrix is None else unit_rows(answer_matrix)
    with path.open("w", encoding="utf-8") as fh:
        for q in range(n):
            if q % (n // sections or 1) == 0:
                fh.write(f": section{q // (n // sections or 1)}\n")
            ids: list[int] = []
            while len(ids) < 4:
                i = int(zipf_ranks(rng, len(words_by_freq), 0.5, 1)[0])
                if i not in ids:
                    ids.append(i)
            if unit is not None and q % 2 == 0:
                ids[3] = cos_add(unit, *ids[:3])
            fh.write(" ".join(words_by_freq[i] for i in ids) + "\n")
