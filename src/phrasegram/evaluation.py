"""Embedding quality evaluation: word similarity, analogy, phrase composition.

Word similarity reports Spearman's rank correlation between human scores
and cosine similarities of the input embeddings.  Analogy questions are
answered with 3CosAdd over unit-normalized vectors, excluding the three
question words; each section's questions are scored in blocks of one
matrix product each.  The phrase task composes a (subject, reference
verb) pair with the configured composition function and correlates its
cosine against the landmark verb's vector with the human ratings.

`WordEmbeddings` is a read-only snapshot: its row-normalized matrix, and
a float32 copy of it for the nearest-neighbor scan, are computed on first
use and shared by every later query and analogy.

Items containing out-of-vocabulary words are dropped and counted; every
evaluator reports coverage alongside its score.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from phrasegram.composition import CompositionConfig, compose_rows
from phrasegram.corpus import numbered_lines

__all__ = [
    "EvaluationError",
    "SimilarityPair",
    "AnalogyQuestion",
    "PhraseCompositionItem",
    "WordEmbeddings",
    "cosine",
    "spearman",
    "word_similarity_eval",
    "analogy_eval",
    "phrase_similarity_eval",
    "load_similarity_dataset",
    "load_analogy_dataset",
    "load_phrase_dataset",
]


class EvaluationError(ValueError):
    """Evaluation cannot produce a defined score (e.g. zero usable items)."""


@dataclass(frozen=True)
class SimilarityPair:
    word_a: str
    word_b: str
    score: float


@dataclass(frozen=True)
class AnalogyQuestion:
    a: str
    b: str
    c: str
    expected: str


@dataclass(frozen=True)
class PhraseCompositionItem:
    subject: str
    reference_verb: str
    landmark: str
    rating: float


class WordEmbeddings:
    """Word -> vector lookup over a dense embedding matrix.

    lowercased marks whether the training corpus was lowercased; dataset
    words are folded the same way on lookup.

    The embeddings are a snapshot.  `matrix` is a read-only view of the
    array passed in (a float64 copy if it had another dtype), and
    `unit_matrix()` caches its row-normalized form on first call, with a
    float32 copy of it (`unit_matrix_f32()`, 4 more bytes per entry) that
    `nearest_neighbors` scans before it rescores in float64, and the ids of
    the rows that normalize to NaN (`non_finite_rows()`).  The source
    array must not change after construction: build a new WordEmbeddings
    for new values, or the cached unit rows go stale.
    """

    def __init__(
        self, words: Sequence[str], matrix: np.ndarray, lowercased: bool = False
    ):
        if len(words) != matrix.shape[0]:
            raise ValueError("word list and matrix row count differ")
        self.words = list(words)
        self.matrix = np.asarray(matrix, dtype=np.float64).view()
        self.matrix.flags.writeable = False
        self.lowercased = lowercased
        self.word2id = {w: i for i, w in enumerate(self.words)}
        self._unit: np.ndarray | None = None
        self._unit32: np.ndarray | None = None
        self._non_finite: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.words)

    def fold(self, word: str) -> str:
        return word.lower() if self.lowercased else word

    def __contains__(self, word: str) -> bool:
        return self.fold(word) in self.word2id

    def id_of(self, word: str) -> int | None:
        return self.word2id.get(self.fold(word))

    def get(self, word: str) -> np.ndarray | None:
        idx = self.id_of(word)
        return None if idx is None else self.matrix[idx]

    def unit_matrix(self) -> np.ndarray:
        """Row-normalized matrix, read-only; zero rows are left at zero.

        A row holding NaN or an infinity normalizes to NaN, without a warning.
        Computed on the first call, together with `unit_matrix_f32()` and
        `non_finite_rows()`; every later call returns the same array.
        """
        if self._unit is None:
            norms = np.linalg.norm(self.matrix, axis=1, keepdims=True)
            safe = np.where(norms == 0.0, 1.0, norms)
            with np.errstate(invalid="ignore"):  # inf / inf in a row holding an infinity
                unit = self.matrix / safe
            # Only a row whose norm is not finite can normalize to NaN.
            suspect = np.flatnonzero(~np.isfinite(norms[:, 0]))
            self._non_finite = suspect[~np.isfinite(unit[suspect]).all(axis=1)]
            unit32 = unit.astype(np.float32)
            unit.flags.writeable = unit32.flags.writeable = False
            self._unit, self._unit32 = unit, unit32
        return self._unit

    def unit_matrix_f32(self) -> np.ndarray:
        """`unit_matrix()` rounded to float32, read-only, built by its first call."""
        if self._unit32 is None:
            self.unit_matrix()
        return self._unit32

    def non_finite_rows(self) -> np.ndarray:
        """Ids of the rows of `unit_matrix()` that are not finite, ascending; found by its first call."""
        if self._non_finite is None:
            self.unit_matrix()
        return self._non_finite


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine undefined for zero vector")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def _average_ranks(xs: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing the average of their rank range."""
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


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rho: Pearson correlation of average-ranked data."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("inputs must be 1-D and equal length")
    if len(xs) < 2:
        raise EvaluationError("need at least two points")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    sx = np.sqrt(np.dot(dx, dx))
    sy = np.sqrt(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise EvaluationError("correlation undefined for constant input")
    return float(np.dot(dx, dy) / (sx * sy))


def word_similarity_eval(
    embeddings: WordEmbeddings, dataset: Sequence[SimilarityPair]
) -> tuple[float, float]:
    """Spearman correlation of embedding cosines with human scores.

    Pairs with any out-of-vocab word are dropped; returns (rho, coverage)
    where coverage is the usable fraction of the dataset.
    """
    model_scores, human_scores = [], []
    for pair in dataset:
        va = embeddings.get(pair.word_a)
        vb = embeddings.get(pair.word_b)
        if va is None or vb is None:
            continue
        model_scores.append(cosine(va, vb))
        human_scores.append(pair.score)
    if not model_scores:
        raise EvaluationError("no word pair is fully in vocabulary")
    return spearman(model_scores, human_scores), len(model_scores) / len(dataset)


def analogy_eval(
    embeddings: WordEmbeddings, sections: dict[str, list[AnalogyQuestion]]
) -> tuple[float, dict[str, float], float]:
    """3CosAdd analogy accuracy over unit-normalized embeddings.

    The predicted word maximizes cosine with (b - a + c), excluding the
    three question words and rows that are not finite; a question over a
    word whose row is not finite counts as wrong.  Questions with
    out-of-vocab words are dropped.
    Returns (overall accuracy, per-section accuracy, coverage).
    """
    unit = embeddings.unit_matrix()
    non_finite = embeddings.non_finite_rows()
    per_section: dict[str, float] = {}
    total_correct = total_usable = total_questions = 0
    for name, questions in sections.items():
        total_questions += len(questions)
        usable = []
        for q in questions:
            ids = [embeddings.id_of(w) for w in (q.a, q.b, q.c, q.expected)]
            if None not in ids:
                usable.append(ids)
        if not usable:
            continue
        correct = _count_cos_add_hits(unit, np.array(usable, dtype=np.int64), non_finite)
        per_section[name] = correct / len(usable)
        total_correct += correct
        total_usable += len(usable)
    if total_usable == 0:
        raise EvaluationError("no analogy question is fully in vocabulary")
    return (
        total_correct / total_usable,
        per_section,
        total_usable / total_questions,
    )


# Scores held at once by one analogy block: big enough for a matrix product
# to amortize reading `unit`, small enough to stay a minor share of memory.
_ANALOGY_BLOCK_BYTES = 4 << 20


def _count_cos_add_hits(unit: np.ndarray, questions: np.ndarray, non_finite: np.ndarray) -> int:
    """How many (a, b, c, expected) id rows 3CosAdd over `unit` answers right.

    `non_finite` lists the rows of `unit` that are not finite.  Their
    NaN scores would win argmax, so they score -inf, and a question over
    one of them has no answer.
    """
    if len(non_finite):
        questions = questions[~np.isin(questions, non_finite).any(axis=1)]
    rows = max(1, _ANALOGY_BLOCK_BYTES // (unit.itemsize * unit.shape[0]))
    correct = 0
    for start in range(0, len(questions), rows):
        block = questions[start : start + rows]
        a, b, c, expected = block.T
        scores = (unit[b] - unit[a] + unit[c]) @ unit.T
        scores[np.arange(len(block))[:, None], block[:, :3]] = -np.inf
        if len(non_finite):
            scores[:, non_finite] = -np.inf
        correct += int(np.count_nonzero(scores.argmax(axis=1) == expected))
    return correct


def phrase_similarity_eval(
    embeddings: WordEmbeddings,
    comp: CompositionConfig,
    dataset: Sequence[PhraseCompositionItem],
) -> tuple[float, float]:
    """Spearman correlation for the subject-verb composition task.

    Each item composes (subject, reference verb) with the configured
    composition over input embeddings and takes the cosine against the
    landmark verb's vector.  Returns (rho, coverage).
    """
    model_scores, human_scores = [], []
    for item in dataset:
        ids = [embeddings.id_of(item.subject), embeddings.id_of(item.reference_verb)]
        vl = embeddings.get(item.landmark)
        if None in ids or vl is None:
            continue
        composed = compose_rows(embeddings.matrix, ids, comp.alpha)
        model_scores.append(cosine(composed, vl))
        human_scores.append(item.rating)
    if not model_scores:
        raise EvaluationError("no phrase item is fully in vocabulary")
    return spearman(model_scores, human_scores), len(model_scores) / len(dataset)


# ---------------------------------------------------------------------------
# Dataset file formats
# ---------------------------------------------------------------------------


def _number(text: str, what: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{where}: {what} is not a number: {text!r}") from None


def load_similarity_dataset(path: str | Path) -> list[SimilarityPair]:
    """Tab-separated ``word_a<TAB>word_b<TAB>score``; '#' lines are comments."""
    pairs = []
    with closing(numbered_lines(path)) as lines:
        for where, line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{where}: expected 3 tab-separated fields")
            score = _number(fields[2], "score", where)
            pairs.append(SimilarityPair(fields[0], fields[1], score))
    return pairs


def load_analogy_dataset(path: str | Path) -> dict[str, list[AnalogyQuestion]]:
    """Google analogy format: ``: section`` headers, then 4 words per line."""
    sections: dict[str, list[AnalogyQuestion]] = {}
    current = "default"
    with closing(numbered_lines(path)) as lines:
        for where, line in lines:
            line = line.strip()
            if not line:
                continue
            if line.startswith(":"):
                current = line[1:].strip() or "default"
                continue
            words = line.split()
            if len(words) != 4:
                raise ValueError(f"{where}: expected 4 words")
            sections.setdefault(current, []).append(AnalogyQuestion(*words))
    return sections


def load_phrase_dataset(path: str | Path) -> list[PhraseCompositionItem]:
    """Tab-separated ``subject<TAB>reference_verb<TAB>landmark<TAB>rating``."""
    items = []
    with closing(numbered_lines(path)) as lines:
        for where, line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{where}: expected 4 tab-separated fields")
            rating = _number(fields[3], "rating", where)
            items.append(PhraseCompositionItem(fields[0], fields[1], fields[2], rating))
    return items
