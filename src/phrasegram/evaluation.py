"""Embedding quality evaluation: word similarity, analogy, phrase composition.

Word similarity reports Spearman's rank correlation between human scores
and cosine similarities of the input embeddings.  Analogy questions are
answered with 3CosAdd over unit-normalized vectors, excluding the three
question words.  The phrase task composes a (subject, reference verb)
pair with the configured composition function and correlates its cosine
against the landmark verb's vector with the human ratings.

Items containing out-of-vocabulary words are dropped and counted; every
evaluator reports coverage alongside its score.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from phrasegram.composition import CompositionConfig, compose_rows

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
    """

    def __init__(
        self, words: Sequence[str], matrix: np.ndarray, lowercased: bool = False
    ):
        if len(words) != matrix.shape[0]:
            raise ValueError("word list and matrix row count differ")
        self.words = list(words)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.lowercased = lowercased
        self.word2id = {w: i for i, w in enumerate(self.words)}

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
        """Row-normalized copy; zero rows are left at zero."""
        norms = np.linalg.norm(self.matrix, axis=1, keepdims=True)
        safe = np.where(norms == 0.0, 1.0, norms)
        return self.matrix / safe


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
    three question words.  Questions with out-of-vocab words are dropped.
    Returns (overall accuracy, per-section accuracy, coverage).
    """
    unit = embeddings.unit_matrix()
    per_section: dict[str, float] = {}
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
            target = unit[ib] - unit[ia] + unit[ic]
            scores = unit @ target
            scores[[ia, ib, ic]] = -np.inf
            if int(np.argmax(scores)) == expected:
                correct += 1
        if usable:
            per_section[name] = correct / usable
        total_correct += correct
        total_usable += usable
    if total_usable == 0:
        raise EvaluationError("no analogy question is fully in vocabulary")
    return (
        total_correct / total_usable,
        per_section,
        total_usable / total_questions,
    )


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


def load_similarity_dataset(path: str | Path) -> list[SimilarityPair]:
    """Tab-separated ``word_a<TAB>word_b<TAB>score``; '#' lines are comments."""
    pairs = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            pairs.append(SimilarityPair(fields[0], fields[1], float(fields[2])))
    return pairs


def load_analogy_dataset(path: str | Path) -> dict[str, list[AnalogyQuestion]]:
    """Google analogy format: ``: section`` headers, then 4 words per line."""
    sections: dict[str, list[AnalogyQuestion]] = {}
    current = "default"
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith(":"):
                current = line[1:].strip() or "default"
                continue
            words = line.split()
            if len(words) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 words")
            sections.setdefault(current, []).append(AnalogyQuestion(*words))
    return sections


def load_phrase_dataset(path: str | Path) -> list[PhraseCompositionItem]:
    """Tab-separated ``subject<TAB>reference_verb<TAB>landmark<TAB>rating``."""
    items = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields")
            items.append(
                PhraseCompositionItem(fields[0], fields[1], fields[2], float(fields[3]))
            )
    return items
