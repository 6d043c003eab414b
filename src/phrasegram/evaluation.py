"""Embedding quality evaluation and serving: similarity, analogy, neighbors.

Word and phrase similarity are one procedure: Spearman's rank correlation
of human scores with the cosines of two vectors per item, two words' input
embeddings, or a (subject, reference verb) pair composed with the
configured composition function and the landmark verb's vector.  Analogy
questions are answered with 3CosAdd over unit-normalized vectors,
excluding the three question words.  Items with an out-of-vocabulary word,
and similarity items with no defined cosine, are dropped and counted:
every evaluator reports coverage alongside its score.

`analogy_eval` and `nearest_neighbors` scan the float32 copy of the unit
matrix with one BLAS product and rescore near ties in float64 through one
compiled entry, `kernel.ExactTop`, so every answer is a float64 scan's;
`_float32_score_error` bounds the float32 error that the rescore covers,
and `_rescore_margin` turns it into the rescore's margin.  Both load the
kernel, as training does; `reference.exact_top` is the numpy oracle the
tests compare it against.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from phrasegram import kernel
from phrasegram.composition import CompositionConfig, compose_rows
from phrasegram.corpus import index_of, numbered_lines

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

    lowercased marks whether the training corpus was lowercased; the
    stored words and every looked-up word are then folded the same way,
    so two stored words that fold alike are a repeated word.  Answers name
    the stored words as given.

    The embeddings are a snapshot.  `matrix` is a read-only view of the
    array passed in (a float64 copy if it had another dtype), and
    `unit_matrix()` caches its row-normalized form on first call, with a
    float32 copy of it (`unit_matrix_f32()`, 4 more bytes per entry), the
    ids of the rows that normalize to NaN (`non_finite_rows()`) and the
    prepared `kernel.ExactTop` over them (`exact_top()`), which loads the
    kernel.  `nearest_neighbors` and `_cos_add_answers` (for
    `analogy_eval`) read them.  The source array must not change after
    construction: build a new WordEmbeddings for new values, or the cached
    rows go stale.
    """

    def __init__(self, words: Sequence[str], matrix: np.ndarray, lowercased: bool = False):
        if len(words) != matrix.shape[0]:
            raise ValueError("word list and matrix row count differ")
        self.words = list(words)
        self.matrix = np.asarray(matrix, dtype=np.float64).view()
        self.matrix.flags.writeable = False
        self.lowercased = lowercased
        folded = list(map(str.lower, self.words)) if lowercased else self.words
        self.word2id = index_of(folded, "word")
        self._unit: np.ndarray | None = None
        self._unit32: np.ndarray | None = None
        self._non_finite: np.ndarray | None = None
        self._top: kernel.ExactTop | None = None

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
        Computed on the first call, together with `unit_matrix_f32()`,
        `non_finite_rows()` and `exact_top()`; every later call returns the
        same array.
        """
        if self._top is None:
            norms = np.linalg.norm(self.matrix, axis=1, keepdims=True)
            safe = np.where(norms == 0.0, 1.0, norms)
            with np.errstate(invalid="ignore"):  # inf / inf in a row holding an infinity
                unit = self.matrix / safe
            # Only a row whose norm is not finite can normalize to NaN.
            suspect = np.flatnonzero(~np.isfinite(norms[:, 0]))
            non_finite = suspect[~np.isfinite(unit[suspect]).all(axis=1)]
            unit32 = unit.astype(np.float32)
            unit.flags.writeable = unit32.flags.writeable = False
            top = kernel.ExactTop(unit, unit32, non_finite)
            # The prepared top last: a thread that sees it sees the rest.
            self._unit, self._unit32, self._non_finite, self._top = unit, unit32, non_finite, top
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

    def exact_top(self) -> kernel.ExactTop:
        """The prepared float64 rescore over `unit_matrix()`, built by its first call."""
        if self._top is None:
            self.unit_matrix()
        return self._top


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding.

    Raises ValueError if the shapes differ, or if a norm is 0 or not
    finite (a NaN or infinite entry, or a norm that overflows)."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    score = _defined_cosine(u, v)
    if score is None:
        raise ValueError("cosine undefined for a zero or non-finite vector")
    return score


def _defined_cosine(u: np.ndarray, v: np.ndarray) -> float | None:
    """`cosine` of two float64 vectors of one shape, or None if a norm is 0 or not finite."""
    with np.errstate(over="ignore"):  # a norm that overflows is inf, and undefined
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if not (0.0 < nu < math.inf and 0.0 < nv < math.inf):
            return None
        return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman's rho: Pearson correlation of ranks 1..n, equal values sharing their mean rank.

    Raises ValueError unless both inputs are 1-D, of one length and
    finite; EvaluationError for fewer than two points or a constant side."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or not np.isfinite([xs, ys]).all():
        raise ValueError("inputs must be finite, 1-D and of equal length")
    if len(xs) < 2:
        raise EvaluationError("need at least two points")
    deviations = []
    for side in (xs, ys):
        _, inverse, counts = np.unique(side, return_inverse=True, return_counts=True)
        end = np.cumsum(counts)
        # Sorted positions end - counts .. end - 1 share the mean rank, an exact half-integer.
        ranks = ((2 * end - counts - 1) / 2.0 + 1.0)[inverse]
        deviations.append(ranks - ranks.mean())
    dx, dy = deviations
    sx = np.sqrt(np.dot(dx, dx))
    sy = np.sqrt(np.dot(dy, dy))
    if sx == 0.0 or sy == 0.0:
        raise EvaluationError("correlation undefined for constant input")
    return float(np.dot(dx, dy) / (sx * sy))


def word_similarity_eval(
    embeddings: WordEmbeddings, dataset: Sequence[SimilarityPair]
) -> tuple[float, float]:
    """Spearman correlation of embedding cosines with human scores.

    Pairs with an out-of-vocab word, or with no defined cosine, are
    dropped; returns (rho, coverage) where coverage is the usable fraction
    of the dataset.
    """
    items = [(embeddings.get(p.word_a), embeddings.get(p.word_b), p.score) for p in dataset]
    return _similarity_score(items, "word pair")


def _similarity_score(items: list[tuple], what: str) -> tuple[float, float]:
    """word_similarity_eval's (rho, coverage) of (vector | None, vector | None, score) items."""
    model_scores, human_scores = [], []
    for u, v, human in items:
        score = None if u is None or v is None else _defined_cosine(u, v)
        if score is not None:
            model_scores.append(score)
            human_scores.append(human)
    if not model_scores:
        raise EvaluationError(f"no {what} is fully in vocabulary with a defined cosine")
    return spearman(model_scores, human_scores), len(model_scores) / len(items)


def analogy_eval(
    embeddings: WordEmbeddings, sections: dict[str, list[AnalogyQuestion]]
) -> tuple[float, dict[str, float], float]:
    """3CosAdd analogy accuracy over unit-normalized embeddings.

    The predicted word maximizes cosine with (b - a + c), excluding the
    three question words and rows that are not finite; equal cosines go
    to the lower row id.  A question over a word whose row is not finite,
    or with no row left to answer it, counts as wrong.  Questions with
    out-of-vocab words are dropped.
    Returns (overall accuracy, per-section accuracy, coverage).
    """
    words = [w for qs in sections.values() for q in qs for w in (q.a, q.b, q.c, q.expected)]
    if embeddings.lowercased:
        words = [w.lower() for w in words]
    get = embeddings.word2id.get
    ids = np.array([get(w, -1) for w in words], dtype=np.int64).reshape(-1, 4)
    section = np.repeat(np.arange(len(sections)), [len(qs) for qs in sections.values()])
    usable = (ids >= 0).all(axis=1)
    ids, section = ids[usable], section[usable]
    if not len(ids):
        raise EvaluationError("no analogy question is fully in vocabulary")
    hit = _cos_add_answers(embeddings, ids[:, :3]) == ids[:, 3]
    correct = np.bincount(section[hit], minlength=len(sections)).tolist()
    asked = np.bincount(section, minlength=len(sections)).tolist()
    per_section = {name: correct[i] / asked[i] for i, name in enumerate(sections) if asked[i]}
    return sum(correct) / len(ids), per_section, len(ids) / len(usable)


def _float32_score_error(dim: int, norm: float = 1.0) -> float:
    """eps(d, n): a bound on |s32 - s64| for a unit-matrix row and a target of norm up to n.

    s64 is the float64 dot product of row x and target y, of dimension d;
    s32 is the float32 dot product of their roundings to float32.  The
    target is a unit query (n = 1) or a 3CosAdd target b - a + c over
    three unit rows (n = 3).  Let u = 2**-24, gamma_n = n*u / (1 - n*u),
    s the exact x . y and S = sum |x_j y_j| <= |x| |y|.

    - Rounding x_j or y_j to float32 scales it by (1 + delta), |delta| <= u;
      a value in float32's subnormal range moves by at most 2**-150 instead.
    - A float32 dot product of d terms, summed in any order, with or without
      fused multiply-add, rounds each term at most d times: its product and
      the additions on its way to the result, or one fused step for both.
      With the two input roundings, |s32 - s| <= gamma_(d+2) S, plus at most
      2**-150 for each input or product that underflows (numpy keeps IEEE
      gradual underflow, which makes the additions exact there), under
      d * 2**-146 in all.
    - The float64 dot product has |s64 - s| <= gamma_d(2**-53) S, the same
      argument with float64's u = 2**-53.
    - Rows and a unit query are normalized in float64, so each has norm at
      most 1 + (d + 3) 2**-53.  A 3CosAdd target, (b - a) + c in float64,
      rounds each entry twice, so its norm is at most
      3 (1 + (d + 3) 2**-53) (1 + 2**-53)**2.  Either way
      |y| <= n (1 + 3 (d + 3) 2**-53), and S <= n (1 + 5 (d + 3) 2**-53).
      That holds unless all of a vector's entries are below about 1e-150
      in magnitude, where their squares underflow in the norm.

    So |s32 - s64| <= n (gamma_(d+2) + gamma_d(2**-53)) (1 + 5 (d + 3) 2**-53)
    + d 2**-146 <= n gamma_(d+2) + n 9 (d + 3) 2**-53 + d 2**-146, since
    gamma_(d+2) <= 1 and gamma_d(2**-53) <= 2 d 2**-53.  That is at most
    n gamma_(d+3) = eps(d, n): gamma_(d+3) - gamma_(d+2) >= u, and
    9 (d + 3) 2**-53 + d 2**-146 < u while (d + 3) u <= 1/2.  Past that
    every row's error is unbounded here.  At d = 100, eps is 6.14e-6 for
    n = 1 and 1.84e-5 for n = 3.
    """
    g = (dim + 3) * 2.0**-24
    return norm * g / (1.0 - g) if g <= 0.5 else math.inf


def _rescore_margin(dim: int, norm: float) -> float:
    """The rescore's margin: 2 eps(d, n), plus 2**-22 to round a threshold below 8 to float32.

    `kernel.ExactTop` scores in float64 only the rows whose float32 score
    s32, within eps of its float64 score s64, lies within the margin of the
    k-th best s32, kth.  They include the float64 top k: k rows have
    s32 >= kth, so s64 >= kth - eps, so the k-th best s64, t64, is
    >= kth - eps, and a row with s64 >= t64 has s32 >= kth - 2 eps.  So
    the result, equal scores by lower row id, is a full float64 scan's;
    k = 1 is 3CosAdd's answer.  With fewer than k rows left, kth is -inf,
    and the floor at float32's lowest value keeps the left-out rows out.
    """
    return 2.0 * _float32_score_error(dim, norm) + 2.0**-22


def nearest_neighbors(
    embeddings: WordEmbeddings,
    query: str,
    k: int = 10,
    comp: CompositionConfig | None = None,
) -> list[tuple[str, float]]:
    """Top-k cosine neighbors of a word or a bracketed phrase.

    A query of the form ``[w1 w2 ...]``, one word too, is composed from
    its word vectors (comp defaults to alpha=1, the mean); a bare word
    keeps its own row.  The query's own words,
    and rows that are not finite, are excluded from the result.  Neighbors
    come by descending float64 cosine, equal cosines by lower row id, as
    `kernel.ExactTop` finds them from one float32 scan of `unit_matrix_f32()`.
    """
    if k < 1:
        raise ValueError("k must be positive")
    query = query.strip()
    if not query:
        raise ValueError("empty query")
    phrase = query.startswith("[") and query.endswith("]")
    words = query[1:-1].split() if phrase else [query]
    if not words:
        raise ValueError("empty phrase query")
    ids = [embeddings.id_of(w) for w in words]
    if None in ids:
        raise KeyError("out of vocabulary: " + ", ".join(w for w, i in zip(words, ids) if i is None))
    if phrase:
        target = compose_rows(embeddings.matrix, ids, comp.alpha if comp is not None else 1.0)
    else:
        target = embeddings.matrix[ids[0]]
    norm = math.sqrt(target @ target)  # np.linalg.norm's arithmetic, without its checks
    if not (norm > 0.0 and math.isfinite(norm)):
        raise ValueError(f"query vector of {query} is {'zero' if norm == 0.0 else 'not finite'}")
    dim = embeddings.unit_matrix().shape[1]
    rows, scores = embeddings.exact_top().neighbors(target, norm, ids, k, _rescore_margin(dim, 1.0))
    return list(zip(map(embeddings.words.__getitem__, rows), scores))


# Float32 scores held at once by one analogy block: big enough for a matrix
# product to amortize reading the unit matrix, small enough to stay a minor
# share of memory.
_ANALOGY_BLOCK_BYTES = 4 << 20


def _cos_add_answers(embeddings: WordEmbeddings, questions: np.ndarray) -> np.ndarray:
    """3CosAdd's answer to each (a, b, c) id row of `questions`, or -1 where it has none.

    Questions are scored against the float32 unit matrix in blocks of
    `_ANALOGY_BLOCK_BYTES`; `kernel.ExactTop` rescores, at k = 1, only
    those whose float32 runner-up is within 2 eps(d, 3) of their best.  Rows
    that are not finite score -inf, and so does every row for a question
    over one of them.
    """
    unit = embeddings.unit_matrix()
    unit32 = embeddings.unit_matrix_f32()
    non_finite = embeddings.non_finite_rows()
    exact_top = embeddings.exact_top()
    margin = _rescore_margin(unit.shape[1], 3.0)
    rows = max(1, _ANALOGY_BLOCK_BYTES // (unit32.itemsize * unit.shape[0]))
    answers = np.empty(len(questions), dtype=np.int64)
    for start in range(0, len(questions), rows):
        block = questions[start : start + rows]
        a, b, c = block.T
        # In place: a block's three fresh float64 copies cost more than its scan
        # on a small vocabulary.
        target = unit.take(b, axis=0)
        target -= unit.take(a, axis=0)
        target += unit.take(c, axis=0)
        scores = target.astype(np.float32) @ unit32.T
        at = np.arange(len(block))
        scores[at[:, None], block] = -np.inf
        if len(non_finite):
            scores[:, non_finite] = -np.inf
            scores[np.isin(block, non_finite).any(axis=1)] = -np.inf
        best = scores.argmax(axis=1)
        top = scores[at, best]
        scores[at, best] = -np.inf
        close = (scores.max(axis=1) >= top - margin) & (top > -np.inf)
        for i in np.flatnonzero(close):
            scores[i, best[i]] = top[i]
            best[i] = exact_top(scores[i], target[i], block[i].tolist(), 1, margin)[0][0]
        answers[start : start + rows] = np.where(top > -np.inf, best, -1)
    return answers


def phrase_similarity_eval(
    embeddings: WordEmbeddings,
    comp: CompositionConfig,
    dataset: Sequence[PhraseCompositionItem],
) -> tuple[float, float]:
    """Spearman correlation for the subject-verb composition task.

    Each item composes (subject, reference verb) with the configured
    composition over input embeddings and takes the cosine against the
    landmark verb's vector.  Items with an out-of-vocab word, or with no
    defined cosine, are dropped.  Returns (rho, coverage).
    """
    items = []
    for item in dataset:
        ids = [embeddings.id_of(item.subject), embeddings.id_of(item.reference_verb)]
        composed = None if None in ids else compose_rows(embeddings.matrix, ids, comp.alpha)
        items.append((composed, embeddings.get(item.landmark), item.rating))
    return _similarity_score(items, "phrase item")


# ---------------------------------------------------------------------------
# Dataset file formats
# ---------------------------------------------------------------------------


def _read_rated(path: str | Path, item: type) -> list:
    """One `item` per line of a tab-separated file of its fields, the last a
    finite number named after it; blank and '#' lines are skipped."""
    columns = fields(item)
    what = columns[-1].name
    items = []
    with closing(numbered_lines(path)) as lines:
        for where, line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            values = line.split("\t")
            if len(values) != len(columns):
                raise ValueError(f"{where}: expected {len(columns)} tab-separated fields")
            try:
                value = float(values[-1])
            except ValueError:
                raise ValueError(f"{where}: {what} is not a number: {values[-1]!r}") from None
            if not math.isfinite(value):  # spearman rejects one too, but cannot name its line
                raise ValueError(f"{where}: {what} is not finite: {values[-1]!r}")
            items.append(item(*values[:-1], value))
    return items


def load_similarity_dataset(path: str | Path) -> list[SimilarityPair]:
    """Tab-separated ``word_a<TAB>word_b<TAB>score``; '#' lines are comments."""
    return _read_rated(path, SimilarityPair)


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
    return _read_rated(path, PhraseCompositionItem)
