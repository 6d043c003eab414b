"""The numpy oracles: the objectives and the training steps the tests check.

Training never imports this module.  `kernel.WordPass` runs the word
step and `kernel.phrase_step` the phrase step in `_kernel.c`; the tests
compare both with the steps here, which spell the same arithmetic out
in numpy, one pair at a time, and check these steps' gradients against
finite differences of the objectives here.

`phrase_step` is `word_step` on composed vectors: both score through one
core, `_negative_sampling`, which returns the objective term, each row's
coefficient and the gradient for the scored vector.  Both steps compute
every read (scores, Jacobian diagonals, gradient accumulations) from
pre-update parameter values and only then write, through `_add_rows`: one
`np.add.at` on the matrix's flat view, which applies repeated ids in
index order.  So the net parameter change of one step equals the
learning rate times the exact simultaneous gradient of that step's
objective term, even when an id appears more than once in the step.
`phrase_step` composes each phrase on its own with `compose_rows`, left
to right; the kernel composes each one as an ordered sum from -0.0,
which has the same bits, and keeps the same update order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from phrasegram.composition import compose_rows, sigma_jacobian_diag
from phrasegram.model import ModelParams

__all__ = [
    "softmax_probability",
    "word_objective",
    "phrase_objective",
    "word_step",
    "phrase_step",
]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


def _log_sigmoid(x: float) -> float:
    return -float(np.logaddexp(0.0, -x))


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
    alpha: float,
    bank: int = 0,
) -> float:
    """Negative-sampling objective term for one (phrase, context phrase) pair.

    The current phrase vector is composed from input embeddings, the
    context and negative phrase vectors from the component-word output
    space of the given bank, each with the power map's exponent alpha.
    """
    v_p = compose_rows(params.input_words, current_words, alpha)
    pout = params.phrase_output_words[bank]
    term = _log_sigmoid(float(np.dot(compose_rows(pout, context_words, alpha), v_p)))
    for neg in negative_phrases:
        term += _log_sigmoid(-float(np.dot(compose_rows(pout, neg, alpha), v_p)))
    return term


def _negative_sampling(
    rows: np.ndarray, v: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Score v against rows, of which row 0 is the positive and the rest negatives.

    Returns the negative-sampling objective term, each row's coefficient
    label - sigmoid(score) (the gradient of the term with respect to that
    row's score) and the gradient of the term with respect to v.
    """
    scores = rows @ v
    term = float(
        -np.logaddexp(0.0, -scores[0]) - np.logaddexp(0.0, scores[1:]).sum()
    )
    coefs = -_sigmoid(scores)
    coefs[0] += 1.0  # label - sigmoid(score), label = 1 only for row 0
    return term, coefs, coefs @ rows


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
    term, coefs, grad_v = _negative_sampling(out[idx], v)
    _add_rows(out, idx, (lr * coefs)[:, None] * v)
    v += lr * grad_v
    return term


def phrase_step(
    params: ModelParams,
    current_words: Sequence[int],
    context_words: Sequence[int],
    negative_phrases: Sequence[Sequence[int]],
    lr: float,
    alpha: float,
    bank: int = 0,
) -> float:
    """One gradient-ascent update for a (phrase, context phrase) pair.

    word_step on composed vectors: the context and negative phrases,
    composed in the phrase output space of the bank, are scored against
    the current phrase, composed in the input space.  Each phrase's
    coefficient reaches its component words through the composition's
    1/n weight and the diagonal Jacobian of its power map.  Every delta
    comes from the pre-update rows; then one ordered write per matrix
    applies them, so a word repeated within the step accumulates.
    Returns the objective term evaluated before the update.
    """
    inp = params.input_words
    pout = params.phrase_output_words[bank]
    phrases = [context_words, *negative_phrases]
    v_p = compose_rows(inp, current_words, alpha)
    composed = np.stack([compose_rows(pout, ws, alpha) for ws in phrases])
    term, coefs, grad_vp = _negative_sampling(composed, v_p)

    ids = np.concatenate(phrases)
    sizes = np.array([len(ws) for ws in phrases])
    scale = np.repeat(lr * coefs / sizes, sizes)
    out_deltas = scale[:, None] * (sigma_jacobian_diag(pout[ids], alpha) * v_p)
    cur = np.asarray(current_words)
    in_deltas = lr / len(cur) * (sigma_jacobian_diag(inp[cur], alpha) * grad_vp)
    _add_rows(pout, ids, out_deltas)
    _add_rows(inp, cur, in_deltas)
    return term


def _add_rows(matrix: np.ndarray, rows: np.ndarray, deltas: np.ndarray) -> None:
    """matrix[rows[i]] += deltas[i] for each i in order, through one np.add.at.

    A repeated row accumulates every delta, in index order: fancy-index
    += keeps only the last.  The add runs on the matrix's flat view,
    about 3× cheaper than np.add.at over rows at 18 rows of 100, the
    index included.  `deltas` holds one full row per entry of `rows`:
    numpy 2.4's np.add.at drops repeated indices when it broadcasts the
    values over a 2-D index.  Raises ValueError for a matrix that is not
    C-contiguous, which has no flat view: a reshape would write to a copy.
    """
    if not matrix.flags.c_contiguous:
        raise ValueError("cannot add rows in place: the matrix is not C-contiguous")
    d = matrix.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    np.add.at(matrix.reshape(-1), flat, deltas.reshape(-1))
