"""The numpy training steps: the oracles the compiled kernel is tested against.

Training never calls this module.  `kernel.WordPass` runs the word step
and `trainer.phrase_step` the phrase step in `_kernel.c`; the tests
compare both with the steps here, which spell the same arithmetic out
in numpy, one pair at a time.

`phrase_step` is `word_step` on composed vectors: both score through one
core, `_negative_sampling`, which returns the objective term, each row's
coefficient and the gradient for the scored vector.  Both steps compute
every read (scores, Jacobian diagonals, gradient accumulations) from
pre-update parameter values and only then write, through `_add_rows`: one
`np.add.at` on the matrix's flat view, which applies repeated ids in
index order.  So the net parameter change of one step equals the
learning rate times the exact simultaneous gradient of that step's
objective term, even when an id appears more than once in the step.
`phrase_step` gathers each matrix once (the phrase output rows of the
context and negative phrases, the input rows of the current phrase),
composes all its phrases in one ordered segment sum from -0.0 (also
`_add_rows`, which adds each phrase's weighted rows left to right, as
`compose_rows` does), computes every delta from the gathered rows and
then writes each matrix once.  The kernel keeps that update order.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from phrasegram.composition import sigma, sigma_jacobian_diag
from phrasegram.model import ModelParams

__all__ = ["word_step", "phrase_step"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


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
    1/n weight and the diagonal Jacobian of its power map.

    One gather per matrix reads every component row.  One segment sum
    composes all the phrases: it starts from -0.0, the one value whose
    addition changes no float, and adds each row times its phrase's 1/n
    in component order, so every phrase vector has the bits of
    `compose_rows`' left-to-right sum.  At alpha = 1 the power map is the
    identity and its Jacobian 1, so both are skipped.  Every delta comes
    from the gathered, pre-update rows; then one ordered write per matrix
    applies them, so a word repeated within the step accumulates.
    Returns the objective term evaluated before the update.
    """
    inp = params.input_words
    pout = params.phrase_output_words[bank]
    phrases = [context_words, *negative_phrases, current_words]  # segment -1 is the current phrase
    lengths = [len(ws) for ws in phrases]
    if 0 in lengths:
        raise ValueError("cannot compose an empty phrase")
    sizes = np.array(lengths)
    segment = np.repeat(np.arange(len(phrases)), sizes)
    ids = np.fromiter(chain.from_iterable(phrases), np.intp, len(segment))
    n_out = len(ids) - len(current_words)
    out_ids, cur = ids[:n_out], ids[n_out:]
    rows = np.concatenate((pout[out_ids], inp[cur]))
    if alpha != 1.0:
        jac = sigma_jacobian_diag(rows, alpha)
        rows = sigma(rows, alpha)
    composed = np.full((len(phrases), inp.shape[1]), -0.0)
    _add_rows(composed, segment, (1.0 / sizes)[segment][:, None] * rows)
    v_p = composed[-1]
    term, coefs, grad_vp = _negative_sampling(composed[:-1], v_p)

    scale = np.repeat(lr * coefs / sizes[:-1], sizes[:-1])
    in_lr = lr / len(cur)
    if alpha == 1.0:
        out_deltas = scale[:, None] * v_p
        in_deltas = np.multiply.outer(np.full(len(cur), in_lr), grad_vp)  # one row per id
    else:
        out_deltas = scale[:, None] * (jac[:n_out] * v_p)
        in_deltas = in_lr * (jac[n_out:] * grad_vp)
    _add_rows(pout, out_ids, out_deltas)
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
