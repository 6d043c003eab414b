"""word2vec-compatible embedding interchange and nearest-neighbor queries.

Text format: a header line ``<count> <dim>`` followed by one line per
word, ``word v1 ... vd`` with floats printed via %.9g (lossless for
float32).  Binary format: the same ASCII header line, then for each word
its UTF-8 bytes, a single space, d little-endian float32 values, and a
trailing newline byte.  Vectors are stored at float32 precision in both
formats.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from phrasegram.composition import CompositionConfig, compose_rows
from phrasegram.corpus import Vocab
from phrasegram.evaluation import WordEmbeddings
from phrasegram.model import ModelParams

__all__ = [
    "EmbeddingsFormatError",
    "select_matrix",
    "write_embeddings_text",
    "write_embeddings_binary",
    "read_embeddings_text",
    "read_embeddings_binary",
    "read_embeddings",
    "export_embeddings",
    "nearest_neighbors",
]


class EmbeddingsFormatError(ValueError):
    """Embedding file violates the interchange format."""


def select_matrix(params: ModelParams, which: str, bank: int = 0) -> np.ndarray:
    """Pick an embedding matrix: 'input', 'output', or 'phrase-output'."""
    if which == "input":
        return params.input_words
    if which == "output":
        if not 0 <= bank < len(params.output_words):
            raise ValueError(
                f"output bank {bank} out of range [0, {len(params.output_words)})"
            )
        return params.output_words[bank]
    if which == "phrase-output":
        if not params.phrase_output_words:
            raise ValueError("model has no component-word output vectors")
        if not 0 <= bank < len(params.phrase_output_words):
            raise ValueError(
                f"phrase-output bank {bank} out of range "
                f"[0, {len(params.phrase_output_words)})"
            )
        return params.phrase_output_words[bank]
    raise ValueError(f"unknown matrix selector: {which!r}")


def write_embeddings_text(
    path: str | Path, words: Sequence[str], matrix: np.ndarray
) -> None:
    matrix = np.asarray(matrix, dtype=np.float32)
    if len(words) != matrix.shape[0]:
        raise ValueError("word list and matrix row count differ")
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            fh.write(word + " " + " ".join("%.9g" % x for x in row) + "\n")


def write_embeddings_binary(
    path: str | Path, words: Sequence[str], matrix: np.ndarray
) -> None:
    matrix = np.asarray(matrix, dtype="<f4")
    if len(words) != matrix.shape[0]:
        raise ValueError("word list and matrix row count differ")
    with Path(path).open("wb") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n".encode("utf-8"))
        for word, row in zip(words, matrix):
            fh.write(word.encode("utf-8") + b" " + row.tobytes() + b"\n")


def read_embeddings_text(path: str | Path) -> tuple[list[str], np.ndarray]:
    with Path(path).open("r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise EmbeddingsFormatError("header must be '<count> <dim>'")
        count, dim = int(header[0]), int(header[1])
        words = []
        matrix = np.empty((count, dim), dtype=np.float32)
        for i in range(count):
            line = fh.readline()
            if not line:
                raise EmbeddingsFormatError(f"expected {count} rows, got {i}")
            fields = line.rstrip("\n").split(" ")
            if len(fields) != dim + 1:
                raise EmbeddingsFormatError(f"row {i}: expected {dim} values")
            words.append(fields[0])
            matrix[i] = [float(x) for x in fields[1:]]
    return words, matrix


def read_embeddings_binary(path: str | Path) -> tuple[list[str], np.ndarray]:
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise EmbeddingsFormatError("missing header line")
    header = data[:nl].split()
    if len(header) != 2:
        raise EmbeddingsFormatError("header must be '<count> <dim>'")
    count, dim = int(header[0]), int(header[1])
    row_bytes = 4 * dim
    words = []
    matrix = np.empty((count, dim), dtype=np.float32)
    pos = nl + 1
    for i in range(count):
        sep = data.find(b" ", pos)
        if sep < 0:
            raise EmbeddingsFormatError(f"row {i}: missing word separator")
        words.append(data[pos:sep].decode("utf-8"))
        start = sep + 1
        end = start + row_bytes
        if end + 1 > len(data):
            raise EmbeddingsFormatError(f"row {i}: truncated vector")
        matrix[i] = np.frombuffer(data[start:end], dtype="<f4")
        if data[end : end + 1] != b"\n":
            raise EmbeddingsFormatError(f"row {i}: missing newline terminator")
        pos = end + 1
    return words, matrix


def read_embeddings(path: str | Path, format: str) -> tuple[list[str], np.ndarray]:
    if format == "text":
        return read_embeddings_text(path)
    if format == "binary":
        return read_embeddings_binary(path)
    raise ValueError(f"unknown format: {format!r}")


def export_embeddings(
    params: ModelParams,
    vocab: Vocab,
    path: str | Path,
    format: str = "text",
    which: str = "input",
    bank: int = 0,
) -> None:
    """Write one of the model's embedding matrices in word2vec format."""
    matrix = select_matrix(params, which, bank)
    if format == "text":
        write_embeddings_text(path, vocab.words, matrix)
    elif format == "binary":
        write_embeddings_binary(path, vocab.words, matrix)
    else:
        raise ValueError(f"unknown format: {format!r}")


def nearest_neighbors(
    embeddings: WordEmbeddings,
    query: str,
    k: int = 10,
    comp: CompositionConfig | None = None,
) -> list[tuple[str, float]]:
    """Top-k cosine neighbors of a word or a bracketed phrase.

    A query of the form ``[w1 w2 ...]`` is composed from its word
    vectors (comp defaults to alpha=1, the mean).  The query's own words
    are excluded from the result.
    """
    if k < 1:
        raise ValueError("k must be positive")
    query = query.strip()
    if query.startswith("[") and query.endswith("]"):
        words = query[1:-1].split()
        if not words:
            raise ValueError("empty phrase query")
    else:
        words = [query]
    ids = [embeddings.id_of(w) for w in words]
    missing = [w for w, i in zip(words, ids) if i is None]
    if missing:
        raise KeyError("out of vocabulary: " + ", ".join(missing))
    if len(ids) == 1:
        target = embeddings.matrix[ids[0]]
    else:
        alpha = comp.alpha if comp is not None else 1.0
        target = compose_rows(embeddings.matrix, ids, alpha)
    norm = np.linalg.norm(target)
    if norm == 0.0:
        raise ValueError("query vector is zero")
    unit = embeddings.unit_matrix()
    scores = unit @ (target / norm)
    scores[ids] = -np.inf
    k = min(k, int(np.sum(np.isfinite(scores))))
    top = np.argpartition(-scores, k - 1)[:k] if k else np.array([], dtype=int)
    top = top[np.argsort(-scores[top], kind="stable")]
    return [(embeddings.words[i], float(scores[i])) for i in top]
