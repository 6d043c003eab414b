"""word2vec-compatible embedding interchange.

Text format: a header line ``<count> <dim>`` followed by one line per
word, ``word v1 ... vd`` with floats printed via %.9g (lossless for
float32).  Binary format: the same ASCII header line, then for each word
its UTF-8 bytes, a single space, d little-endian float32 values, and a
trailing newline byte.  Vectors are stored at float32 precision in both
formats.
"""

from __future__ import annotations

import math
import os
import stat
from contextlib import closing
from pathlib import Path
from typing import Sequence

import numpy as np

from phrasegram.corpus import Vocab, numbered_lines, output_file
from phrasegram.evaluation import nearest_neighbors  # re-exported; defined beside analogy_eval
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
    """Pick bank `bank` of an embedding matrix: 'input', 'output', or 'phrase-output'."""
    banks = {
        "input": [params.input_words],
        "output": params.output_words,
        "phrase-output": params.phrase_output_words,
    }
    if which not in banks:
        raise ValueError(f"unknown matrix selector: {which!r}")
    matrices = banks[which]
    if not matrices:
        raise ValueError("model has no component-word output vectors")
    if not 0 <= bank < len(matrices):
        raise ValueError(f"{which} bank {bank} out of range [0, {len(matrices)})")
    return matrices[bank]


def write_embeddings_text(
    path: str | Path, words: Sequence[str], matrix: np.ndarray
) -> None:
    matrix = np.asarray(matrix, dtype=np.float32)
    if len(words) != matrix.shape[0]:
        raise ValueError("word list and matrix row count differ")
    # One format for the whole row, filled one row at a time: converting
    # the whole matrix to Python floats at once would hold it all in memory.
    fmt = " ".join(["%.9g"] * matrix.shape[1])
    with output_file(path) as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n")
        for word, row in zip(words, matrix):
            fh.write(word + " " + fmt % tuple(row.tolist()) + "\n")


def write_embeddings_binary(
    path: str | Path, words: Sequence[str], matrix: np.ndarray
) -> None:
    matrix = np.asarray(matrix, dtype="<f4")
    if len(words) != matrix.shape[0]:
        raise ValueError("word list and matrix row count differ")
    with output_file(path, "wb") as fh:
        fh.write(f"{len(words)} {matrix.shape[1]}\n".encode("utf-8"))
        for word, row in zip(words, matrix):
            fh.write(word.encode("utf-8") + b" " + row.tobytes() + b"\n")


def _parse_header(fields: Sequence[str | bytes], where: str, body: float) -> tuple[int, int]:
    """Count and dim of a header followed by `body` bytes.

    Every value takes at least one byte in either format, so a header
    declaring more values than `body` bytes is rejected before its matrix
    is allocated.  A file short by less reaches the row that is missing,
    whose error says more.
    """
    try:
        count, dim = (int(x) for x in fields)
    except ValueError:
        count = dim = -1
    if count < 0 or dim < 0:
        raise EmbeddingsFormatError(f"{where}: header must be '<count> <dim>'")
    if count * dim > body:
        raise EmbeddingsFormatError(
            f"{where}: header declares {count} rows of {dim} values, "
            f"more than the {body} bytes after it can hold"
        )
    return count, dim


def read_embeddings_text(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Words and float32 matrix of a text file; errors name `path:line`."""
    with closing(numbered_lines(path)) as lines:
        where, header = next(lines, (f"{path}:1", ""))
        st = os.stat(path)  # a pipe's size is not known before it is read
        body = math.inf
        if stat.S_ISREG(st.st_mode):
            body = max(st.st_size - len(header.encode("utf-8")) - 1, 0)
        count, dim = _parse_header(header.split(), where, body)
        # A file's size bounds its header, so its matrix is allocated once;
        # a pipe's rows are kept as they arrive and stacked at the end.
        matrix = np.empty((count, dim), dtype=np.float32) if math.isfinite(body) else None
        words, rows = [], []
        for i, (where, line) in zip(range(count), lines):
            # word2vec's C tool ends each row with a space after the last value
            fields = line.removesuffix(" ").split(" ")
            if len(fields) != dim + 1:
                raise EmbeddingsFormatError(f"{where}: expected {dim} values, got {len(fields) - 1}")
            words.append(fields[0])
            # Parsed to float64 first, then rounded to float32, as float() would.
            try:
                row = np.array(fields[1:], dtype=np.float64)
            except ValueError as exc:
                raise EmbeddingsFormatError(f"{where}: {exc}") from None
            if matrix is None:
                rows.append(row.astype(np.float32))
            else:
                matrix[i] = row
    if len(words) < count:
        raise EmbeddingsFormatError(f"{path}:{len(words) + 2}: expected {count} rows, got {len(words)}")
    if matrix is None:
        matrix = np.array(rows, dtype=np.float32).reshape(count, dim)
    return words, matrix


def read_embeddings_binary(path: str | Path) -> tuple[list[str], np.ndarray]:
    data = Path(path).read_bytes()
    nl = data.find(b"\n")
    if nl < 0:
        raise EmbeddingsFormatError(f"{path}: missing header line")
    count, dim = _parse_header(data[:nl].split(), str(path), len(data) - nl - 1)
    row_bytes = 4 * dim
    words = []
    matrix = np.empty((count, dim), dtype=np.float32)
    pos = nl + 1
    for i in range(count):
        sep = data.find(b" ", pos)
        if sep < 0:
            raise EmbeddingsFormatError(f"{path}: row {i}: missing word separator")
        try:
            words.append(data[pos:sep].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise EmbeddingsFormatError(
                f"{path}: row {i}: invalid UTF-8 at byte offset {pos + exc.start}"
            ) from None
        start = sep + 1
        end = start + row_bytes
        if end + 1 > len(data):
            raise EmbeddingsFormatError(f"{path}: row {i}: truncated vector")
        matrix[i] = np.frombuffer(data[start:end], dtype="<f4")
        if data[end : end + 1] != b"\n":
            raise EmbeddingsFormatError(f"{path}: row {i}: missing newline terminator")
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
