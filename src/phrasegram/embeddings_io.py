"""word2vec-compatible embedding interchange.

Text format: a header line ``<count> <dim>`` followed by one line per
word, ``word v1 ... vd`` with floats printed as ``'%.9g' % v`` prints
them, byte for byte (lossless for float32).  The compiled kernel writes
whole lines, every value included, a block of rows at a time
(`kernel.TextLines`), into one buffer allocated once per export, and the
writer hands each block's bytes to a file opened in binary mode; so the
memory of an export does not grow with its rows.  Binary format: the
same ASCII header line, then for each word its UTF-8 bytes, a single
space, d little-endian float32 values, and a trailing newline byte; the
writer joins a block of rows into one bytes object per write.  Vectors
are stored at float32 precision in both formats.  Neither format can
hold a word that is empty or holds whitespace, so both writers reject
one, naming its row, before they create the file, and both readers
reject one, the text reader naming its line and the binary reader its
row.
"""

from __future__ import annotations

import math
import os
import stat
from contextlib import closing
from pathlib import Path
from typing import Sequence

import numpy as np

from phrasegram import kernel
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


# Values per block of rows: the text writer formats a block per kernel call,
# and both writers write a block at a time.
BLOCK_VALUES = 8192


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


def _word_error(where: str, word: str) -> EmbeddingsFormatError:
    return EmbeddingsFormatError(
        f"{where}: word {word!r} is empty or holds whitespace, which the word2vec formats cannot hold"
    )


def _joined_words(path: str | Path, words: Sequence[str], start: int, stop: int) -> str:
    """Rows [start, stop) of `words` joined by newlines, each checked to be a
    word that both formats can hold: not empty, and free of whitespace as
    `str.split()` splits at it, else the reader would split it or take the
    next value for it.  The corpus reader never makes such a word, and both
    readers reject one.  The join and the split run at C speed; only a
    block that fails looks at its words one by one, to name the first bad
    one.
    """
    block = list(words[start:stop])
    text = "\n".join(block)
    if text.split() != block:
        row, word = next((start + i, w) for i, w in enumerate(block) if w.split() != [w])
        raise _word_error(f"{path}: row {row}", word)
    return text


def write_embeddings_text(
    path: str | Path, words: Sequence[str], matrix: np.ndarray
) -> None:
    """Writes `matrix`'s rows at float32 as word2vec text, each under its word.

    Every word is checked, and encoded a block at a time, before the file
    is created.  The rows go to the kernel a block at a time,
    BLOCK_VALUES values or one row, with their words, and each
    block's lines go to the file as the kernel wrote them.  The float32
    copy of a block and the kernel's buffers, which are allocated once,
    stay small and fixed whatever the number of rows.
    """
    matrix = np.asarray(matrix)
    if len(words) != matrix.shape[0]:
        raise ValueError("word list and matrix row count differ")
    dim = matrix.shape[1]
    step = max(BLOCK_VALUES // max(dim, 1), 1)
    blocks = [
        _joined_words(path, words, start, start + step).encode() for start in range(0, len(words), step)
    ]
    lines = kernel.TextLines(step, dim, max(map(len, blocks), default=0))
    with output_file(path, "wb") as fh:
        fh.write(f"{len(words)} {dim}\n".encode())
        for i, block in enumerate(blocks):
            rows = np.ascontiguousarray(matrix[i * step : (i + 1) * step], dtype=np.float32)
            fh.write(lines(block, rows))


def write_embeddings_binary(
    path: str | Path, words: Sequence[str], matrix: np.ndarray
) -> None:
    """Writes `matrix`'s rows at float32 as word2vec binary, each under its
    word.

    Every word is checked, and encoded a block at a time, before the file
    is created.  Each block of BLOCK_VALUES values or one row is joined
    into one bytes object, its words, spaces, rows and newlines in one
    pass, and written in one call.
    """
    matrix = np.asarray(matrix)
    if len(words) != matrix.shape[0]:
        raise ValueError("word list and matrix row count differ")
    dim = matrix.shape[1]
    step = max(BLOCK_VALUES // max(dim, 1), 1)
    blocks = [
        _joined_words(path, words, start, start + step).encode() for start in range(0, len(words), step)
    ]
    with output_file(path, "wb") as fh:
        fh.write(f"{len(words)} {dim}\n".encode())
        for i, block in enumerate(blocks):
            rows = np.ascontiguousarray(matrix[i * step : (i + 1) * step], dtype="<f4")
            # Each row's word and space, its values, then a newline.
            parts = [b"\n"] * (3 * len(rows))
            parts[0::3] = [word + b" " for word in block.split(b"\n")]
            parts[1::3] = rows
            fh.write(b"".join(parts))


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
            if fields[0].split() != [fields[0]]:
                raise _word_error(where, fields[0])
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
            word = data[pos:sep].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EmbeddingsFormatError(
                f"{path}: row {i}: invalid UTF-8 at byte offset {pos + exc.start}"
            ) from None
        if word.split() != [word]:
            raise _word_error(f"{path}: row {i}", word)
        words.append(word)
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
