"""Embedding interchange round-trips, nearest-neighbor queries, run
manifests, the one writer of every output file, and the command-line
surface with its exit-code contract.
"""

import ast
import errno
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import threading
import warnings
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phrasegram.cli
import phrasegram.corpus
import phrasegram.embeddings_io
import phrasegram.evaluation
from phrasegram.cli import main
from phrasegram.composition import CompositionConfig, compose_rows
from phrasegram.corpus import Vocab, output_file
from phrasegram.evaluation import WordEmbeddings, _float32_score_error, cosine, nearest_neighbors
from phrasegram.embeddings_io import (
    EmbeddingsFormatError,
    export_embeddings,
    read_embeddings,
    read_embeddings_binary,
    read_embeddings_text,
    select_matrix,
    write_embeddings_binary,
    write_embeddings_text,
)
from phrasegram.manifest import (
    ManifestError,
    build_manifest,
    comparable_items,
    file_sha256,
    params_sha256,
    read_manifest,
    write_manifest,
)
from phrasegram.model import (
    CheckpointFormatError,
    Mode,
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    init_params,
)
from phrasegram.trainer import train


@contextmanager
def _piped(tmp_path, data: bytes):
    """A FIFO that a thread fills with `data`; the thread is joined on exit."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        yield fifo
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def random_embedding(rng, n=5, d=3):
    words = [f"w{i}" for i in range(n)]
    matrix = rng.normal(size=(n, d)).astype(np.float32)
    return words, matrix


def check_text_export(words, matrix):
    """write_embeddings_text's bytes against per-value '%.9g', header included."""
    matrix = np.asarray(matrix, dtype=np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "e.txt")
        write_embeddings_text(path, words, matrix)
        got = path.read_bytes()
    expected = f"{len(words)} {matrix.shape[1]}\n" + "".join(
        word + " " + " ".join(["%.9g" % x for x in row.tolist()]) + "\n"
        for word, row in zip(words, matrix)
    )
    assert got == expected.encode("utf-8")


def _float32_window(x, half):
    """The 2 * half float32s nearest float32(x) in bit order, from bit pattern
    0 at the least, and their negations."""
    bits = int(np.array(x, dtype=np.float32).view(np.uint32))
    window = np.arange(max(bits - half, 0), bits + half, dtype=np.uint32).view(np.float32)
    return np.concatenate([window, -window])


def check_text_export_cases():
    """The text writer on the edges of the kernel's fixed notation, every
    power of ten, ties, the carry into a power of ten, its widest texts and
    every special value, in rows that span blocks.

    Every float32 of the binades around 1e-4 and 1e9 would take some 30 s;
    the windows here hold the 2^15 on either side of each edge.
    """
    dim = 128
    step = max(phrasegram.embeddings_io.BLOCK_VALUES // dim, 1)
    # Both edges of fixed notation, 1e-4 and 1e9, and every power of ten of
    # float32, 1e-45 (a subnormal) to 1e38.
    edges = np.concatenate(
        [_float32_window(x, 1 << 15) for x in (1e-4, 1e9)]
        + [_float32_window(10.0**k, 64) for k in range(-45, 39)]
    )
    # Ties at 9 digits, rounding down and up to an even 9th digit.
    ties = [sign * x for sign in (1, -1) for x in (513 / 1024, 515 / 1024, 513 / 512, 515 / 512,
                                                   1 / 8192, 3 / 8192)]
    specials = [0.0, -0.0, 1e-45, -1e-45, 1.17549435e-38, 3.4028235e38, -3.4028235e38,
                np.inf, -np.inf, np.nan, 1.0, 1e8, 123456789.0, 999999936.0]
    bits = np.array([
        0x00000001, 0x007FFFFF, 0x00800000, 0x7F7FFFFF, 0xFF7FFFFF,  # subnormals, normal, FLT_MAX
        # The one float32 whose 9 digits round up into the next power of ten,
        # 9.99999999820e-24, which prints as 1e-23: a scan of the float32 below
        # each power of ten from 1e-45 to 1e39 found no other.
        0x19416D9A, 0x99416D9A,
        # NaNs of either sign, quiet and signaling, with other payloads.
        0xFFC00000, 0x7FC00001, 0x7F800001, 0xFF800001, 0x7FFFFFFF, 0xFFFFFFFF,
    ], dtype=np.uint32).view(np.float32)
    values = np.concatenate([edges, np.array(ties + specials, dtype=np.float32), bits])
    values = np.concatenate([values, np.zeros(-len(values) % dim, dtype=np.float32)])
    check_text_export([f"w{i}" for i in range(len(values) // dim)], values.reshape(-1, dim))
    # Every value at the widest text, fixed and exponent: a block fills the
    # kernel's buffer, and the exponent blocks' long multi-byte words fill the
    # words' share of it.
    for widest, words in [
        (np.float32(-0.000123456775), ["a"] * step),
        (np.float32(-1.23456787e-38), [f"{i:03d}" + "жд€" * 20 for i in range(2 * step)]),
    ]:
        assert len("%.9g" % widest) == 15
        check_text_export(words, np.full((len(words), dim), widest))
    # Words that hold the directive character: the text never goes through `%`.
    check_text_export(["100%", "%s", "%.9g", "%%", "%(x)s"], np.full((5, 2), 1e-5))
    # Rows that straddle block boundaries, each under its own word.
    rows = 3 * step + 1
    words = [f"w{i}" for i in range(rows - 1)] + ["café"]
    check_text_export(words, np.arange(rows * 3).reshape(rows, 3) / 7.0)
    check_text_export(["x", "y"], np.zeros((2, 0)))
    check_text_export([], np.zeros((0, 4)))


def check_drawn_bit_patterns(data):
    """Rows of uint32 bit patterns, drawn, viewed as float32."""
    rows = data.draw(st.integers(0, 6), label="rows")
    dim = data.draw(st.integers(0, 24), label="dim")
    bits = data.draw(
        st.lists(st.integers(0, 2**32 - 1), min_size=rows * dim, max_size=rows * dim), label="bits"
    )
    matrix = np.array(bits, dtype=np.uint32).view(np.float32).reshape(rows, dim)
    check_text_export([f"w{i}" for i in range(rows)], matrix)


class TestTextFormat:
    def test_edges_specials_and_blocks_match_per_value_formatting(self):
        check_text_export_cases()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_drawn_bit_patterns_match_per_value_formatting(self, data):
        check_drawn_bit_patterns(data)

    def test_round_trip_is_exact_at_float32(self, tmp_path):
        rng = np.random.default_rng(3)
        words, matrix = random_embedding(rng, n=20, d=7)
        # extreme magnitudes stress the decimal representation
        matrix[0, 0] = np.float32(1.1754944e-38)
        matrix[1, 1] = np.float32(3.4028235e38)
        path = tmp_path / "e.txt"
        write_embeddings_text(path, words, matrix)
        got_words, got = read_embeddings_text(path)
        assert got_words == words
        np.testing.assert_array_equal(got, matrix)

    def test_bytes_match_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(9)
        words = [f"w{i}" for i in range(30)] + ["café"]
        matrix = rng.normal(size=(31, 9)) * 10.0 ** rng.integers(-44, 38, size=(31, 9))
        matrix = matrix.astype(np.float32)
        specials = [0.0, -0.0, 1e-45, -3e-39, 1.1754942e-38, 3.4028235e38, -1e38, 1e-7]
        matrix[0, : len(specials)] = specials
        path = tmp_path / "e.txt"
        write_embeddings_text(path, words, matrix)
        expected = f"{len(words)} 9\n" + "".join(
            word + " " + " ".join("%.9g" % x for x in row) + "\n"
            for word, row in zip(words, matrix)
        )
        assert path.read_bytes() == expected.encode("utf-8")
        assert "-0 " in path.read_text() and "e-45" in path.read_text()

    def test_header_and_line_count(self, tmp_path):
        path = tmp_path / "e.txt"
        write_embeddings_text(path, ["a", "b"], np.zeros((2, 2), dtype=np.float32))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "2 2"

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("2 3 extra\n")
        with pytest.raises(EmbeddingsFormatError, match="header"):
            read_embeddings_text(path)

    def test_missing_rows_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("2 2\na 1 2\n")
        with pytest.raises(EmbeddingsFormatError, match="expected 2 rows"):
            read_embeddings_text(path)

    def test_wrong_value_count_rejected(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 3\na 1 2\n")
        with pytest.raises(EmbeddingsFormatError, match="expected 3 values"):
            read_embeddings_text(path)

    def test_rows_may_end_in_one_space(self, tmp_path):
        # as the original word2vec C tool writes every row ("%lf " per value)
        path = tmp_path / "e.txt"
        path.write_text("2 3\na 1 2 3 \nb 4 5 6 \n")
        words, matrix = read_embeddings_text(path)
        assert words == ["a", "b"]
        assert matrix.tolist() == [[1, 2, 3], [4, 5, 6]]

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("2 x\n", 1, "header must be '<count> <dim>'"),
            ("-1 2\n", 1, "header must be '<count> <dim>'"),
            ("", 1, "header must be '<count> <dim>'"),
            ("2 2\na 1 2\n", 3, "expected 2 rows, got 1"),
            ("2 3\na 1 2 3\nb 1 2\n", 3, "expected 3 values, got 2"),
            ("1 2\na 1 x\n", 2, "could not convert string to float: 'x'"),
            ("1 2\na 1 \n", 2, "expected 2 values, got 1"),
            ("1 2\na 1 2  \n", 2, "expected 2 values, got 3"),
            ("200000 100000\nw 1\n", 1, "header declares 200000 rows of 100000 values, "
             "more than the 4 bytes after it can hold"),
            ("3000000000 3\nw 1\n", 1, "header declares 3000000000 rows of 3 values, "
             "more than the 4 bytes after it can hold"),
            ("99999999999 99999999999\nw 1\n", 1, "header declares 99999999999 rows of "
             "99999999999 values, more than the 4 bytes after it can hold"),
            # One byte per value is the header's bound: at it, the row is what fails.
            ("1 3\nabc", 2, "expected 3 values, got 0"),
            ("1 4\nabc", 1, "header declares 1 rows of 4 values, more than the 3 bytes after it can hold"),
        ],
    )
    def test_errors_name_path_and_line(self, tmp_path, text, line, reason):
        path = tmp_path / "e.txt"
        path.write_text(text)
        with pytest.raises(EmbeddingsFormatError, match="^" + re.escape(f"{path}:{line}: {reason}")):
            read_embeddings_text(path)

    def test_reads_a_pipe(self, tmp_path):
        # A pipe has no size to check the header against.
        with _piped(tmp_path, b"2 2\na 1 2\nb 3 4\n") as fifo:
            words, matrix = read_embeddings_text(fifo)
        assert words == ["a", "b"] and matrix.tolist() == [[1, 2], [3, 4]]

    def test_smallest_file_for_its_header_loads(self, tmp_path):
        # One-character words and values, no line break after the last row.
        path = tmp_path / "e.txt"
        path.write_text("2 2\na 1 2\nb 3 4")
        words, matrix = read_embeddings_text(path)
        assert words == ["a", "b"] and matrix.tolist() == [[1, 2], [3, 4]]


class TestBinaryFormat:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        words, matrix = random_embedding(rng, n=15, d=9)
        path = tmp_path / "e.bin"
        write_embeddings_binary(path, words, matrix)
        got_words, got = read_embeddings_binary(path)
        assert got_words == words
        np.testing.assert_array_equal(got, matrix)

    def test_byte_length_matches_layout(self, tmp_path):
        words = ["alpha", "be", "éclair"]
        matrix = np.ones((3, 4), dtype=np.float32)
        path = tmp_path / "e.bin"
        write_embeddings_binary(path, words, matrix)
        header = f"{3} {4}\n".encode("utf-8")
        body = sum(len(w.encode("utf-8")) + 1 + 4 * 4 + 1 for w in words)
        assert path.stat().st_size == len(header) + body

    def test_agrees_with_text_export(self, tmp_path):
        rng = np.random.default_rng(7)
        words, matrix = random_embedding(rng, n=10, d=5)
        write_embeddings_text(tmp_path / "e.txt", words, matrix)
        write_embeddings_binary(tmp_path / "e.bin", words, matrix)
        wt, mt = read_embeddings_text(tmp_path / "e.txt")
        wb, mb = read_embeddings_binary(tmp_path / "e.bin")
        assert wt == wb
        np.testing.assert_array_equal(mt, mb)

    def test_truncated_vector_rejected(self, tmp_path):
        path = tmp_path / "e.bin"
        write_embeddings_binary(path, ["a", "b"], np.ones((2, 3), dtype=np.float32))
        data = path.read_bytes()
        path.write_bytes(data[:-6])
        with pytest.raises(EmbeddingsFormatError, match="truncated|newline|separator"):
            read_embeddings_binary(path)

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b"1 2", "missing header line"),
            (b"1 x\n", "header must be '<count> <dim>'"),
            (b"1 1\na", "row 0: missing word separator"),
            (b"1 1\na \0\0\0\0", "row 0: truncated vector"),
            (b"1 1\na \0\0\0\0x", "row 0: missing newline terminator"),
            (b"1 1\n\xff \0\0\0\0\n", "row 0: invalid UTF-8 at byte offset 4"),
            (b"200000 100000\nw \0\0\0\0\n", "header declares 200000 rows of 100000 values, "
             "more than the 7 bytes after it can hold"),
            (b"3000000000 3\nw \0\0\0\0\n", "header declares 3000000000 rows of 3 values, "
             "more than the 7 bytes after it can hold"),
            (b"99999999999 99999999999\nw \0\0\0\0\n", "header declares 99999999999 rows of "
             "99999999999 values, more than the 7 bytes after it can hold"),
        ],
    )
    def test_errors_name_path(self, tmp_path, data, reason):
        path = tmp_path / "e.bin"
        path.write_bytes(data)
        with pytest.raises(EmbeddingsFormatError, match="^" + re.escape(f"{path}: {reason}")):
            read_embeddings_binary(path)

    def test_smallest_file_for_its_header_loads(self, tmp_path):
        # One-character words: a word, a separator, 4 * dim bytes and a
        # newline per row.
        path = tmp_path / "e.bin"
        path.write_bytes(b"2 1\n" + b"a \0\0\0\0\n" + b"b \0\0\0\0\n")
        words, matrix = read_embeddings_binary(path)
        assert words == ["a", "b"] and matrix.tolist() == [[0.0], [0.0]]

    @pytest.mark.parametrize(
        "block_values, rows, dim, order",
        [(9, rows, 3, "C") for rows in range(8)]
        + [(9, 7, 3, "F"), (9, 4, 0, "C"), (None, 82, 100, "C")],
    )
    def test_bytes_match_the_per_row_form(self, tmp_path, monkeypatch, block_values, rows, dim, order):
        # Blocks of 3 rows at 9 values, or the shipped blocks of 81 rows at
        # dim 100: none, one or several blocks, a short last one included.
        if block_values is not None:
            monkeypatch.setattr(phrasegram.embeddings_io, "BLOCK_VALUES", block_values)
        words = [f"{i}" + "жд€"[: i % 4] for i in range(rows)]
        matrix = np.asarray(np.random.default_rng(rows).normal(size=(rows, dim)), order=order)
        path = tmp_path / "e.bin"
        write_embeddings_binary(path, words, matrix)
        per_row = b"".join(
            w.encode("utf-8") + b" " + row.astype("<f4").tobytes() + b"\n" for w, row in zip(words, matrix)
        )
        assert path.read_bytes() == f"{rows} {dim}\n".encode() + per_row

    def test_unicode_words_survive(self, tmp_path):
        words = ["café", "中文", "emoji✨"]
        matrix = np.arange(9, dtype=np.float32).reshape(3, 3)
        path = tmp_path / "e.bin"
        write_embeddings_binary(path, words, matrix)
        got_words, got = read_embeddings_binary(path)
        assert got_words == words
        np.testing.assert_array_equal(got, matrix)


# Words that neither format can hold: each would read back split in two, or
# read as no word at all.
BAD_WORDS = {"space": "a b", "newline": "a\nb", "empty": "", "tab": "a\tb", "ideographic-space": "a\u3000b"}
WRITERS = {"text": write_embeddings_text, "binary": write_embeddings_binary}


class TestWordsTheFormatsCannotHold:
    """Both writers reject a word that is empty or holds whitespace, naming
    its row, before they create the file; both readers reject one, the text
    reader naming its line and the binary reader its row."""

    # A space ends a word in either format, and a newline a text line, so
    # those words read as other rows, rejected by the checks on values.
    @pytest.mark.parametrize(
        "fmt, case",
        [("text", c) for c in ("empty", "ideographic-space", "tab")]
        + [("binary", c) for c in ("empty", "ideographic-space", "newline", "tab")],
    )
    def test_readers_reject_one(self, tmp_path, fmt, case):
        word = BAD_WORDS[case]
        path = tmp_path / "e"
        words = ["c", word, "d"]
        if fmt == "text":
            path.write_text("3 2\n" + "".join(f"{w} 1 2\n" for w in words), encoding="utf-8")
            message = f"{path}:3: word {word!r} is empty or holds whitespace"
        else:
            row = np.ones(2, dtype="<f4").tobytes()
            path.write_bytes(b"3 2\n" + b"".join(w.encode() + b" " + row + b"\n" for w in words))
            message = f"{path}: row 1: word {word!r} is empty or holds whitespace"
        with pytest.raises(EmbeddingsFormatError, match="^" + re.escape(message)):
            read_embeddings(path, fmt)

    @pytest.mark.parametrize("fmt", sorted(WRITERS))
    @pytest.mark.parametrize("case", sorted(BAD_WORDS))
    def test_rejected_before_the_file_is_created(self, tmp_path, fmt, case):
        word = BAD_WORDS[case]
        path = tmp_path / "e"
        path.write_bytes(b"previous contents")
        message = f"{path}: row 1: word {word!r} is empty or holds whitespace"
        with pytest.raises(EmbeddingsFormatError, match="^" + re.escape(message)):
            WRITERS[fmt](path, ["c", word, "d"], np.ones((3, 2), dtype=np.float32))
        assert [p.name for p in tmp_path.iterdir()] == ["e"]
        assert path.read_bytes() == b"previous contents"

    @pytest.mark.parametrize("fmt", sorted(WRITERS))
    def test_names_the_row_in_a_later_block(self, tmp_path, fmt):
        words = [f"w{i}" for i in range(3 * phrasegram.embeddings_io.BLOCK_VALUES)]
        words[-2] = "x y"
        with pytest.raises(EmbeddingsFormatError, match=f"row {len(words) - 2}: word 'x y'"):
            WRITERS[fmt](tmp_path / "e", words, np.zeros((len(words), 1), dtype=np.float32))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", sorted(WRITERS))
    def test_cli_export_exits_2(self, tmp_path, capsys, fmt):
        cfg = TrainConfig(dim=2, window=1, min_count=1)
        ckpt, out = tmp_path / "m.ckpt", tmp_path / "e"
        checkpoint_save(ckpt, init_params(2, cfg, np.random.default_rng(0)), cfg, Vocab(["c", "a b"], [2, 1]))
        assert main(["export", "--model", str(ckpt), "--out", str(out), "--format", fmt]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}: row 1: word 'a b' is empty or holds whitespace, "
            "which the word2vec formats cannot hold\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt"]


class TestExportSelection:
    def _params(self, mode=Mode.COMPOSITIONAL):
        cfg = TrainConfig(dim=3, window=2, min_count=1, mode=mode)
        rng = np.random.default_rng(9)
        params = init_params(4, cfg, rng)
        for _, m in params.matrices():
            m[:] = rng.normal(size=m.shape)
        return params

    def test_select_each_matrix(self):
        params = self._params()
        assert select_matrix(params, "input") is params.input_words
        assert select_matrix(params, "output", 0) is params.output_words[0]
        assert (
            select_matrix(params, "phrase-output", 0)
            is params.phrase_output_words[0]
        )

    def test_unknown_bank_rejected(self):
        params = self._params()
        with pytest.raises(ValueError, match="bank 3 out of range"):
            select_matrix(params, "output", 3)
        with pytest.raises(ValueError, match="out of range"):
            select_matrix(params, "phrase-output", 1)
        with pytest.raises(ValueError, match="input bank 1 out of range"):
            select_matrix(params, "input", 1)

    def test_phrase_matrix_absent_in_baseline(self):
        params = self._params(Mode.BASELINE)
        with pytest.raises(ValueError, match="no component-word"):
            select_matrix(params, "phrase-output", 0)

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError, match="selector"):
            select_matrix(self._params(), "hidden")

    def test_export_writes_float32_of_selected_matrix(self, tmp_path):
        params = self._params()
        vocab = Vocab([f"w{i}" for i in range(4)], [4, 3, 2, 1])
        path = tmp_path / "e.txt"
        export_embeddings(params, vocab, path, format="text", which="input")
        words, matrix = read_embeddings_text(path)
        assert words == vocab.words
        np.testing.assert_array_equal(
            matrix, params.input_words.astype(np.float32)
        )


def brute_force_neighbors(emb, query_ids, target, k):
    """Float64 reference: every row scored, ordered by (-score, row id), the
    query's own rows and rows that are not finite left out.  Rows are scored
    one by one, so equal rows score equal, which a matrix product does not
    promise."""
    norms = np.linalg.norm(emb.matrix, axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):  # a row holding an infinity normalizes to NaN
        unit = emb.matrix / np.where(norms == 0.0, 1.0, norms)
    scores = np.einsum("ij,j->i", unit, target / np.linalg.norm(target))
    eligible = np.isfinite(scores)
    eligible[list(query_ids)] = False
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [(emb.words[i], float(scores[i])) for i in order[eligible[order]][:k]]


def assert_same_neighbors(got, expected):
    assert [w for w, _ in got] == [w for w, _ in expected]
    np.testing.assert_allclose([s for _, s in got], [s for _, s in expected], rtol=0, atol=1e-12)


class TestNearestNeighbors:
    def test_served_from_evaluation(self):
        assert phrasegram.embeddings_io.nearest_neighbors is phrasegram.evaluation.nearest_neighbors

    def test_duplicate_vector_ranks_first_with_cosine_one(self):
        matrix = np.array([[1.0, 2.0], [3.0, -1.0], [2.0, 4.0]])
        emb = WordEmbeddings(["a", "b", "twin"], matrix)
        (top,) = nearest_neighbors(emb, "a", k=1)
        assert top[0] == "twin"
        assert top[1] == pytest.approx(1.0)

    def test_large_k_returns_all_other_words_sorted(self):
        rng = np.random.default_rng(11)
        emb = WordEmbeddings([f"w{i}" for i in range(6)], rng.normal(size=(6, 4)))
        results = nearest_neighbors(emb, "w2", k=50)
        assert len(results) == 5
        assert "w2" not in [w for w, _ in results]
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    def test_matches_brute_force_ranking(self):
        rng = np.random.default_rng(13)
        words = [f"w{i}" for i in range(20)]
        emb = WordEmbeddings(words, rng.normal(size=(20, 5)))
        got = nearest_neighbors(emb, "w7", k=19)
        target = emb.matrix[7]
        expected = sorted(
            (
                (w, cosine(emb.matrix[i], target))
                for i, w in enumerate(words)
                if i != 7
            ),
            key=lambda t: -t[1],
        )
        assert [w for w, _ in got] == [w for w, _ in expected]
        for (_, sa), (_, sb) in zip(got, expected):
            assert sa == pytest.approx(sb, abs=1e-12)

    def test_phrase_query_composes_and_excludes_components(self):
        rng = np.random.default_rng(17)
        words = [f"w{i}" for i in range(8)]
        emb = WordEmbeddings(words, rng.normal(size=(8, 4)))
        comp = CompositionConfig(alpha=1.0)
        results = nearest_neighbors(emb, "[w1 w4]", k=6, comp=comp)
        names = [w for w, _ in results]
        assert "w1" not in names and "w4" not in names
        composed = (emb.matrix[1] + emb.matrix[4]) / 2.0
        best = max(
            ((w, cosine(emb.matrix[i], composed)) for i, w in enumerate(words)
             if i not in (1, 4)),
            key=lambda t: t[1],
        )
        assert results[0][0] == best[0]

    @pytest.mark.parametrize("alpha", [1.0, 3.0])
    def test_bracketed_word_is_composed_and_a_bare_word_is_not(self, alpha):
        emb = WordEmbeddings([f"w{i}" for i in range(50)], np.random.default_rng(0).normal(size=(50, 6)))
        comp = CompositionConfig(alpha=alpha)
        phrase = nearest_neighbors(emb, "[w3]", k=5, comp=comp)
        word = nearest_neighbors(emb, "w3", k=5, comp=comp)
        assert_same_neighbors(phrase, brute_force_neighbors(emb, [3], compose_rows(emb.matrix, [3], alpha), 5))
        assert_same_neighbors(word, brute_force_neighbors(emb, [3], emb.matrix[3], 5))
        if alpha == 1.0:
            assert phrase == word  # the mean of one row is the row, bit for bit
        else:
            assert [w for w, _ in phrase][:3] == ["w37", "w32", "w36"] != [w for w, _ in word][:3]

    def test_oov_query_lists_missing_words(self):
        emb = WordEmbeddings(["a", "b"], np.ones((2, 2)))
        with pytest.raises(KeyError, match="ghost"):
            nearest_neighbors(emb, "ghost")
        with pytest.raises(KeyError, match="ghost, phantom"):
            nearest_neighbors(emb, "[a ghost phantom]")

    def test_k_below_one_rejected(self):
        emb = WordEmbeddings(["a", "b"], np.ones((2, 2)))
        with pytest.raises(ValueError, match="k"):
            nearest_neighbors(emb, "a", k=0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_serving_sized_matrix_matches_brute_force(self, alpha):
        # 5000 x 100 like the served benchmark checkpoint: init_params' input range,
        # with 40 rows that are exact copies of 10 others, 5 equal rows to a value
        rng = np.random.default_rng(29)
        n, d = 5000, 100
        matrix = rng.uniform(-0.5 / d, 0.5 / d, (n, d))
        copied = rng.choice(n, size=50, replace=False)
        matrix[copied[10:]] = matrix[np.tile(copied[:10], 4)]
        emb = WordEmbeddings([f"w{i}" for i in range(n)], matrix)
        comp = CompositionConfig(alpha=alpha)
        for size in [1, 2, 3] * 12:
            ids = [int(i) for i in rng.choice(copied if size == 1 else n, size)]
            query = " ".join(f"w{i}" for i in ids)
            if size == 1:
                target = emb.matrix[ids[0]]
            else:
                query, target = f"[{query}]", compose_rows(emb.matrix, ids, alpha)
            for k in (1, 10):
                assert_same_neighbors(
                    nearest_neighbors(emb, query, k=k, comp=comp),
                    brute_force_neighbors(emb, ids, target, k),
                )

    @pytest.mark.parametrize("k", [3, 5, 8, 20])
    def test_zero_rows_tie_by_row_id(self, k):
        # two rows score above the zero rows' exact 0.0, three below
        matrix = np.zeros((10, 4))
        matrix[[0, 4, 9]] = [[1.0, 0.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0]]
        matrix[[1, 5, 7]] = [[-1.0, 1.0, 0.0, 0.0], [-2.0, 0.0, 1.0, 0.0], [-1.0, 0.0, 0.0, 5.0]]
        emb = WordEmbeddings([f"w{i}" for i in range(10)], matrix)
        got = nearest_neighbors(emb, "w0", k=k)
        assert_same_neighbors(got, brute_force_neighbors(emb, [0], matrix[0], k))
        assert [w for w, _ in got][:6] == ["w4", "w9", "w2", "w3", "w6", "w8"][:k]

    @pytest.mark.parametrize("k", [6, 7, 100])
    def test_repeated_word_phrase_with_k_past_the_eligible_rows(self, k):
        rng = np.random.default_rng(31)
        emb = WordEmbeddings([f"w{i}" for i in range(7)], rng.normal(size=(7, 5)))
        got = nearest_neighbors(emb, "[w3 w3]", k=k)
        assert len(got) == 6
        assert_same_neighbors(got, brute_force_neighbors(emb, [3, 3], emb.matrix[3], k))

    @pytest.mark.parametrize("gap", [1e-12, 1e-10, 1e-8, 1e-7, 1e-6, 5e-6])
    def test_planted_near_ties_at_the_kth_place(self, gap):
        # 30 rows with cosines 0.6, 0.6 - gap, ..., at shuffled row ids; the
        # 10th place falls among them and float32 cannot tell most apart
        rng = np.random.default_rng(37)
        n, d = 2000, 100
        matrix = rng.normal(size=(n, d))
        query = rng.normal(size=d)
        query /= np.linalg.norm(query)
        matrix[0] = query
        planted = rng.permutation(np.arange(1, n))[:30]
        for j, row in enumerate(planted):
            other = rng.normal(size=d)
            other -= (other @ query) * query
            cos = 0.6 - j * gap
            matrix[row] = cos * query + np.sqrt(1.0 - cos * cos) * other / np.linalg.norm(other)
        emb = WordEmbeddings([f"w{i}" for i in range(n)], matrix)
        got = nearest_neighbors(emb, "w0", k=10)
        assert_same_neighbors(got, brute_force_neighbors(emb, [0], query, 10))
        assert [w for w, _ in got] == [f"w{i}" for i in planted[:10]]

    @pytest.mark.parametrize("count, k", [(7, 7), (14, 1), (14, 4), (14, 14)])
    def test_equal_rows_tie_by_row_id(self, count, k):
        # a matrix product can score equal rows a rounding apart by position
        # (OpenBLAS's gemv, when the row count is not a multiple of 4)
        rng = np.random.default_rng(41)
        n, d = 500, 100
        matrix = rng.normal(size=(n, d))
        copies = np.sort(rng.choice(np.arange(1, n), size=count, replace=False))
        matrix[copies] = matrix[0] + 0.1 * rng.normal(size=d)
        emb = WordEmbeddings([f"w{i}" for i in range(n)], matrix)
        got = nearest_neighbors(emb, "w0", k=k)
        assert [w for w, _ in got] == [f"w{i}" for i in copies[:k]]
        assert len({s for _, s in got}) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected_by_name(self, bad):
        matrix = np.ones((4, 3))
        matrix[1, 2] = bad
        emb = WordEmbeddings(["a", "b", "c", "d"], matrix)
        with pytest.raises(ValueError, match=re.escape("query vector of b is not finite")):
            nearest_neighbors(emb, "b")
        with pytest.raises(ValueError, match=re.escape("query vector of [a b] is not finite")):
            nearest_neighbors(emb, "[a b]")
        matrix[1] = 0.0
        with pytest.raises(ValueError, match=re.escape("query vector of b is zero")):
            nearest_neighbors(WordEmbeddings(["a", "b", "c", "d"], matrix), "b")

    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_non_finite_rows_never_returned(self, k):
        rng = np.random.default_rng(43)
        matrix = rng.normal(size=(8, 5))
        matrix[2, 1], matrix[5, 0], matrix[6, 4] = np.nan, np.inf, -np.inf
        # the query's nearest rows, but not finite
        matrix[[2, 5, 6]] += 100.0 * matrix[0]
        # its nearest finite rows: three equal ones, answered by lower id
        matrix[[1, 4, 7]] = matrix[0] + 0.1 * rng.normal(size=5)
        emb = WordEmbeddings([f"w{i}" for i in range(8)], matrix)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the infinite rows normalize without a warning
            got = nearest_neighbors(emb, "w0", k=k)
        assert_same_neighbors(got, brute_force_neighbors(emb, [0], matrix[0], k))
        assert len(got) == min(k, 4)
        assert [w for w, _ in got][:3] == ["w1", "w4", "w7"][:k]


class TestFloat32ScoreBound:
    """eps(d) bounds |float32 score - float64 score| on the unit rows that
    nearest_neighbors scans, computed the same way."""

    @staticmethod
    def unit_vectors(rng, d):
        n = 64
        dominant = rng.normal(size=(n, d)) * 1e-3
        dominant[:, 0] = 1.0
        tiny = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-46, -36, (n, d))
        tiny[:, 0] = rng.choice([-1.0, 1.0], n)  # the rest near or in float32's subnormals
        equal = np.ones((2, d))
        equal[1, ::2] = -1.0  # cancels to about 0 with the first
        return np.vstack([rng.normal(size=(n, d)), dominant, tiny, equal, -equal])

    @pytest.mark.parametrize("d", [2, 100, 300])
    def test_bound_holds_on_random_and_adversarial_vectors(self, d):
        vectors = self.unit_vectors(np.random.default_rng(d), d)
        emb = WordEmbeddings([f"w{i}" for i in range(len(vectors))], vectors)
        unit, unit32 = emb.unit_matrix(), emb.unit_matrix_f32()
        worst = 0.0
        for target in vectors:
            query = target / np.linalg.norm(target)
            s32 = unit32 @ query.astype(np.float32)
            s64 = np.einsum("ij,j->i", unit, query)
            worst = max(worst, float(np.max(np.abs(s32 - s64))))
        assert 0.0 < worst <= _float32_score_error(d)

    def test_bound_is_about_d_plus_3_float32_roundings(self):
        for d in (1, 2, 100, 300, 10_000):
            eps = (d + 3) * 2.0**-24
            assert eps < _float32_score_error(d) < eps * (1.0 + 2.0 * eps)
        assert _float32_score_error(2**23) == np.inf


def tiny_corpus(path, n=60, seed=23):
    rng = np.random.default_rng(seed)
    words = [f"t{i}" for i in range(6)]
    lines = []
    for _ in range(n):
        toks = list(rng.choice(words, size=6))
        lines.append(f"[NP {toks[0]} {toks[1]}] {toks[2]} [VP {toks[3]} {toks[4]}] {toks[5]}")
    path.write_text("\n".join(lines) + "\n")


def tiny_train(corpus, **kw):
    cfg = dict(
        dim=4, window=2, min_count=1, phrase_min_count=1, epochs=1,
        word_negatives=2, phrase_negatives=2, seed=3, mode=Mode.COMPOSITIONAL,
    )
    cfg.update(kw)
    return train(corpus, TrainConfig(**cfg))


class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        items = {"config.dim": "4", "vocab.words": "6", "params.sha256": "ab" * 32}
        path = tmp_path / "run.manifest"
        write_manifest(path, items)
        assert read_manifest(path) == items

    def test_written_sorted_by_key(self, tmp_path):
        path = tmp_path / "run.manifest"
        write_manifest(path, {"b": "2", "a": "1", "c": "3"})
        assert path.read_text() == "a=1\nb=2\nc=3\n"

    def test_no_temp_file_left(self, tmp_path):
        path = tmp_path / "run.manifest"
        write_manifest(path, {"a": "1"})
        assert [p.name for p in tmp_path.iterdir()] == ["run.manifest"]

    def test_unrepresentable_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="representable"):
            write_manifest(tmp_path / "m", {"a=b": "1"})
        with pytest.raises(ValueError, match="representable"):
            write_manifest(tmp_path / "m", {"a": "1\n2"})
        with pytest.raises(ValueError, match="representable"):
            write_manifest(tmp_path / "m", {"": "1"})  # read back as "empty key"
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.text(), st.text()))
    def test_every_manifest_written_reads_back(self, tmp_path_factory, items):
        path = tmp_path_factory.getbasetemp() / "round-trip.manifest"
        try:
            write_manifest(path, items)
        except ValueError:
            return
        assert read_manifest(path) == items

    @pytest.mark.parametrize("items", [{"a\rb": "1"}, {"a": "1\r2"}, {"corpus.path": "a\rx=1"}])
    def test_carriage_return_rejected(self, tmp_path, items):
        # numbered_lines, which reads manifests back, drops a \r before a line's \n
        with pytest.raises(ValueError, match="representable"):
            write_manifest(tmp_path / "m", items)
        assert list(tmp_path.iterdir()) == []

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "m"
        path.write_text("novalue\n")
        with pytest.raises(ManifestError, match="key=value"):
            read_manifest(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "m"
        path.write_text("a=1\na=2\n")
        with pytest.raises(ManifestError, match="duplicate"):
            read_manifest(path)

    def test_value_may_contain_equals(self, tmp_path):
        path = tmp_path / "m"
        write_manifest(path, {"config.mode": "a=b"})
        assert read_manifest(path)["config.mode"] == "a=b"

    def test_build_covers_run_facts(self, tmp_path):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        result = tiny_train(corpus, epochs=2)
        digest = file_sha256(corpus)
        items = build_manifest(result, corpus, digest, wallclock_seconds=1.5)
        assert items["corpus.sha256"] == digest
        assert items["config.dim"] == "4"
        assert items["config.mode"] == "compositional"
        assert items["vocab.words"] == str(len(result.vocab))
        assert items["params.sha256"] == params_sha256(result.params.matrices())
        assert "report.0.e_w" in items and "report.1.e_w" in items
        for i, stats in enumerate(result.report.epochs):
            assert items[f"report.{i}.word_steps"] == str(stats.word_steps)
            assert items[f"report.{i}.phrase_steps"] == str(stats.phrase_steps)
        assert items["wallclock.seconds"] == "1.500"

    def test_comparable_items_mask_timing_only(self):
        items = {
            "config.dim": "4",
            "wallclock.seconds": "9.1",
            "report.0.e_w": "-1.5",
            "report.0.word_steps": "120",
            "report.0.phrase_steps": "7",
            "report.0.tokens_per_s": "1234.5",
        }
        kept = comparable_items(items)
        assert "wallclock.seconds" not in kept
        assert "report.0.tokens_per_s" not in kept
        assert kept["config.dim"] == "4"
        assert kept["report.0.e_w"] == "-1.5"
        assert kept["report.0.word_steps"] == "120"
        assert kept["report.0.phrase_steps"] == "7"

    def test_params_hash_changes_with_values(self, tmp_path):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        result = tiny_train(corpus)
        h1 = params_sha256(result.params.matrices())
        result.params.input_words[0, 0] += 1e-12
        assert params_sha256(result.params.matrices()) != h1

    @pytest.mark.parametrize("layout", ["c-order", "fortran-order", "big-endian", "strided"])
    def test_params_hash_is_the_hash_of_each_matrix_as_c_ordered_bytes(self, layout):
        # hashed from each matrix's buffer, with the digest of its .tobytes()
        rng = np.random.default_rng(17)
        change = {
            "c-order": lambda m: m,
            "fortran-order": np.asfortranarray,
            "big-endian": lambda m: m.astype(">f8"),
            "strided": lambda m: m[:, ::2],
        }[layout]
        matrices = [(name, change(rng.normal(size=(5, 6)))) for name in ("input", "output:0")]
        old = hashlib.sha256()
        for name, m in matrices:
            old.update(name.encode("utf-8"))
            old.update(str(m.shape).encode("utf-8"))
            old.update(m.astype("<f8", copy=False).tobytes())
        assert params_sha256(matrices) == old.hexdigest()

    def test_file_sha256_matches_hashlib(self, tmp_path):
        path = tmp_path / "f"
        path.write_bytes(b"hello world")
        assert file_sha256(path) == hashlib.sha256(b"hello world").hexdigest()


@contextmanager
def _umask(mask):
    old = os.umask(mask)
    try:
        yield
    finally:
        os.umask(old)


def _fill_disk_after(monkeypatch, budget):
    """Files output_file opens take `budget` characters, then fail as a full disk does."""
    def open_small(*args, **kwargs):
        fh = open(*args, **kwargs)
        write, left = fh.write, [budget]

        def write_some(data):
            if len(data) > left[0]:
                write(data[: left[0]])
                left[0] = 0
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            left[0] -= len(data)
            return write(data)

        fh.write = write_some
        return fh

    monkeypatch.setattr(phrasegram.corpus, "open", open_small, raising=False)


def _fail_close(monkeypatch):
    """Files output_file opens take every write, then fail to close as a full disk does."""
    def open_full(*args, **kwargs):
        fh = open(*args, **kwargs)
        close = fh.close

        def close_full():
            close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        fh.close = close_full
        return fh

    monkeypatch.setattr(phrasegram.corpus, "open", open_full, raising=False)


def _writers():
    cfg = TrainConfig(dim=2, window=1, min_count=1)
    params = init_params(2, cfg, np.random.default_rng(0))
    vocab = Vocab(["a", "b"], [2, 1])
    matrix = np.eye(2, dtype=np.float32)
    return {
        "checkpoint": lambda path: checkpoint_save(path, params, cfg, vocab),
        "manifest": lambda path: write_manifest(path, {"a": "1", "b": "2"}),
        "text": lambda path: write_embeddings_text(path, ["a", "b"], matrix),
        "binary": lambda path: write_embeddings_binary(path, ["a", "b"], matrix),
    }


class TestOutputFile:
    """Every output file goes through corpus.output_file (the kernel object
    too, in test_kernel): it is published whole or not at all."""

    @pytest.mark.parametrize("writer", sorted(_writers()))
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        target = tmp_path / "out"
        target.write_bytes(b"previous contents")
        _fill_disk_after(monkeypatch, 4)
        with pytest.raises(OSError, match="No space left on device"):
            _writers()[writer](target)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert target.read_bytes() == b"previous contents"

    @pytest.mark.parametrize("writer", sorted(_writers()))
    def test_new_file_gets_open_mode(self, tmp_path, writer):
        with _umask(0o027):
            _writers()[writer](tmp_path / "out")
        assert (tmp_path / "out").stat().st_mode & 0o777 == 0o640

    def test_errors_name_the_target(self, tmp_path):
        missing = tmp_path / "nodir" / "out"
        with pytest.raises(FileNotFoundError) as info:
            with output_file(missing):
                pass
        assert info.value.filename == str(missing)
        target = tmp_path / "out"
        with pytest.raises(IsADirectoryError) as info:
            with output_file(target) as fh:
                fh.write("x")
                target.mkdir()  # only the final rename can fail now
        assert info.value.filename == str(target)
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_only_the_writer_renames_files(self):
        """No other code replaces, renames or makes temporary files."""
        found = []
        for path in sorted(Path(phrasegram.corpus.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text(encoding="utf-8")).body:
                for node in ast.walk(top):
                    names = []
                    if isinstance(node, ast.ImportFrom):
                        names = [a.name for a in node.names]
                    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                        on_os = getattr(node.func.value, "id", None) == "os"
                        # str.replace takes two arguments, Path.replace one
                        if node.func.attr != "replace" or on_os or len(node.args) == 1:
                            names = [node.func.attr]
                    found += [(path.name, getattr(top, "name", None), n)
                              for n in names if n in ("replace", "rename", "mkstemp")]
        assert found == [("corpus.py", "output_file", "replace")]


class TestCliExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        code = main(["train", str(corpus), "--out", "x", "--bogus"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_corpus_is_data_error_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        code = main(["train", str(missing), "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("train c.txt --out nodir/m.ckpt", "nodir/m.ckpt: No such file or directory"),
            (
                "train c.txt --out m.ckpt --manifest nodir/m.manifest",
                "nodir/m.manifest: No such file or directory",
            ),
            ("train c.txt --out d", "d: Is a directory"),
            ("train nope.txt --out m.ckpt", "nope.txt: No such file or directory"),
            ("train c.txt --out ./c.txt", "./c.txt: --out names the same file as corpus c.txt"),
            (
                "train c.txt --out m.ckpt --manifest m.ckpt",
                "m.ckpt: --manifest names the same file as --out m.ckpt",
            ),
            (
                "train c.txt --out c.txt.manifest --manifest d/../c.txt",
                "d/../c.txt: --manifest names the same file as corpus c.txt",
            ),
            ("export --model e.ckpt --out e.ckpt", "e.ckpt: --out names the same file as --model e.ckpt"),
        ],
    )
    def test_bad_output_path_fails_before_any_work(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        def must_not_run(*args, **kwargs):
            raise AssertionError("called after a bad output path")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(phrasegram.cli, "train", must_not_run)
        monkeypatch.setattr(phrasegram.cli, "checkpoint_load", must_not_run)
        tiny_corpus(tmp_path / "c.txt")
        (tmp_path / "d").mkdir()
        _writers()["checkpoint"]("e.ckpt")
        before = {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()}
        assert main(argv.split()) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert {p.name: p.is_dir() or p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_run_publishes_neither_file(self, tmp_path, capsys):
        corpus = tmp_path / "c\n.txt"  # a path the manifest cannot hold
        tiny_corpus(corpus)
        code = main(["train", str(corpus), "--out", str(tmp_path / "m.ckpt"), "--min-count", "1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert err == f"error: {str(corpus)!r}: key/value not representable: 'corpus.path'\n"
        assert out == ""  # refused before the first epoch
        assert [p.name for p in tmp_path.iterdir()] == [corpus.name]

    @pytest.mark.parametrize("command", [["neighbors", "[a b]"], ["eval-phrase", "d.tsv"]], ids=lambda c: c[0])
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_is_data_error(self, tmp_path, monkeypatch, capsys, command, alpha):
        monkeypatch.chdir(tmp_path)
        cfg = TrainConfig(dim=2, window=1, min_count=1)
        checkpoint_save("m.ckpt", init_params(2, cfg, np.random.default_rng(0)), cfg, Vocab(["a", "b"], [2, 1]))
        (tmp_path / "d.tsv").write_text("a\tb\ta\t1\nb\ta\tb\t2\n")
        assert main([*command, "--model", "m.ckpt", "--alpha", alpha]) == 2
        assert capsys.readouterr().err == f"error: alpha must be a finite number, got {alpha}\n"

    @pytest.mark.parametrize(
        "argv, target, fails_in",
        [
            ("export --model e.ckpt --out e.txt", "e.txt", "write"),
            ("export --model e.ckpt --out e.txt", "e.txt", "close"),
            ("export --model e.ckpt --out e.bin --format binary", "e.bin", "close"),
            ("train c.txt --out m.ckpt --min-count 1", "m.ckpt", "write"),
        ],
    )
    def test_full_disk_names_the_output(
        self, tmp_path, monkeypatch, capsys, argv, target, fails_in
    ):
        monkeypatch.chdir(tmp_path)
        tiny_corpus(tmp_path / "c.txt")
        _writers()["checkpoint"]("e.ckpt")
        before = sorted(p.name for p in tmp_path.iterdir())
        if fails_in == "write":
            _fill_disk_after(monkeypatch, 4)
        else:
            _fail_close(monkeypatch)
        assert main(argv.split()) == 2
        assert capsys.readouterr().err == f"error: {target}: No space left on device\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_unnamed_os_error_prints_its_reason(self, tmp_path, monkeypatch, capsys):
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(phrasegram.cli, "export_embeddings", full_disk)
        _writers()["checkpoint"](tmp_path / "e.ckpt")
        assert main(["export", "--model", str(tmp_path / "e.ckpt"), "--out", "e.txt"]) == 2
        assert capsys.readouterr().err == "error: No space left on device\n"

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, capsys):
        bogus = tmp_path / "bad.ckpt"
        bogus.write_bytes(b"garbage")
        code = main(["export", "--model", str(bogus), "--out", str(tmp_path / "e")])
        assert code == 2

    @pytest.mark.parametrize("length", [2**40, 2**63, 2**64 - 1])
    def test_payload_longer_than_the_file_is_data_error(self, tmp_path, capsys, length):
        # Before any read sized by it: such lengths raised MemoryError or OverflowError.
        ckpt = tmp_path / "long.ckpt"
        ckpt.write_bytes(b"PGCKPT01" + struct.pack("<IIQ", 1, 0, length) + b"abc")
        code = main(["export", "--model", str(ckpt), "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {ckpt}: payload is 3 bytes, expected {length}\n"

    @pytest.mark.parametrize("length", [2**63, 2**64 - 1])
    def test_piped_payload_longer_than_the_pipe_is_data_error(self, tmp_path, capsys, length):
        # A pipe has no size to check the length against; a read sized by
        # it raised OverflowError.
        data = b"PGCKPT01" + struct.pack("<IIQ", 1, 0, length) + b"abc"
        with _piped(tmp_path, data) as fifo:
            code = main(["export", "--model", str(fifo), "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {fifo}: payload is 3 bytes, expected {length}\n"

    @pytest.mark.parametrize("kind", ["fifo", "device"])
    def test_corpus_that_is_not_a_regular_file_fails_at_once(self, tmp_path, capsys, kind):
        # Training reads the corpus more than once: a pipe's first read
        # drained it, and opening a FIFO with no writer blocked forever.
        if kind == "fifo":
            corpus = tmp_path / "fifo"
            os.mkfifo(corpus)
        else:
            corpus = Path(os.devnull)
        codes = []
        argv = ["train", str(corpus), "--out", str(tmp_path / "m.ckpt"), "--min-count", "1"]
        runner = threading.Thread(target=lambda: codes.append(main(argv)), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert codes == [2]
        assert capsys.readouterr().err == (
            f"error: {corpus}: the corpus must be a regular file, "
            "because training reads it more than once\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == (["fifo"] if kind == "fifo" else [])

    def test_piped_embeddings_row_is_checked_before_allocating(self, tmp_path, capsys):
        # Allocating the header's 200000 x 100000 matrix raised MemoryError.
        with _piped(tmp_path, b"200000 100000\nw 1\n") as fifo:
            code = main(["neighbors", "w", "--embeddings", str(fifo)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {fifo}:2: expected 100000 values, got 1\n"

    def test_diverging_run_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\nb c a\nc a b\n")
        out = tmp_path / "m.ckpt"
        code = main([
            "train", str(corpus), "--out", str(out), "--min-count", "1",
            "--dim", "4", "--lr", "1e300", "--epochs", "2",
        ])
        assert code == 2
        assert "error: non-finite parameter in input row 0 after epoch 0" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_single_word_corpus_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a a a a\n")
        out = tmp_path / "m.ckpt"
        code = main(["train", str(corpus), "--out", str(out), "--min-count", "1"])
        assert code == 2
        assert "vocabulary has 1 word" in capsys.readouterr().err
        assert not out.exists()

    def test_skewed_phrase_corpus_trains(self, tmp_path, capsys):
        # one phrase holds ~95% of the phrase noise mass
        corpus = tmp_path / "c.txt"
        lines = ["[NP a b] x [NP a b]"] * 295 + ["[NP c d] x [NP c d]"] * 5
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.ckpt"
        code = main([
            "train", str(corpus), "--out", str(out), "--mode", "compositional",
            "--min-count", "1", "--phrase-min-count", "1",
        ])
        assert code == 0, capsys.readouterr().err
        assert checkpoint_load(out).params.first_non_finite() is None

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        assert _cli_train(corpus, ckpt) == 0
        bad = tmp_path / "bad.tsv"
        bad.write_text("only two\tfields\n")
        code = main(["eval-sim", str(bad), "--model", str(ckpt)])
        assert code == 2

    @pytest.mark.parametrize(
        "argv, files, message",
        [
            pytest.param(
                "train c.txt --out x.ckpt", {"c.txt": b"a b\n\xff\n"},
                "c.txt:2: invalid UTF-8 at byte offset 0", id="corpus-utf8",
            ),
            pytest.param(
                "eval-sim d.tsv --embeddings bad.txt",
                {"bad.txt": b"1 2\n\xff 1 2\n", "d.tsv": b"a\tb\t1\n"},
                "bad.txt:2: invalid UTF-8 at byte offset 0", id="embeddings-utf8",
            ),
            pytest.param(
                "eval-sim d.tsv --embeddings e.txt", {"d.tsv": b"a\tb\t1\n\xff\tb\t2\n"},
                "d.tsv:2: invalid UTF-8 at byte offset 0", id="similarity-utf8",
            ),
            pytest.param(
                "eval-analogy d.txt --embeddings e.txt", {"d.txt": b"a b a \xff\n"},
                "d.txt:1: invalid UTF-8 at byte offset 6", id="analogy-utf8",
            ),
            pytest.param(
                "eval-phrase d.tsv --embeddings e.txt", {"d.tsv": b"a\t\xffb\ta\t1\n"},
                "d.tsv:1: invalid UTF-8 at byte offset 2", id="phrase-utf8",
            ),
            pytest.param(
                "inspect-manifest m.manifest", {"m.manifest": b"k=v\n\xff=1\n"},
                "m.manifest:2: invalid UTF-8 at byte offset 0", id="manifest-utf8",
            ),
            pytest.param(
                "eval-sim d.tsv --embeddings e.txt", {"d.tsv": b"# c\na\tb\tx\n"},
                "d.tsv:2: score is not a number: 'x'", id="similarity-score",
            ),
            pytest.param(
                "eval-phrase d.tsv --embeddings e.txt", {"d.tsv": b"a\tb\ta\thigh\n"},
                "d.tsv:1: rating is not a number: 'high'", id="phrase-rating",
            ),
            pytest.param(
                "eval-sim d.tsv --embeddings e.txt", {"d.tsv": b"a\tb\t1\nb\ta\tnan\n"},
                "d.tsv:2: score is not finite: 'nan'", id="similarity-score-nan",
            ),
            pytest.param(
                "eval-phrase d.tsv --embeddings e.txt", {"d.tsv": b"# c\na\tb\ta\t-inf\n"},
                "d.tsv:2: rating is not finite: '-inf'", id="phrase-rating-inf",
            ),
            pytest.param(
                "eval-sim missing.tsv --model m.ckpt", {},
                "missing.tsv: No such file or directory", id="eval-sim-missing",
            ),
            pytest.param(
                "export --model nope.ckpt --out e2.txt", {},
                "nope.ckpt: No such file or directory", id="export-missing-model",
            ),
            pytest.param(
                "export --model m.ckpt --out nodir/e2.txt", {},
                "nodir/e2.txt: No such file or directory", id="export-missing-dir",
            ),
            pytest.param(
                "inspect-manifest nope", {},
                "nope: No such file or directory", id="inspect-manifest-missing",
            ),
            pytest.param(
                "eval-sim d.tsv --embeddings e.bin --format binary",
                {"e.bin": b"1 1\n\xff \0\0\0\0\n", "d.tsv": b"a\tb\t1\n"},
                "e.bin: row 0: invalid UTF-8 at byte offset 4", id="binary-word-utf8",
            ),
            pytest.param(
                "export --model m.ckpt --out e2.txt --which input --bank 1", {},
                "input bank 1 out of range [0, 1)", id="export-input-bank",
            ),
        ],
    )
    def test_reader_errors_are_located(self, tmp_path, monkeypatch, capsys, argv, files, message):
        monkeypatch.chdir(tmp_path)
        cfg = TrainConfig(dim=2, window=1, min_count=1)
        params = init_params(2, cfg, np.random.default_rng(0))
        checkpoint_save("m.ckpt", params, cfg, Vocab(["a", "b"], [2, 1]))
        write_embeddings_text("e.txt", ["a", "b"], np.eye(2, dtype=np.float32))
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        assert main(argv.split()) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "e2.txt").exists()


def _rewrite_checkpoint_header(path, rewrite):
    """Replace a checkpoint's header bytes by rewrite(header bytes); recompute the CRC."""
    data = path.read_bytes()
    payload = data[24:]
    (header_len,) = struct.unpack("<I", payload[:4])
    header_bytes = rewrite(payload[4 : 4 + header_len])
    payload = struct.pack("<I", len(header_bytes)) + header_bytes + payload[4 + header_len :]
    crc_and_length = struct.pack("<IQ", zlib.crc32(payload), len(payload))
    path.write_bytes(data[:12] + crc_and_length + payload)


def _json_edit(edit):
    """A header rewrite that applies edit(header) to the parsed JSON."""

    def rewrite(header_bytes):
        header = json.loads(header_bytes)
        edit(header)
        return json.dumps(header).encode("utf-8")

    return rewrite


def _edit_checkpoint_header(path, edit):
    """Apply edit(header) to a checkpoint's JSON header; recompute the CRC."""
    _rewrite_checkpoint_header(path, _json_edit(edit))


def _rename_first(h, prefix, name):
    next(m for m in h["matrices"] if m["name"].startswith(prefix))["name"] = name


class TestCheckpointConfigKeys:
    """Checkpoint headers: unknown config keys, v1 files from multi-worker
    builds, and CRC-valid headers whose structure or values are bad."""

    def _half_run(self, tmp_path):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        cfg = TrainConfig(
            dim=4, window=2, min_count=1, phrase_min_count=1, epochs=2,
            word_negatives=2, phrase_negatives=2, seed=3, mode=Mode.COMPOSITIONAL,
        )
        half = train(corpus, cfg, stop_after_epoch=1)
        ckpt = tmp_path / "half.ckpt"
        checkpoint_save(
            ckpt, half.params, cfg, half.vocab, half.phrase_vocab, half.state_dict
        )
        return corpus, cfg, ckpt

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        _, _, ckpt = self._half_run(tmp_path)
        _edit_checkpoint_header(ckpt, lambda h: h["config"].update(shards=4))
        with pytest.raises(ValueError, match="shards"):
            checkpoint_load(ckpt)
        code = main(["export", "--model", str(ckpt), "--out", str(tmp_path / "e")])
        assert code == 2
        assert "shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("dim", "10"), ("dim", True), ("seed", 1.5), ("beta", "1"), ("alpha", None),
         ("lowercase", 1), ("lr_end", "x"), ("lr_end", -1.0), ("mode", 3)],
    )
    def test_wrong_typed_config_value_is_data_error(self, tmp_path, capsys, field, value):
        _, _, ckpt = self._half_run(tmp_path)
        _edit_checkpoint_header(ckpt, lambda h: h["config"].update({field: value}))
        with pytest.raises(ValueError, match=field):
            checkpoint_load(ckpt)
        code = main(["export", "--model", str(ckpt), "--out", str(tmp_path / "e")])
        assert code == 2
        assert f"error: {ckpt}: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("vocab.words", lambda h: (h["vocab"]["words"].pop(), h["vocab"]["counts"].pop())),
            ("vocab.words", lambda h: (h["vocab"]["words"].append("zz"), h["vocab"]["counts"].append(1))),
            ("vocab.counts", lambda h: h["vocab"]["counts"].pop()),
            ("vocab.counts", lambda h: h["vocab"]["counts"].append(1)),
            ("phrase_vocab.keys", lambda h: h["phrase_vocab"]["keys"][0].__setitem__(0, [0, 99])),
            ("phrase_vocab.keys", lambda h: h["phrase_vocab"]["keys"][-1].__setitem__(0, [-1, 0])),
            ("phrase_vocab.keys", lambda h: h["phrase_vocab"]["keys"][0].__setitem__(0, [0, 1.0])),
        ],
    )
    def test_vocabulary_not_fitting_matrices_is_data_error(self, tmp_path, capsys, field, edit):
        _, _, ckpt = self._half_run(tmp_path)
        _edit_checkpoint_header(ckpt, edit)
        with pytest.raises(ValueError, match=field):
            checkpoint_load(ckpt)
        code = main(["export", "--model", str(ckpt), "--out", str(tmp_path / "e")])
        assert code == 2
        assert f"error: {ckpt}: {field}" in capsys.readouterr().err

    def test_legacy_workers_one_resumes_bitwise(self, tmp_path):
        corpus, cfg, ckpt = self._half_run(tmp_path)
        _edit_checkpoint_header(ckpt, lambda h: h["config"].update(workers=1))
        data = checkpoint_load(ckpt)
        assert data.config == cfg
        resumed = train(corpus, cfg, start=data)
        straight = train(corpus, cfg)
        assert params_sha256(resumed.params.matrices()) == params_sha256(
            straight.params.matrices()
        )

    def test_legacy_workers_two_rejected(self, tmp_path, capsys):
        _, _, ckpt = self._half_run(tmp_path)
        _edit_checkpoint_header(ckpt, lambda h: h["config"].update(workers=2))
        with pytest.raises(ValueError, match="workers=2"):
            checkpoint_load(ckpt)
        code = main(["export", "--model", str(ckpt), "--out", str(tmp_path / "e")])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_two_state_entries_rejected_on_resume(self, tmp_path):
        corpus, cfg, ckpt = self._half_run(tmp_path)
        data = checkpoint_load(ckpt)
        _edit_checkpoint_header(
            ckpt, lambda h: h["state"].update(workers=h["state"]["workers"] * 2)
        )
        # rejected when the file is loaded, and when a state built in memory is resumed
        with pytest.raises(ValueError, match=re.escape(f"{ckpt}: checkpoint state holds 2 workers entries")):
            checkpoint_load(ckpt)
        data.state["workers"] *= 2
        with pytest.raises(ValueError, match="2 workers entries"):
            train(corpus, cfg, start=data)

    @pytest.mark.parametrize(
        "field, edit",
        [
            pytest.param("state is not an object", lambda s: s.clear(), id="empty"),
            pytest.param("state is not an object", lambda s: s.update(lr=0.1), id="extra-key"),
            pytest.param("state.epoch", lambda s: s.update(epoch="1"), id="epoch-a-string"),
            pytest.param("state.epoch", lambda s: s.update(epoch=3, tokens_processed=0), id="epoch-past-the-run"),
            pytest.param("state.tokens_processed", lambda s: s.update(tokens_processed=-10**9), id="tokens-negative"),
            pytest.param("state.tokens_processed", lambda s: s.update(tokens_processed=s["tokens_processed"] + 1),
                         id="tokens-not-whole-epochs"),
            pytest.param("state.workers", lambda s: s.update(workers={}), id="workers-an-object"),
            pytest.param("state.workers[0]", lambda s: s["workers"][0].pop("phrase_rng"), id="rng-missing"),
            pytest.param(
                "state.workers[0].word_rng is not a PCG64 state",
                lambda s: s["workers"][0]["word_rng"].update(bit_generator="MT19937"), id="rng-not-pcg64",
            ),
            pytest.param(
                "state.workers[0].phrase_rng is not a PCG64 state",
                lambda s: s["workers"][0]["phrase_rng"]["state"].update(state=1.5), id="rng-coerced",
            ),
        ],
    )
    def test_malformed_state_is_data_error(self, tmp_path, capsys, field, edit):
        corpus, cfg, ckpt = self._half_run(tmp_path)
        _edit_checkpoint_header(ckpt, lambda h: edit(h["state"]))
        with pytest.raises(ValueError, match=re.escape(f"{ckpt}: {field}")):
            checkpoint_load(ckpt)
        code = main(["export", "--model", str(ckpt), "--out", str(tmp_path / "e")])
        assert code == 2
        assert f"error: {ckpt}: {field}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "rewrite, error",
        [
            pytest.param(lambda b: b"[1, 2]", CheckpointFormatError, id="header-a-list"),
            pytest.param(lambda b: b"\xff" + b[1:], CheckpointFormatError, id="not-utf-8"),
            pytest.param(lambda b: b[:-1], CheckpointFormatError, id="not-json"),
            pytest.param(_json_edit(lambda h: h.pop("vocab")), CheckpointFormatError, id="no-vocab"),
            pytest.param(_json_edit(lambda h: h.pop("state")), CheckpointFormatError, id="no-state"),
            pytest.param(_json_edit(lambda h: h.update(state=[])), CheckpointFormatError, id="state-a-list"),
            pytest.param(
                _json_edit(lambda h: h["vocab"].update(words=3)), CheckpointFormatError, id="words-an-integer"
            ),
            pytest.param(
                _json_edit(lambda h: h["vocab"]["counts"].__setitem__(0, "9")),
                CheckpointFormatError, id="count-a-string",
            ),
            pytest.param(
                _json_edit(lambda h: h["phrase_vocab"]["keys"].__setitem__(0, [0, 1])),
                CheckpointFormatError, id="phrase-key-not-a-pair",
            ),
            # JSON true and false are not integers, though Python's bool is an int.
            pytest.param(
                _json_edit(lambda h: h["vocab"]["counts"].__setitem__(-1, True)),
                CheckpointFormatError, id="count-a-bool",
            ),
            pytest.param(
                _json_edit(lambda h: h["phrase_vocab"]["counts"].__setitem__(0, False)),
                CheckpointFormatError, id="phrase-count-a-bool",
            ),
            pytest.param(
                _json_edit(lambda h: h["vocab"]["words"].__setitem__(-1, 7)),
                CheckpointFormatError, id="word-an-integer",
            ),
            pytest.param(
                _json_edit(lambda h: h["phrase_vocab"].update(keys={})), CheckpointFormatError, id="keys-an-object"
            ),
            pytest.param(
                _json_edit(lambda h: h["phrase_vocab"]["keys"][-1].append("NP")),
                CheckpointFormatError, id="phrase-key-of-three",
            ),
            pytest.param(
                _json_edit(lambda h: h["phrase_vocab"]["keys"][-1].__setitem__(0, 0)),
                CheckpointFormatError, id="phrase-key-ids-not-a-list",
            ),
            pytest.param(
                _json_edit(lambda h: h["phrase_vocab"]["keys"][-1].__setitem__(1, None)),
                CheckpointFormatError, id="phrase-key-label-not-a-string",
            ),
            pytest.param(
                _json_edit(lambda h: h["matrices"][0].update(rows="5")), CheckpointFormatError, id="rows-a-string"
            ),
            pytest.param(
                _json_edit(lambda h: h["matrices"][0].update(rows=-1)), CheckpointFormatError, id="rows-negative"
            ),
            pytest.param(
                _json_edit(lambda h: h["matrices"][-1].update(rows=h["matrices"][-1]["rows"] + 1)),
                CheckpointFormatError, id="rows-past-the-payload",
            ),
            pytest.param(
                _json_edit(lambda h: h["matrices"][-1].update(rows=h["matrices"][-1]["rows"] - 1)),
                CheckpointFormatError, id="rows-short-of-the-payload",
            ),
            pytest.param(_json_edit(lambda h: h["matrices"].pop(0)), CheckpointFormatError, id="no-input-matrix"),
            pytest.param(
                _json_edit(lambda h: _rename_first(h, "input", "embeddings")),
                CheckpointFormatError, id="input-renamed",
            ),
            pytest.param(
                _json_edit(lambda h: _rename_first(h, "output:", "output:1")),
                CheckpointFormatError, id="bank-misnumbered",
            ),
            pytest.param(
                _json_edit(lambda h: _rename_first(h, "output:", "output:x")),
                CheckpointFormatError, id="bank-not-numbered",
            ),
            # Names in storage order, but more output banks than the config's mode has.
            pytest.param(
                _json_edit(lambda h: _rename_first(h, "phrase_output:", "output:1")),
                ValueError, id="bank-count-not-the-configs",
            ),
            pytest.param(_json_edit(lambda h: h["config"].update(dim="x")), ValueError, id="config-value"),
            pytest.param(
                _json_edit(lambda h: h["config"].update(dim=7)), ValueError, id="dim-not-the-matrices"
            ),
        ],
    )
    def test_malformed_header_exits_2_naming_the_file(self, tmp_path, capsys, rewrite, error):
        _, _, ckpt = self._half_run(tmp_path)
        _rewrite_checkpoint_header(ckpt, rewrite)
        with pytest.raises(error) as raised:
            checkpoint_load(ckpt)
        assert isinstance(raised.value, CheckpointFormatError) == (error is CheckpointFormatError)
        assert str(raised.value).startswith(f"{ckpt}: ")
        code = main(["export", "--model", str(ckpt), "--out", str(tmp_path / "e")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {ckpt}: ")


class TestParserBuiltOnce:
    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        calls = [
            ["train", str(corpus)],  # no --out: a usage error
            ["train", str(corpus), "--out", str(ckpt), "--dim", "4", "--min-count", "1"],
            ["export", "--model", str(ckpt), "--out", str(tmp_path / "e.txt")],
        ]
        phrasegram.cli._build_parser.cache_clear()
        in_process = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        assert phrasegram.cli._build_parser.cache_info().misses == 1
        src = Path(phrasegram.cli.__file__).resolve().parents[1]
        fresh = []
        for argv in calls:
            proc = subprocess.run(
                [sys.executable, "-m", "phrasegram.cli", *argv],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True, text=True, timeout=120,
            )
            fresh.append((proc.returncode, proc.stdout, proc.stderr))
        untimed = [
            (code, re.sub(r"tokens/s=[0-9.]+", "tokens/s=", out), err) for code, out, err in in_process
        ]
        assert [code for code, _, _ in untimed] == [1, 0, 0]
        assert untimed == [
            (code, re.sub(r"tokens/s=[0-9.]+", "tokens/s=", out), err) for code, out, err in fresh
        ]


def _cli_train(corpus, out, *extra):
    args = [
        "train", str(corpus), "--out", str(out),
        "--dim", "4", "--window", "2", "--min-count", "1",
        "--phrase-min-count", "1", "--epochs", "1", "--word-negatives", "2",
        "--mode", "compositional", "--seed", "3",
    ]
    args.extend(extra)
    return main(args)


class TestCliWorkflows:
    def test_train_writes_checkpoint_and_manifest(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        assert _cli_train(corpus, ckpt) == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out
        assert ckpt.exists()
        manifest = read_manifest(tmp_path / "m.ckpt.manifest")
        assert manifest["corpus.sha256"] == file_sha256(corpus)
        loaded = checkpoint_load(ckpt)
        assert manifest["params.sha256"] == params_sha256(loaded.params.matrices())

    def test_train_twice_same_seed_matches_modulo_timing(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        assert _cli_train(corpus, tmp_path / "a.ckpt") == 0
        assert _cli_train(corpus, tmp_path / "b.ckpt") == 0
        ma = comparable_items(read_manifest(tmp_path / "a.ckpt.manifest"))
        mb = comparable_items(read_manifest(tmp_path / "b.ckpt.manifest"))
        assert ma == mb
        for name in ("a", "b"):
            assert main(
                ["export", "--model", str(tmp_path / f"{name}.ckpt"),
                 "--out", str(tmp_path / f"{name}.txt")]
            ) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_export_then_eval_sim(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        _cli_train(corpus, ckpt)
        emb = tmp_path / "e.txt"
        assert main(["export", "--model", str(ckpt), "--out", str(emb)]) == 0
        dataset = tmp_path / "sim.tsv"
        dataset.write_text("t0\tt1\t5.0\nt2\tt3\t3.0\nt4\tt5\t1.0\n")
        capsys.readouterr()
        assert main(["eval-sim", str(dataset), "--embeddings", str(emb)]) == 0
        out = capsys.readouterr().out
        assert "spearman=" in out and "coverage=1.000" in out

    def test_eval_analogy_via_model(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        _cli_train(corpus, ckpt)
        dataset = tmp_path / "an.txt"
        dataset.write_text(": sec\nt0 t1 t2 t3\nt1 t2 t3 t4\n")
        capsys.readouterr()
        assert main(["eval-analogy", str(dataset), "--model", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "accuracy=" in out and "section sec" in out

    def test_eval_phrase_via_model(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        _cli_train(corpus, ckpt)
        dataset = tmp_path / "ph.tsv"
        dataset.write_text("t0\tt1\tt2\t5.0\nt3\tt4\tt5\t2.0\nt1\tt3\tt0\t1.0\n")
        capsys.readouterr()
        assert main(["eval-phrase", str(dataset), "--model", str(ckpt)]) == 0
        assert "spearman=" in capsys.readouterr().out

    def test_neighbors_word_and_phrase(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        _cli_train(corpus, ckpt)
        capsys.readouterr()
        assert main(["neighbors", "t0", "--model", str(ckpt), "-k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all("\t" in ln for ln in lines)
        assert main(["neighbors", "[t0 t1]", "--model", str(ckpt), "-k", "2"]) == 0
        names = [ln.split("\t")[0] for ln in capsys.readouterr().out.splitlines()]
        assert "t0" not in names and "t1" not in names

    def test_neighbors_oov_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        _cli_train(corpus, ckpt)
        assert main(["neighbors", "unicorn", "--model", str(ckpt)]) == 2
        assert "unicorn" in capsys.readouterr().err

    def test_neighbors_of_a_nan_row_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        path.write_text("4 2\na 1 0\nb nan 1\nc 1 1\nd 0 1\n")
        assert main(["neighbors", "b", "--embeddings", str(path)]) == 2
        assert capsys.readouterr().err == "error: query vector of b is not finite\n"
        assert main(["neighbors", "a", "--embeddings", str(path)]) == 0
        assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == ["c", "d"]

    def test_repeated_word_in_a_checkpoint_is_data_error(self, tmp_path, capsys):
        cfg = TrainConfig(dim=2, window=1, min_count=1)
        ckpt = tmp_path / "m.ckpt"
        vocab = Vocab(["cat", "dog", "eel"], [3, 2, 1])
        checkpoint_save(ckpt, init_params(3, cfg, np.random.default_rng(0)), cfg, vocab)
        _edit_checkpoint_header(ckpt, lambda h: h["vocab"]["words"].__setitem__(2, "cat"))
        assert main(["neighbors", "cat", "--model", str(ckpt)]) == 2
        assert capsys.readouterr() == ("", f"error: {ckpt}: word 'cat' is repeated: ids 0 and 2\n")

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_repeated_word_in_an_embeddings_file_is_data_error(self, tmp_path, capsys, fmt):
        # Before, the last row won: `neighbors cat` listed cat itself first.
        path = tmp_path / "e.vec"
        write = write_embeddings_text if fmt == "text" else write_embeddings_binary
        write(path, ["cat", "dog", "cat"], np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-4]]))
        assert main(["neighbors", "cat", "--embeddings", str(path), "--format", fmt]) == 2
        where = f"{path}:4" if fmt == "text" else str(path)  # row 2 is on line 4, after the header
        assert capsys.readouterr() == ("", f"error: {where}: word 'cat' is repeated: ids 0 and 2\n")

    def test_lowercase_queries_reach_upper_case_rows(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        path.write_text("2 2\nCat 1 0\ndog 0 1\n")
        for query, answer in (("Cat", "dog"), ("cat", "dog"), ("dog", "Cat")):
            assert main(["neighbors", query, "--embeddings", str(path), "--lowercase"]) == 0
            assert [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()] == [answer]

    def test_rows_that_fold_alike_are_a_repeated_word(self, tmp_path, capsys):
        path = tmp_path / "e.txt"
        path.write_text("3 2\nCat 1 0\ndog 0 1\ncat 1 1\n")
        assert main(["neighbors", "dog", "--embeddings", str(path), "--lowercase"]) == 2
        assert capsys.readouterr() == ("", f"error: {path}:4: word 'cat' is repeated: ids 0 and 2\n")
        assert main(["neighbors", "dog", "--embeddings", str(path)]) == 0

    def test_inspect_manifest_prints_items(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        _cli_train(corpus, tmp_path / "m.ckpt")
        capsys.readouterr()
        assert main(["inspect-manifest", str(tmp_path / "m.ckpt.manifest")]) == 0
        out = capsys.readouterr().out
        assert "config.dim=4" in out
        assert "corpus.sha256=" in out

    def test_phrase_negatives_defaults_to_word_value(self, tmp_path):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        assert _cli_train(corpus, ckpt, "--word-negatives", "4") == 0
        assert checkpoint_load(ckpt).config.phrase_negatives == 4

    def test_train_defaults_are_train_config_defaults(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\n" * 20)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", str(corpus), "--out", str(ckpt)]) == 0
        written = {
            key[len("config."):]: value
            for key, value in read_manifest(f"{ckpt}.manifest").items()
            if key.startswith("config.")
        }
        assert written == {k: str(v) for k, v in TrainConfig().to_dict().items()}

    def test_renamed_flags_set_their_fields(self, tmp_path):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        assert _cli_train(corpus, ckpt, "--lr", "0.05", "--no-lowercase") == 0
        config = checkpoint_load(ckpt).config
        assert (config.lr_start, config.lowercase) == (0.05, False)

    def test_plain_flag_treats_corpus_as_unchunked(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("just plain tokens here\n" * 20)
        ckpt = tmp_path / "m.ckpt"
        assert _cli_train(corpus, ckpt, "--plain", "--mode", "baseline") == 0
        assert checkpoint_load(ckpt).config.plain_text is True
