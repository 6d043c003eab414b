"""Chunk-annotated corpus handling: parsing, vocabularies, frequency filtering.

Corpus files are UTF-8 text, one sentence per line; a line ends at a
newline, and CRLF line ends are accepted.  Both modes split tokens with
`str.split()`, at Unicode whitespace.  The training corpus must be a
regular file, since training reads it more than once.  Contiguous phrase
spans are marked inline with brackets: ``[NP the cat] sat`` is a two-token
NP chunk followed by a bare token, parsed flat as the tokens ``the cat
sat`` and one (label, length) span per chunk, ``("NP", 2), ("O", 1)``: a
bare token is a singleton chunk with the label ``O``.  Nesting is not
allowed; a structural ``[`` opens a chunk only at the start of a token
and ``]`` closes one only at the end.
"""

from __future__ import annotations

import errno
import os
from collections import Counter
from contextlib import closing, contextmanager, suppress
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "ChunkedSentence",
    "ParseError",
    "RepeatedKeyError",
    "Vocab",
    "PhraseVocab",
    "parse_chunked_line",
    "build_vocab",
    "build_phrase_vocab",
    "chunk_spans",
    "index_of",
    "iter_corpus",
    "numbered_lines",
    "output_file",
]

OUTSIDE_LABEL = "O"


class ParseError(ValueError):
    """Malformed bracket chunking in a corpus line.

    byte_offset is the UTF-8 byte position of the offending token within
    the line.
    """

    def __init__(self, message: str, line: str, char_offset: int):
        self.reason = message
        self.char_offset = char_offset
        self.byte_offset = len(line[:char_offset].encode("utf-8"))
        super().__init__(f"{message} at byte offset {self.byte_offset}")


_OUTSIDE_SPAN = (OUTSIDE_LABEL, 1)


@dataclass
class ChunkedSentence:
    """Surface tokens, and one (label, length) span per chunk covering them
    in order; a bare token is an ("O", 1) span."""

    tokens: list[str] = field(default_factory=list)
    chunks: list[tuple[str, int]] = field(default_factory=list)

    def to_line(self) -> str:
        """Serialize back to bracket format.

        Singleton O chunks are written bare; everything else bracketed.
        """
        parts = []
        tokens = iter(self.tokens)
        for label, n in self.chunks:
            words = list(islice(tokens, n))
            if label == OUTSIDE_LABEL and n == 1:
                parts.append(words[0])
            else:
                parts.append("[" + label + " " + " ".join(words) + "]")
        return " ".join(parts)


def parse_chunked_line(line: str) -> ChunkedSentence:
    """Parse one corpus line into a ChunkedSentence.

    The tokens are `line.split()`, as in plain mode; unbracketed ones
    become ("O", 1) spans.  An empty line yields a sentence with no tokens
    and no spans.  Unbalanced brackets and empty bracket groups raise
    ParseError naming the byte offset.
    """
    words = line.split()
    tokens: list[str] = []
    chunks: list[tuple[str, int]] = []
    open_label: str | None = None
    open_start = 0
    open_at = 0

    for i, tok in enumerate(words):
        if tok[0] == "[":
            if open_label is not None:
                raise _token_error("nested bracket group", line, words, i)
            body = tok[1:]
            closes = body.endswith("]")
            if closes:
                body = body[:-1]
            if not body:
                raise _token_error("empty chunk label", line, words, i)
            if closes:
                # "[NP]" carries a label but no tokens.
                raise _token_error("empty bracket group", line, words, i)
            open_label = body
            open_start = len(tokens)
            open_at = i
        elif tok[-1] == "]":
            if open_label is None:
                raise _token_error("unbalanced closing bracket", line, words, i)
            if tok != "]":
                tokens.append(tok[:-1])
            if len(tokens) == open_start:
                raise _token_error("empty bracket group", line, words, open_at)
            chunks.append((open_label, len(tokens) - open_start))
            open_label = None
        else:
            tokens.append(tok)
            if open_label is None:
                chunks.append(_OUTSIDE_SPAN)

    if open_label is not None:
        raise _token_error("unclosed bracket group", line, words, open_at)
    return ChunkedSentence(tokens, chunks)


def _token_error(reason: str, line: str, words: list[str], i: int) -> ParseError:
    """ParseError at words[i], where words is `line.split()`: each token is
    found after the end of the one before it, since only whitespace lies
    between them."""
    end = 0
    for word in words[:i]:
        end = line.index(word, end) + len(word)
    return ParseError(reason, line, line.index(words[i], end))


def numbered_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Stream a UTF-8 text file as ("path:lineno", line without its line end).

    A line ends at a newline, and one carriage return before it is dropped,
    so lines are numbered as `wc -l` counts them; a lone carriage return
    stays in the line (where `str.split()` reads it as whitespace).
    Bytes that are not UTF-8 raise ParseError naming the line and the byte
    offset of the first bad byte in it.
    """
    # surrogateescape keeps a bad byte in place as a lone surrogate, so the
    # line can name its offset; valid UTF-8 never decodes to one.
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape", newline="\n") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            line = line.removesuffix("\n").removesuffix("\r")
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ParseError(f"{where}: invalid UTF-8", line, exc.start) from None
            yield where, line


class _TargetFile:
    """The temporary file of `output_file`: a write or close (with its flush)
    that fails, say on a full disk, raises an OSError naming the target."""

    def __init__(self, fh: IO, target: str):
        self._fh, self._target = fh, target

    def __getattr__(self, name: str):
        return getattr(self._fh, name)

    def write(self, data):
        try:
            return self._fh.write(data)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, self._target) from None

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, self._target) from None


@contextmanager
def output_file(target: str | Path | IO, mode: str = "w") -> Iterator[IO]:
    """Write `target` whole or not at all: into a new temporary file beside it,
    made with open()'s mode (0666 less the umask), that replaces it when the
    block ends and is deleted if the block raises; errors name `target`.  An
    open file is yielded as is, so a caller can create outputs before the work.
    """
    if not isinstance(target, (str, os.PathLike)):
        yield target
        return
    path = os.fspath(target)
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        if os.path.isdir(path):  # else only the rename, after the work, would fail
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        fh = open(tmp, mode, encoding=None if "b" in mode else "utf-8",
                  opener=lambda p, flags: os.open(p, flags | os.O_EXCL, 0o666))
        with closing(_TargetFile(fh, path)) as out:
            yield out
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def iter_corpus(
    path: str | Path, *, lowercase: bool = True, plain: bool = False
) -> Iterator[ChunkedSentence]:
    """Stream a corpus file as ChunkedSentences, one per line.

    In plain mode brackets are ordinary characters: the tokens are
    `line.split()` and each is an ("O", 1) span.  Chunk labels are never
    lowercased; tokens are, each with `str.lower`, iff lowercase is set.
    Parse failures, and bytes that are not UTF-8, are raised as ParseError
    with file and line context.
    """
    with closing(numbered_lines(path)) as lines:
        for where, line in lines:
            if plain:
                tokens = line.split()
                sent = ChunkedSentence(tokens, [_OUTSIDE_SPAN] * len(tokens))
            else:
                try:
                    sent = parse_chunked_line(line)
                except ParseError as exc:
                    raise ParseError(f"{where}: {exc.reason}", line, exc.char_offset) from exc
            if lowercase:
                sent.tokens = [t.lower() for t in sent.tokens]
            yield sent


class RepeatedKeyError(ValueError):
    """A vocabulary lists one word or phrase key twice; `ids` are its first two ids."""

    def __init__(self, what: str, key: object, first: int, second: int):
        self.ids = (first, second)
        super().__init__(f"{what} {key!r} is repeated: ids {first} and {second}")


def index_of(items: Sequence, what: str) -> dict:
    """Each item's id, its position in `items`; raises RepeatedKeyError at the first repeat."""
    index = {item: i for i, item in enumerate(items)}
    if len(index) != len(items):
        first: dict = {}
        for i, item in enumerate(items):
            if first.setdefault(item, i) != i:
                raise RepeatedKeyError(what, item, first[item], i)
    return index


class Vocab:
    """Dense word-id assignment with frequency counts.

    Ids run 0..W-1 ordered by descending count, ties broken by first
    occurrence in the corpus.  total_tokens is the number of corpus
    tokens covered by retained words.
    """

    def __init__(self, words: Sequence[str], counts: Sequence[int]):
        if len(words) != len(counts):
            raise ValueError("words and counts length mismatch")
        self.words: list[str] = list(words)
        self.counts: np.ndarray = np.asarray(counts, dtype=np.int64)
        if len(self.counts) and self.counts.min() <= 0:
            raise ValueError("counts must be positive")
        self.word2id: dict[str, int] = index_of(self.words, "word")
        self.total_tokens: int = int(self.counts.sum())

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word2id

    def id_of(self, word: str) -> int | None:
        return self.word2id.get(word)

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """The id of each token, -1 for one out of vocab."""
        word2id = self.word2id
        return [word2id.get(t, -1) for t in tokens]


def build_vocab(sentences: Iterable[ChunkedSentence], min_count: int) -> Vocab:
    """Count words over a sentence stream and retain those with count >= min_count."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: Counter = Counter()
    for sent in sentences:
        counts.update(sent.tokens)
    words = _ranked(counts, min_count)
    return Vocab(words, [counts[w] for w in words])


def _ranked(counts: Counter, min_count: int) -> list:
    """Keys counted at least min_count times, by descending count.

    Counter keeps first-insertion order and the sort is stable, so ties
    keep first-occurrence order.
    """
    kept = [k for k, c in counts.items() if c >= min_count]
    return sorted(kept, key=lambda k: -counts[k])


PhraseKey = tuple[tuple[int, ...], str]


class PhraseVocab:
    """Dense phrase-id assignment; a phrase is a word-id sequence plus a label."""

    def __init__(self, keys: Sequence[PhraseKey], counts: Sequence[int]):
        if len(keys) != len(counts):
            raise ValueError("keys and counts length mismatch")
        self.keys: list[PhraseKey] = [(tuple(k[0]), k[1]) for k in keys]
        self.counts: np.ndarray = np.asarray(counts, dtype=np.int64)
        if len(self.counts) and self.counts.min() <= 0:
            raise ValueError("counts must be positive")
        self.key2id: dict[PhraseKey, int] = index_of(self.keys, "phrase key")

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: PhraseKey) -> bool:
        return key in self.key2id

    def id_of(self, key: PhraseKey) -> int | None:
        return self.key2id.get(key)

    def component_ids(self, phrase_id: int) -> tuple[int, ...]:
        return self.keys[phrase_id][0]

    def label(self, phrase_id: int) -> str:
        return self.keys[phrase_id][1]


def chunk_spans(
    word_ids: Sequence[int], chunks: Iterable[tuple[str, int]]
) -> Iterator[tuple[int, PhraseKey | None]]:
    """Yield each chunk's length and phrase key (its word ids and label, or
    None if any of its words is out of vocab), in order, from a sentence's
    `Vocab.ids` and its (label, length) spans."""
    start = 0
    for label, n in chunks:
        ids = tuple(word_ids[start : start + n])
        start += n
        yield n, None if -1 in ids else (ids, label)


def build_phrase_vocab(
    sentences: Iterable[ChunkedSentence],
    vocab: Vocab,
    phrase_min_count: int,
    include_singletons: bool = False,
) -> PhraseVocab:
    """Count chunk phrases whose every component word is in vocab.

    Chunks containing any out-of-vocab word are skipped; singleton chunks
    are included only when include_singletons is set.  Retains phrases
    with count >= phrase_min_count, ids ordered by descending count with
    first-occurrence tie-break.
    """
    if phrase_min_count < 1:
        raise ValueError("phrase_min_count must be >= 1")
    counts: Counter = Counter()
    for sent in sentences:
        for n, key in chunk_spans(vocab.ids(sent.tokens), sent.chunks):
            if key is not None and (n > 1 or include_singletons):
                counts[key] += 1
    keys = _ranked(counts, phrase_min_count)
    return PhraseVocab(keys, [counts[k] for k in keys])
