"""Chunk-annotated corpus handling: parsing, vocabularies, frequency filtering.

Corpus files are UTF-8 text, one sentence per line.  Contiguous phrase
spans are marked inline with brackets: ``[NP the cat] sat`` is a two-token
NP chunk followed by a bare token.  Bare tokens become singleton chunks
with the label ``O``.  Nesting is not allowed; a structural ``[`` opens a
chunk only at the start of a token and ``]`` closes one only at the end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Chunk",
    "ChunkedSentence",
    "ParseError",
    "Vocab",
    "PhraseVocab",
    "parse_chunked_line",
    "build_vocab",
    "build_phrase_vocab",
    "iter_corpus",
]

OUTSIDE_LABEL = "O"

_TOKEN_RE = re.compile(r"\S+")


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


@dataclass
class Chunk:
    """A labeled contiguous span of tokens."""

    label: str
    tokens: list[str]

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("chunk label must be non-empty")
        if not self.tokens:
            raise ValueError("chunk must contain at least one token")


@dataclass
class ChunkedSentence:
    """A sentence as an ordered list of chunks; token order is surface order."""

    chunks: list[Chunk] = field(default_factory=list)

    def tokens(self) -> list[str]:
        return [t for c in self.chunks for t in c.tokens]

    def to_line(self) -> str:
        """Serialize back to bracket format.

        Singleton O chunks are written bare; everything else bracketed.
        """
        parts = []
        for c in self.chunks:
            if c.label == OUTSIDE_LABEL and len(c.tokens) == 1:
                parts.append(c.tokens[0])
            else:
                parts.append("[" + c.label + " " + " ".join(c.tokens) + "]")
        return " ".join(parts)


def parse_chunked_line(line: str) -> ChunkedSentence:
    """Parse one corpus line into a ChunkedSentence.

    Unbracketed tokens become singleton chunks labeled O.  An empty line
    yields a sentence with zero chunks.  Unbalanced brackets and empty
    bracket groups raise ParseError naming the byte offset.
    """
    chunks: list[Chunk] = []
    open_label: str | None = None
    open_tokens: list[str] = []
    open_offset = 0

    for m in _TOKEN_RE.finditer(line):
        tok = m.group()
        pos = m.start()
        if tok.startswith("["):
            if open_label is not None:
                raise ParseError("nested bracket group", line, pos)
            body = tok[1:]
            closes = body.endswith("]")
            if closes:
                body = body[:-1]
            if not body:
                raise ParseError("empty chunk label", line, pos)
            if closes:
                # "[NP]" carries a label but no tokens.
                raise ParseError("empty bracket group", line, pos)
            open_label = body
            open_tokens = []
            open_offset = pos
        elif tok == "]" or tok.endswith("]"):
            if open_label is None:
                raise ParseError("unbalanced closing bracket", line, pos)
            if tok != "]":
                open_tokens.append(tok[:-1])
            if not open_tokens:
                raise ParseError("empty bracket group", line, open_offset)
            chunks.append(Chunk(open_label, open_tokens))
            open_label = None
            open_tokens = []
        elif open_label is not None:
            open_tokens.append(tok)
        else:
            chunks.append(Chunk(OUTSIDE_LABEL, [tok]))

    if open_label is not None:
        raise ParseError("unclosed bracket group", line, open_offset)
    return ChunkedSentence(chunks)


def _plain_sentence(line: str) -> ChunkedSentence:
    """Plain-text mode: every whitespace token is a singleton O chunk."""
    return ChunkedSentence([Chunk(OUTSIDE_LABEL, [t]) for t in line.split()])


def _lowercase(sentence: ChunkedSentence) -> ChunkedSentence:
    for c in sentence.chunks:
        c.tokens = [t.lower() for t in c.tokens]
    return sentence


def iter_corpus(
    path: str | Path, *, lowercase: bool = True, plain: bool = False
) -> Iterator[ChunkedSentence]:
    """Stream a corpus file as ChunkedSentences, one per line.

    Chunk labels are never lowercased; tokens are iff lowercase is set.
    Parse failures are re-raised with file and line context.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if plain:
                sent = _plain_sentence(line)
            else:
                try:
                    sent = parse_chunked_line(line)
                except ParseError as exc:
                    raise ParseError(
                        f"{path}:{lineno}: {exc.reason}", line, exc.char_offset
                    ) from exc
            if lowercase:
                sent = _lowercase(sent)
            yield sent


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
        self.word2id: dict[str, int] = {w: i for i, w in enumerate(self.words)}
        self.total_tokens: int = int(self.counts.sum())

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word2id

    def id_of(self, word: str) -> int | None:
        return self.word2id.get(word)


def build_vocab(sentences: Iterable[ChunkedSentence], min_count: int) -> Vocab:
    """Count words over a sentence stream and retain those with count >= min_count."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    n_seen = 0
    for sent in sentences:
        for tok in sent.tokens():
            if tok not in counts:
                counts[tok] = 0
                first_seen[tok] = n_seen
                n_seen += 1
            counts[tok] += 1
    retained = [w for w, c in counts.items() if c >= min_count]
    retained.sort(key=lambda w: (-counts[w], first_seen[w]))
    return Vocab(retained, [counts[w] for w in retained])


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
        self.key2id: dict[PhraseKey, int] = {k: i for i, k in enumerate(self.keys)}

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


def chunk_phrase_key(chunk: Chunk, vocab: Vocab) -> PhraseKey | None:
    """Map a chunk to its phrase key, or None if any word is out of vocab."""
    ids = []
    for tok in chunk.tokens:
        wid = vocab.id_of(tok)
        if wid is None:
            return None
        ids.append(wid)
    return (tuple(ids), chunk.label)


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
    counts: dict[PhraseKey, int] = {}
    first_seen: dict[PhraseKey, int] = {}
    n_seen = 0
    for sent in sentences:
        for chunk in sent.chunks:
            if len(chunk.tokens) == 1 and not include_singletons:
                continue
            key = chunk_phrase_key(chunk, vocab)
            if key is None:
                continue
            if key not in counts:
                counts[key] = 0
                first_seen[key] = n_seen
                n_seen += 1
            counts[key] += 1
    retained = [k for k, c in counts.items() if c >= phrase_min_count]
    retained.sort(key=lambda k: (-counts[k], first_seen[k]))
    return PhraseVocab(retained, [counts[k] for k in retained])
