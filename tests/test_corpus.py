"""Bracket-format parsing, serialization round-trips, corpus ingest, and
vocabulary construction checked against brute-force recounts.
"""

import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phrasegram.corpus import (
    ChunkedSentence,
    ParseError,
    PhraseVocab,
    RepeatedKeyError,
    Vocab,
    build_phrase_vocab,
    build_vocab,
    chunk_spans,
    iter_corpus,
    parse_chunked_line,
)
from phrasegram.trainer import map_sentence

tokens_st = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
labels_st = st.sampled_from(["NP", "VP", "PP", "ADJP", "O"])


def sentence_from(chunks):
    """A ChunkedSentence from (label, tokens) pairs: flat tokens plus spans."""
    return ChunkedSentence(
        [t for _, words in chunks for t in words], [(label, len(words)) for label, words in chunks]
    )


def sentences_of(tokens, labels=labels_st):
    chunk = st.tuples(labels, st.lists(tokens, min_size=1, max_size=4))
    return st.lists(chunk, min_size=0, max_size=6).map(sentence_from)


sentence_st = sentences_of(tokens_st)


class TestParsing:
    def test_mixed_line(self):
        sent = parse_chunked_line("[NP the cat] sat [PP on the mat]")
        assert sent.tokens == ["the", "cat", "sat", "on", "the", "mat"]
        assert sent.chunks == [("NP", 2), ("O", 1), ("PP", 3)]

    def test_bare_tokens_become_singleton_o_chunks(self):
        sent = parse_chunked_line("a b c")
        assert sent.tokens == ["a", "b", "c"]
        assert sent.chunks == [("O", 1)] * 3

    def test_empty_line_yields_empty_sentence(self):
        assert parse_chunked_line("") == ChunkedSentence([], [])
        assert parse_chunked_line("   ") == ChunkedSentence([], [])

    def test_close_bracket_attached_to_token(self):
        sent = parse_chunked_line("[NP dogs] [VP bark]")
        assert sent == ChunkedSentence(["dogs", "bark"], [("NP", 1), ("VP", 1)])

    def test_close_bracket_standalone(self):
        sent = parse_chunked_line("[NP dogs ] bark")
        assert sent == ChunkedSentence(["dogs", "bark"], [("NP", 1), ("O", 1)])

    @given(sentence_st)
    def test_serialize_parse_round_trip(self, sentence):
        assert parse_chunked_line(sentence.to_line()) == sentence

    def test_singleton_o_serializes_bare(self):
        sent = ChunkedSentence(["hello"], [("O", 1)])
        assert sent.to_line() == "hello"

    def test_multiword_o_serializes_bracketed(self):
        sent = ChunkedSentence(["a", "b", "c"], [("O", 2), ("O", 1)])
        assert sent.to_line() == "[O a b] c"


class TestParseErrors:
    def test_nested_group(self):
        with pytest.raises(ParseError, match="nested"):
            parse_chunked_line("[NP the [VP cat]]")

    def test_unclosed_group(self):
        with pytest.raises(ParseError, match="unclosed"):
            parse_chunked_line("[NP the cat")

    def test_stray_close(self):
        with pytest.raises(ParseError, match="unbalanced"):
            parse_chunked_line("the cat ]")

    def test_empty_group(self):
        with pytest.raises(ParseError, match="empty bracket group"):
            parse_chunked_line("[NP] cat")

    def test_group_with_label_but_no_tokens(self):
        with pytest.raises(ParseError, match="empty bracket group"):
            parse_chunked_line("[NP ] cat")

    def test_missing_label(self):
        with pytest.raises(ParseError, match="label"):
            parse_chunked_line("[ cat dog]")

    def test_byte_offset_counts_utf8_bytes(self):
        # two 2-byte characters and a space precede the bracket
        with pytest.raises(ParseError) as info:
            parse_chunked_line("αβ [NP x")
        assert info.value.byte_offset == 5

    def test_offset_points_at_offending_token(self):
        with pytest.raises(ParseError) as info:
            parse_chunked_line("ab ]")
        assert info.value.byte_offset == 3

    def test_offset_skips_earlier_copies_of_the_token(self):
        # "]" also ends the token before it, and "[NP" holds the text "NP".
        with pytest.raises(ParseError) as info:
            parse_chunked_line("NP [NP a] ]")
        assert (info.value.reason, info.value.byte_offset) == ("unbalanced closing bracket", 10)


def reference_parse(line):
    """A reference parser that finds tokens with a regex and tracks
    character positions instead of walking `line.split()`: the oracle
    of TestParserMatchesReference."""
    tokens, chunks = [], []
    open_label, open_start, open_offset = None, 0, 0
    for m in re.finditer(r"\S+", line):
        tok, pos = m.group(), m.start()
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
                raise ParseError("empty bracket group", line, pos)
            open_label, open_start, open_offset = body, len(tokens), pos
        elif tok == "]" or tok.endswith("]"):
            if open_label is None:
                raise ParseError("unbalanced closing bracket", line, pos)
            if tok != "]":
                tokens.append(tok[:-1])
            if len(tokens) == open_start:
                raise ParseError("empty bracket group", line, open_offset)
            chunks.append((open_label, len(tokens) - open_start))
            open_label = None
        else:
            tokens.append(tok)
            if open_label is None:
                chunks.append(("O", 1))
    if open_label is not None:
        raise ParseError("unclosed bracket group", line, open_offset)
    return ChunkedSentence(tokens, chunks)


def _outcome(parse, line):
    try:
        return parse(line)
    except ParseError as exc:
        return exc.reason, exc.char_offset, exc.byte_offset


# Every code point str.isspace() accepts: \t, \x1c, \x85, \xa0, \u2003, \u3000, ...
WHITESPACE = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
bare_word_st = st.text(alphabet="aßΣé中😀", min_size=1, max_size=3)


def _bracketed(label, words, detached):
    """A chunk's pieces, its closing bracket attached to the last word or not."""
    return ["[" + label, *words, "]"] if detached else ["[" + label, *words[:-1], words[-1] + "]"]


# A line is a run of groups: bare words, well-formed chunks, and stray
# pieces that break the bracket structure (or only look as if they might).
line_group_st = st.one_of(
    bare_word_st.map(lambda w: [w]),
    st.builds(_bracketed, bare_word_st, st.lists(bare_word_st, min_size=1, max_size=3), st.booleans()),
    bare_word_st.map(lambda w: ["[" + w]),  # opens a group
    bare_word_st.map(lambda w: [w + "]"]),  # closes a group
    bare_word_st.map(lambda w: ["[" + w + "]"]),  # a label and no tokens
    st.sampled_from(["[", "]", "[]", "[[", "]]", "a]b", "a[b"]).map(lambda w: [w]),
)
line_pieces_st = st.lists(line_group_st, max_size=6).map(lambda gs: [p for g in gs for p in g])
separator_st = st.text(alphabet=WHITESPACE, min_size=1, max_size=3)


@st.composite
def chunked_lines(draw):
    pieces = draw(line_pieces_st)
    seps = draw(st.lists(separator_st, min_size=len(pieces) + 1, max_size=len(pieces) + 1))
    edges = draw(st.tuples(st.booleans(), st.booleans()))
    line = "".join(sep + piece for sep, piece in zip(seps, pieces))
    line = line if edges[0] else line[len(seps[0]) :]
    return line + seps[-1] if edges[1] else line


class TestParserMatchesReference:
    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(chunked_lines())
    def test_same_sentence_or_same_error(self, line):
        assert _outcome(parse_chunked_line, line) == _outcome(reference_parse, line)

    def test_strategy_reaches_every_outcome(self):
        # The differential test is only as good as the lines it draws.
        outcomes = set()

        @settings(max_examples=300, derandomize=True, deadline=None)
        @given(chunked_lines())
        def collect(line):
            result = _outcome(reference_parse, line)
            kind = "ok" if isinstance(result, ChunkedSentence) else result[0]
            outcomes.add((kind, any(n > 1 for _, n in result.chunks) if kind == "ok" else None))

        collect()
        assert outcomes >= {
            ("ok", True),
            ("nested bracket group", None),
            ("empty chunk label", None),
            ("empty bracket group", None),
            ("unbalanced closing bracket", None),
            ("unclosed bracket group", None),
        }


class TestCorpusIO:
    def test_lowercases_tokens_not_labels(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[NP The CAT] SAT\n")
        (sent,) = list(iter_corpus(path))
        assert sent == ChunkedSentence(["the", "cat", "sat"], [("NP", 2), ("O", 1)])

    def test_lowercase_can_be_disabled(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("The CAT\n")
        (sent,) = list(iter_corpus(path, lowercase=False))
        assert sent.tokens == ["The", "CAT"]

    def test_plain_mode_ignores_brackets(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[NP the cat]\n")
        (sent,) = list(iter_corpus(path, plain=True))
        assert sent.tokens == ["[np", "the", "cat]"]
        assert sent.chunks == [("O", 1)] * 3

    def test_parse_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("fine line\nthe cat ] sat\n")
        with pytest.raises(ParseError, match=r"c\.txt:2: .* at byte offset 8$") as exc:
            list(iter_corpus(path))
        assert exc.value.byte_offset == 8

    @pytest.mark.parametrize("plain", [False, True])
    def test_invalid_utf8_names_file_line_and_byte(self, tmp_path, plain):
        path = tmp_path / "c.txt"
        path.write_bytes(b"a b c\nd \xc3\xa9 \xff e\n")
        with pytest.raises(ParseError, match=r"c\.txt:2: invalid UTF-8 at byte offset 5$") as exc:
            list(iter_corpus(path, plain=plain))
        assert exc.value.byte_offset == 5

    def test_one_sentence_per_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\n\nc\n")
        sents = list(iter_corpus(path))
        assert [len(s.chunks) for s in sents] == [2, 0, 1]

    @pytest.mark.parametrize("plain", [False, True])
    def test_lines_end_at_newline_only(self, tmp_path, plain):
        # \r\n ends a line; a lone \r is whitespace inside one, as wc -l counts.
        path = tmp_path / "c.txt"
        path.write_bytes(b"a b\rc d\r\ne\r\n")
        sents = list(iter_corpus(path, plain=plain))
        assert [s.tokens for s in sents] == [["a", "b", "c", "d"], ["e"]]

    def test_lone_carriage_return_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"a b\rc d\n[NP x\n")
        with pytest.raises(ParseError, match=r"c\.txt:2: unclosed bracket group at byte offset 0$"):
            list(iter_corpus(path))


# Tokens that case folding treats specially: a final sigma, a dotted capital I
# that lowercases to two code points, and a sharp s that has no capital here.
case_tokens_st = st.text(alphabet="aZΣσςİiß", min_size=1, max_size=5)
plain_tokens_st = st.text(alphabet="aZΣİß[]", min_size=1, max_size=5)


def _write_lines(path, sentences):
    path.write_bytes(b"".join(s.to_line().encode("utf-8") + b"\r\n" for s in sentences))


def _folded(sentence, lowercase):
    if not lowercase:
        return sentence
    return ChunkedSentence([t.lower() for t in sentence.tokens], sentence.chunks)


def _brute_spans(sentence, vocab):
    """(length, key) per chunk, recounted from the spans with plain indexing."""
    out, start = [], 0
    for label, n in sentence.chunks:
        words = sentence.tokens[start : start + n]
        start += n
        known = all(w in vocab.word2id for w in words)
        out.append((n, (tuple(vocab.word2id[w] for w in words), label) if known else None))
    return out


def _ranked(counts, min_count):
    """(key, count) kept at min_count, by descending count, then first seen."""
    kept = [(k, c) for k, c in counts.items() if c >= min_count]
    return sorted(kept, key=lambda kc: -kc[1])


class TestIngestRoundTrip:
    """Generated sentences written with to_line() and \\r\\n line ends come
    back from iter_corpus as generated, case-folded per token when asked."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(sentences_of(case_tokens_st), max_size=8), st.booleans())
    def test_bracketed_lines(self, tmp_path_factory, sentences, lowercase):
        path = tmp_path_factory.mktemp("ingest") / "c.txt"
        _write_lines(path, sentences)
        read = list(iter_corpus(path, lowercase=lowercase))
        assert read == [_folded(s, lowercase) for s in sentences]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(plain_tokens_st, max_size=6), max_size=8), st.booleans())
    def test_plain_lines(self, tmp_path_factory, lines, lowercase):
        # Bare tokens serialize bare, so these lines have no bracket groups,
        # but the tokens may hold brackets as ordinary characters.
        sentences = [ChunkedSentence(tokens, [("O", 1)] * len(tokens)) for tokens in lines]
        path = tmp_path_factory.mktemp("ingest") / "c.txt"
        _write_lines(path, sentences)
        read = list(iter_corpus(path, lowercase=lowercase, plain=True))
        assert read == [_folded(s, lowercase) for s in sentences]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(sentences_of(case_tokens_st), max_size=8),
        st.booleans(),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    def test_vocabularies_and_mapping_match_recount(
        self, tmp_path_factory, sentences, lowercase, min_count, phrase_min_count
    ):
        path = tmp_path_factory.mktemp("ingest") / "c.txt"
        _write_lines(path, sentences)
        folded = [_folded(s, lowercase) for s in sentences]

        vocab = build_vocab(iter_corpus(path, lowercase=lowercase), min_count)
        counts = Counter(t for s in folded for t in s.tokens)
        assert list(zip(vocab.words, vocab.counts.tolist())) == _ranked(counts, min_count)

        for singletons in (False, True):
            pv = build_phrase_vocab(
                iter_corpus(path, lowercase=lowercase), vocab, phrase_min_count, singletons
            )
            keys = Counter(
                key
                for s in folded
                for n, key in _brute_spans(s, vocab)
                if key is not None and (n > 1 or singletons)
            )
            assert list(zip(pv.keys, pv.counts.tolist())) == _ranked(keys, phrase_min_count)
            for s in folded:
                mapped = map_sentence(s, vocab, pv)
                assert mapped.word_ids == [vocab.word2id.get(t, -1) for t in s.tokens]
                assert mapped.phrase_ids == [
                    -1 if key is None else pv.key2id.get(key, -1) for _, key in _brute_spans(s, vocab)
                ]


class TestVocab:
    def test_min_count_filter_matches_recount(self, tmp_path):
        rng = np.random.default_rng(43)
        words = [f"w{i}" for i in range(30)]
        lines = [
            " ".join(rng.choice(words, size=10, p=_zipf(len(words))))
            for _ in range(200)
        ]
        path = tmp_path / "c.txt"
        path.write_text("\n".join(lines) + "\n")

        vocab = build_vocab(iter_corpus(path), min_count=5)
        truth = Counter(w for line in lines for w in line.split())
        expected = {w: c for w, c in truth.items() if c >= 5}
        assert set(vocab.words) == set(expected)
        for w in vocab.words:
            assert vocab.counts[vocab.word2id[w]] == expected[w]
        assert vocab.total_tokens == sum(expected.values())

    def test_ids_ordered_by_count_then_first_seen(self):
        sents = [parse_chunked_line("b a b c a c c")]
        vocab = build_vocab(sents, min_count=1)
        # c outranks by count; b and a tie at 2 and break by first occurrence
        assert vocab.words == ["c", "b", "a"]

    def test_min_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="min_count"):
            build_vocab([], min_count=0)

    def test_membership_and_lookup(self):
        vocab = Vocab(["x", "y"], [2, 1])
        assert "x" in vocab and "q" not in vocab
        assert vocab.id_of("y") == 1
        assert vocab.id_of("q") is None

    def test_repeated_word_rejected(self):
        # A repeat would shadow the first id: that row could never be looked up.
        with pytest.raises(RepeatedKeyError, match=r"^word 'cat' is repeated: ids 0 and 2$") as info:
            Vocab(["cat", "dog", "cat"], [3, 2, 1])
        assert info.value.ids == (0, 2)


def _zipf(n):
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = 1.0 / ranks
    return p / p.sum()


class TestPhraseVocab:
    def _vocab(self):
        return Vocab(["the", "cat", "dog", "sat"], [10, 8, 6, 4])

    def test_key_maps_words_to_ids(self):
        sent = parse_chunked_line("[NP the cat] sat")
        word_ids = self._vocab().ids(sent.tokens)
        assert word_ids == [0, 1, 3]
        assert list(chunk_spans(word_ids, sent.chunks)) == [(2, ((0, 1), "NP")), (1, ((3,), "O"))]

    def test_key_none_when_any_word_oov(self):
        sent = parse_chunked_line("[NP the unicorn] unicorn cat")
        word_ids = self._vocab().ids(sent.tokens)
        assert word_ids == [0, -1, -1, 1]
        assert list(chunk_spans(word_ids, sent.chunks)) == [(2, None), (1, None), (1, ((1,), "O"))]

    def test_counting_matches_recount(self):
        lines = [
            "[NP the cat] sat",
            "[NP the cat] [VP sat]",
            "[NP the dog] sat",
            "[NP the cat] runs",
            "[NP the unicorn] sat",
        ]
        sents = [parse_chunked_line(ln) for ln in lines]
        vocab = self._vocab()
        pv = build_phrase_vocab(sents, vocab, phrase_min_count=1)
        assert pv.id_of(((0, 1), "NP")) is not None
        assert pv.counts[pv.id_of(((0, 1), "NP"))] == 3
        assert pv.counts[pv.id_of(((0, 2), "NP"))] == 1
        # the OOV chunk and all singleton chunks are skipped
        assert ((0,), "O") not in pv
        assert len(pv) == 2

    def test_singletons_excluded_by_default(self):
        sents = [parse_chunked_line("[VP sat] [NP the cat]")] * 3
        pv = build_phrase_vocab(sents, self._vocab(), phrase_min_count=1)
        assert ((3,), "VP") not in pv
        assert ((0, 1), "NP") in pv

    def test_singletons_included_on_request(self):
        sents = [parse_chunked_line("[VP sat] [NP the cat]")] * 3
        pv = build_phrase_vocab(
            sents, self._vocab(), phrase_min_count=1, include_singletons=True
        )
        assert ((3,), "VP") in pv

    def test_min_count_filter(self):
        sents = [parse_chunked_line("[NP the cat]")] * 4 + [
            parse_chunked_line("[NP the dog]")
        ]
        pv = build_phrase_vocab(sents, self._vocab(), phrase_min_count=2)
        assert ((0, 1), "NP") in pv
        assert ((0, 2), "NP") not in pv

    def test_same_words_different_label_are_distinct(self):
        sents = [parse_chunked_line("[NP the cat] [VP the cat]")]
        pv = build_phrase_vocab(sents, self._vocab(), phrase_min_count=1)
        assert ((0, 1), "NP") in pv
        assert ((0, 1), "VP") in pv
        assert pv.id_of(((0, 1), "NP")) != pv.id_of(((0, 1), "VP"))

    def test_component_ids_and_label(self):
        pv = build_phrase_vocab(
            [parse_chunked_line("[NP the cat]")], self._vocab(), phrase_min_count=1
        )
        assert pv.component_ids(0) == (0, 1)
        assert pv.label(0) == "NP"

    def test_repeated_key_rejected(self):
        # Keys are compared as stored: a list of ids repeats the tuple of the same ids.
        keys = [((0, 1), "NP"), ((0, 1), "VP"), ([0, 1], "NP")]
        with pytest.raises(RepeatedKeyError, match=r"^phrase key \(\(0, 1\), 'NP'\) is repeated: ids 0 and 2$"):
            PhraseVocab(keys, [3, 2, 1])

