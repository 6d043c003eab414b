"""Bracket-format parsing, serialization round-trips, and vocabulary
construction checked against brute-force recounts.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from phrasegram.corpus import (
    Chunk,
    ChunkedSentence,
    ParseError,
    Vocab,
    build_phrase_vocab,
    build_vocab,
    chunk_phrase_key,
    iter_corpus,
    parse_chunked_line,
)

tokens_st = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6)
labels_st = st.sampled_from(["NP", "VP", "PP", "ADJP", "O"])
chunk_st = st.builds(
    Chunk, labels_st, st.lists(tokens_st, min_size=1, max_size=4)
)
sentence_st = st.builds(ChunkedSentence, st.lists(chunk_st, min_size=0, max_size=6))


class TestParsing:
    def test_mixed_line(self):
        sent = parse_chunked_line("[NP the cat] sat [PP on the mat]")
        assert [c.label for c in sent.chunks] == ["NP", "O", "PP"]
        assert sent.chunks[0].tokens == ["the", "cat"]
        assert sent.chunks[1].tokens == ["sat"]
        assert sent.chunks[2].tokens == ["on", "the", "mat"]
        assert sent.tokens() == ["the", "cat", "sat", "on", "the", "mat"]

    def test_bare_tokens_become_singleton_o_chunks(self):
        sent = parse_chunked_line("a b c")
        assert all(c.label == "O" and len(c.tokens) == 1 for c in sent.chunks)

    def test_empty_line_yields_empty_sentence(self):
        assert parse_chunked_line("").chunks == []
        assert parse_chunked_line("   ").chunks == []

    def test_close_bracket_attached_to_token(self):
        sent = parse_chunked_line("[NP dogs] [VP bark]")
        assert sent.chunks == [Chunk("NP", ["dogs"]), Chunk("VP", ["bark"])]

    def test_close_bracket_standalone(self):
        sent = parse_chunked_line("[NP dogs ] bark")
        assert sent.chunks == [Chunk("NP", ["dogs"]), Chunk("O", ["bark"])]

    @given(sentence_st)
    def test_serialize_parse_round_trip(self, sentence):
        assert parse_chunked_line(sentence.to_line()) == sentence

    def test_singleton_o_serializes_bare(self):
        sent = ChunkedSentence([Chunk("O", ["hello"])])
        assert sent.to_line() == "hello"

    def test_multiword_o_serializes_bracketed(self):
        sent = ChunkedSentence([Chunk("O", ["a", "b"])])
        assert sent.to_line() == "[O a b]"


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


class TestCorpusIO:
    def test_lowercases_tokens_not_labels(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[NP The CAT] SAT\n")
        (sent,) = list(iter_corpus(path))
        assert sent.chunks[0] == Chunk("NP", ["the", "cat"])
        assert sent.chunks[1] == Chunk("O", ["sat"])

    def test_lowercase_can_be_disabled(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("The CAT\n")
        (sent,) = list(iter_corpus(path, lowercase=False))
        assert sent.tokens() == ["The", "CAT"]

    def test_plain_mode_ignores_brackets(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[NP the cat]\n")
        (sent,) = list(iter_corpus(path, plain=True))
        assert sent.tokens() == ["[np", "the", "cat]"]
        assert all(c.label == "O" for c in sent.chunks)

    def test_parse_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("fine line\nthe cat ] sat\n")
        with pytest.raises(ParseError, match=r"c\.txt:2: .* at byte offset 8$") as exc:
            list(iter_corpus(path))
        assert exc.value.byte_offset == 8

    def test_one_sentence_per_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a b\n\nc\n")
        sents = list(iter_corpus(path))
        assert [len(s.chunks) for s in sents] == [2, 0, 1]


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


def _zipf(n):
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = 1.0 / ranks
    return p / p.sum()


class TestPhraseVocab:
    def _vocab(self):
        return Vocab(["the", "cat", "dog", "sat"], [10, 8, 6, 4])

    def test_key_maps_words_to_ids(self):
        key = chunk_phrase_key(Chunk("NP", ["the", "cat"]), self._vocab())
        assert key == ((0, 1), "NP")

    def test_key_none_when_any_word_oov(self):
        assert chunk_phrase_key(Chunk("NP", ["the", "unicorn"]), self._vocab()) is None

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


class TestChunkValidation:
    def test_empty_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            Chunk("", ["x"])

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError, match="token"):
            Chunk("NP", [])
