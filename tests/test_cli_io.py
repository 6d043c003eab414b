"""Embedding interchange round-trips, nearest-neighbor queries, run
manifests, and the command-line surface with its exit-code contract.
"""

import json
import struct
import zlib

import numpy as np
import pytest

from phrasegram.cli import main
from phrasegram.composition import CompositionConfig
from phrasegram.corpus import Vocab
from phrasegram.evaluation import WordEmbeddings, cosine
from phrasegram.embeddings_io import (
    EmbeddingsFormatError,
    export_embeddings,
    nearest_neighbors,
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
    Mode,
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    init_params,
)
from phrasegram.trainer import train


def random_embedding(rng, n=5, d=3):
    words = [f"w{i}" for i in range(n)]
    matrix = rng.normal(size=(n, d)).astype(np.float32)
    return words, matrix


class TestTextFormat:
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

    def test_unicode_words_survive(self, tmp_path):
        words = ["café", "中文", "emoji✨"]
        matrix = np.arange(9, dtype=np.float32).reshape(3, 3)
        path = tmp_path / "e.bin"
        write_embeddings_binary(path, words, matrix)
        got_words, got = read_embeddings_binary(path)
        assert got_words == words
        np.testing.assert_array_equal(got, matrix)


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


class TestNearestNeighbors:
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
        assert items["wallclock.seconds"] == "1.500"

    def test_comparable_items_mask_timing_only(self):
        items = {
            "config.dim": "4",
            "wallclock.seconds": "9.1",
            "report.0.e_w": "-1.5",
            "report.0.tokens_per_s": "1234.5",
        }
        kept = comparable_items(items)
        assert "wallclock.seconds" not in kept
        assert "report.0.tokens_per_s" not in kept
        assert kept["config.dim"] == "4"
        assert kept["report.0.e_w"] == "-1.5"

    def test_params_hash_changes_with_values(self, tmp_path):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        result = tiny_train(corpus)
        h1 = params_sha256(result.params.matrices())
        result.params.input_words[0, 0] += 1e-12
        assert params_sha256(result.params.matrices()) != h1

    def test_file_sha256_matches_hashlib(self, tmp_path):
        import hashlib

        path = tmp_path / "f"
        path.write_bytes(b"hello world")
        assert file_sha256(path) == hashlib.sha256(b"hello world").hexdigest()


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

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, capsys):
        bogus = tmp_path / "bad.ckpt"
        bogus.write_bytes(b"garbage")
        code = main(["export", "--model", str(bogus), "--out", str(tmp_path / "e")])
        assert code == 2

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
        assert checkpoint_load(out).params.all_finite()

    def test_malformed_dataset_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        tiny_corpus(corpus)
        ckpt = tmp_path / "m.ckpt"
        assert _cli_train(corpus, ckpt) == 0
        bad = tmp_path / "bad.tsv"
        bad.write_text("only two\tfields\n")
        code = main(["eval-sim", str(bad), "--model", str(ckpt)])
        assert code == 2


def _edit_checkpoint_header(path, edit):
    """Apply edit(header) to a checkpoint's JSON header; recompute the CRC."""
    data = path.read_bytes()
    payload = data[24:]
    (header_len,) = struct.unpack("<I", payload[:4])
    header = json.loads(payload[4 : 4 + header_len])
    edit(header)
    header_bytes = json.dumps(header).encode("utf-8")
    payload = struct.pack("<I", len(header_bytes)) + header_bytes + payload[4 + header_len :]
    crc_and_length = struct.pack("<IQ", zlib.crc32(payload), len(payload))
    path.write_bytes(data[:12] + crc_and_length + payload)


class TestCheckpointConfigKeys:
    """Checkpoint config keys: unknown keys, and v1 files from multi-worker builds."""

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
        _edit_checkpoint_header(
            ckpt, lambda h: h["state"].update(workers=h["state"]["workers"] * 2)
        )
        data = checkpoint_load(ckpt)
        with pytest.raises(ValueError, match="2 workers entries"):
            train(corpus, cfg, start=data)


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

    def test_plain_flag_treats_corpus_as_unchunked(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("just plain tokens here\n" * 20)
        ckpt = tmp_path / "m.ckpt"
        assert _cli_train(corpus, ckpt, "--plain", "--mode", "baseline") == 0
        assert checkpoint_load(ckpt).config.plain_text is True
