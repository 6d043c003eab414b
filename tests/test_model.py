"""Parameter layout per mode, offset-to-bank mapping, configuration
validation, and the binary checkpoint format (round-trip plus every
corruption class).
"""

import os
import struct
import threading
import zlib

import numpy as np
import pytest

import phrasegram.model
from phrasegram.corpus import PhraseVocab, Vocab
from phrasegram.model import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    Mode,
    TrainConfig,
    TrainingState,
    bank_for_offset,
    checkpoint_load,
    checkpoint_save,
    init_params,
)


def small_config(**kw):
    base = dict(dim=4, window=2, min_count=1, phrase_min_count=1)
    base.update(kw)
    return TrainConfig(**base)


class TestBankForOffset:
    def test_non_positional_is_single_bank(self):
        for off in (-5, -1, 1, 5):
            assert bank_for_offset(off, 5, positional=False) == 0

    def test_positional_layout_window_5(self):
        assert bank_for_offset(-5, 5, positional=True) == 0
        assert bank_for_offset(-1, 5, positional=True) == 4
        assert bank_for_offset(1, 5, positional=True) == 5
        assert bank_for_offset(5, 5, positional=True) == 9

    def test_positional_banks_are_a_bijection(self):
        for window in (1, 2, 5):
            offsets = [o for o in range(-window, window + 1) if o != 0]
            banks = [bank_for_offset(o, window, positional=True) for o in offsets]
            assert sorted(banks) == list(range(2 * window))

    def test_invalid_offsets_rejected(self):
        with pytest.raises(ValueError):
            bank_for_offset(0, 5, positional=True)
        with pytest.raises(ValueError):
            bank_for_offset(6, 5, positional=True)
        with pytest.raises(ValueError):
            bank_for_offset(-6, 5, positional=True)


class TestModes:
    def test_flags(self):
        assert not Mode.BASELINE.compositional and not Mode.BASELINE.positional
        assert Mode.COMPOSITIONAL.compositional and not Mode.COMPOSITIONAL.positional
        assert not Mode.POSITIONAL.compositional and Mode.POSITIONAL.positional
        assert (
            Mode.COMPOSITIONAL_POSITIONAL.compositional
            and Mode.COMPOSITIONAL_POSITIONAL.positional
        )

    def test_round_trip_through_value(self):
        for mode in Mode:
            assert Mode(mode.value) is mode


class TestInitParams:
    @pytest.mark.parametrize(
        "mode,n_out,n_phrase",
        [
            (Mode.BASELINE, 1, 0),
            (Mode.COMPOSITIONAL, 1, 1),
            (Mode.POSITIONAL, 4, 0),
            (Mode.COMPOSITIONAL_POSITIONAL, 4, 4),
        ],
    )
    def test_bank_counts_per_mode(self, mode, n_out, n_phrase):
        cfg = small_config(mode=mode)
        params = init_params(7, cfg, np.random.default_rng(1))
        assert len(params.output_words) == n_out
        assert len(params.phrase_output_words) == n_phrase
        for m in params.output_words + params.phrase_output_words:
            assert m.shape == (7, 4)
            assert np.all(m == 0.0)

    def test_input_range_and_dtype(self):
        cfg = small_config(dim=10)
        params = init_params(50, cfg, np.random.default_rng(2))
        assert params.input_words.dtype == np.float64
        assert np.all(np.abs(params.input_words) < 0.5 / 10)
        assert params.input_words.std() > 0

    def test_same_rng_seed_same_init(self):
        cfg = small_config()
        a = init_params(9, cfg, np.random.default_rng(5))
        b = init_params(9, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(a.input_words, b.input_words)

    def test_zero_vocab_rejected(self):
        with pytest.raises(ValueError):
            init_params(0, small_config(), np.random.default_rng(1))

    def test_validate_rejects_wrong_bank_count(self):
        cfg = small_config(mode=Mode.POSITIONAL)
        params = init_params(5, cfg, np.random.default_rng(1))
        params.output_words = params.output_words[:-1]
        with pytest.raises(ValueError, match="output matrices"):
            params.validate(cfg)

    def test_validate_rejects_shared_storage(self):
        cfg = small_config(mode=Mode.COMPOSITIONAL)
        params = init_params(5, cfg, np.random.default_rng(1))
        params.phrase_output_words[0] = params.output_words[0]
        with pytest.raises(ValueError, match="distinct"):
            params.validate(cfg)

    def test_copy_is_deep(self):
        params = init_params(
            5, small_config(mode=Mode.COMPOSITIONAL), np.random.default_rng(1)
        )
        clone = params.copy()
        clone.input_words[0, 0] = 123.0
        clone.output_words[0][0, 0] = 123.0
        assert params.input_words[0, 0] != 123.0
        assert params.output_words[0][0, 0] != 123.0


class TestTrainConfig:
    def test_defaults_match_documented_values(self):
        cfg = TrainConfig()
        assert cfg.dim == 300
        assert cfg.window == 5
        assert cfg.word_negatives == 10
        assert cfg.phrase_negatives == 10
        assert cfg.min_count == 20
        assert cfg.alpha == 1.0
        assert cfg.beta == 1.0
        assert cfg.mode is Mode.BASELINE

    def test_dict_round_trip(self):
        cfg = small_config(mode=Mode.COMPOSITIONAL_POSITIONAL, beta=0.5, epochs=3)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_mode_accepts_string(self):
        cfg = small_config(mode="compositional")
        assert cfg.mode is Mode.COMPOSITIONAL

    def test_beta_zero_allowed_for_ablation(self):
        assert small_config(beta=0.0).beta == 0.0

    def test_lr_floor_default_and_override(self):
        assert small_config(lr_start=0.025).lr_floor == pytest.approx(2.5e-6)
        assert small_config(lr_end=1e-3).lr_floor == 1e-3

    @pytest.mark.parametrize(
        "kw",
        [
            {"dim": 0},
            {"window": 0},
            {"word_negatives": 0},
            {"phrase_negatives": 0},
            {"beta": -0.1},
            {"alpha": 0.9},
            {"epochs": -1},
            {"phrase_min_count": 0},
            {"lr_start": 0.0},
            {"min_count": 0},
            {"subsample": -1.0},
            {"noise_exponent": 0.0},
            {"noise_exponent": -0.75},
        ],
    )
    def test_invalid_values_rejected(self, kw):
        with pytest.raises(ValueError):
            small_config(**kw)


def _fixture(mode=Mode.COMPOSITIONAL):
    cfg = small_config(mode=mode, seed=11)
    rng = np.random.default_rng(11)
    params = init_params(6, cfg, rng)
    for m in params.output_words + params.phrase_output_words:
        m[:] = rng.normal(size=m.shape)
    vocab = Vocab([f"w{i}" for i in range(6)], [9, 8, 7, 3, 2, 2])
    pv = PhraseVocab([((0, 1), "NP"), ((2, 3), "VP")], [4, 2])
    # one epoch of the vocabulary's 31 tokens, as checkpoint_load requires
    state = TrainingState(np.random.default_rng(1), np.random.default_rng(2), 31, 1).to_dict()
    return params, cfg, vocab, pv, state


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        params, cfg, vocab, pv, state = _fixture()
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, params, cfg, vocab, pv, state)
        loaded = checkpoint_load(path)
        assert loaded.config == cfg
        assert loaded.vocab.words == vocab.words
        np.testing.assert_array_equal(loaded.vocab.counts, vocab.counts)
        assert loaded.phrase_vocab.keys == pv.keys
        np.testing.assert_array_equal(loaded.phrase_vocab.counts, pv.counts)
        assert loaded.state == state
        for (name_a, a), (name_b, b) in zip(
            params.matrices(), loaded.params.matrices()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(a, b)

    def test_file_is_the_joined_payload_layout(self, tmp_path):
        # The matrices are written from their own buffers; the file must hold
        # the bytes of the one joined payload: magic, version, CRC32 and
        # length of the payload, the payload.  Fortran-ordered and big-endian
        # matrices are written as C-ordered little-endian rows.
        params, cfg, vocab, pv, state = _fixture(Mode.COMPOSITIONAL_POSITIONAL)
        params.input_words = np.asfortranarray(params.input_words)
        params.output_words[1] = params.output_words[1].astype(">f8")
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, params, cfg, vocab, pv, state)
        data = path.read_bytes()
        (header_len,) = struct.unpack("<I", data[24:28])
        payload = data[24 : 28 + header_len] + b"".join(
            m.astype("<f8").tobytes() for _, m in params.matrices()
        )
        want = b"PGCKPT01" + struct.pack("<IIQ", 1, zlib.crc32(payload), len(payload)) + payload
        assert data == want
        for (_, a), (_, b) in zip(params.matrices(), checkpoint_load(path).params.matrices()):
            np.testing.assert_array_equal(a, b)

    def test_loaded_matrices_are_separate_writable_arrays(self, tmp_path):
        params, cfg, vocab, pv, state = _fixture(Mode.COMPOSITIONAL_POSITIONAL)
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, params, cfg, vocab, pv, state)
        loaded = [m for _, m in checkpoint_load(path).params.matrices()]
        for m in loaded:
            assert m.dtype == np.float64
            assert m.flags.writeable and m.flags.aligned and m.flags.c_contiguous
        for i, a in enumerate(loaded):
            for b in loaded[i + 1 :]:
                assert not np.shares_memory(a, b)

    def test_matrices_are_aligned_views_of_one_allocation(self, tmp_path):
        # The matrices follow a header of any length; lengthening a word moves
        # them through every offset mod 8 in the file.
        params, cfg, _, pv, state = _fixture(Mode.COMPOSITIONAL_POSITIONAL)
        path = tmp_path / "m.ckpt"
        offsets = set()
        for extra in range(8):
            words = ["w0" + "x" * extra] + [f"w{i}" for i in range(1, 6)]
            checkpoint_save(path, params, cfg, Vocab(words, [9, 8, 7, 3, 2, 2]), pv, state)
            (header_len,) = struct.unpack("<I", path.read_bytes()[24:28])
            offsets.add((28 + header_len) % 8)
            loaded = [m for _, m in checkpoint_load(path).params.matrices()]
            for m, (name, want) in zip(loaded, params.matrices()):
                assert m.ctypes.data % 8 == 0 and m.flags.aligned, name
                assert m.base is loaded[0].base, name
                np.testing.assert_array_equal(m, want, err_msg=name)
        assert offsets == set(range(8))

    @pytest.mark.parametrize("region", ["header", "first 64 payload bytes", "each matrix", "last 15 bytes"])
    def test_one_flipped_bit_fails_the_checksum(self, tmp_path, region):
        params, cfg, vocab, pv, state = _fixture(Mode.COMPOSITIONAL_POSITIONAL)
        path = tmp_path / "m.ckpt"
        # A first word whose length leaves the payload 15 bytes past its last
        # 16-byte fold, all of them read by the kernel's byte loop.
        for extra in range(16):
            words = ["w0" + "x" * extra] + vocab.words[1:]
            checkpoint_save(path, params, cfg, Vocab(words, vocab.counts), pv, state)
            data = path.read_bytes()
            if (len(data) - 24) % 16 == 15:
                break
        assert (len(data) - 24) % 16 == 15
        (header_len,) = struct.unpack("<I", data[24:28])
        matrices = 28 + header_len
        size = params.input_words.nbytes
        positions = {
            "header": [28, 28 + header_len // 2, matrices - 1],
            "first 64 payload bytes": range(24, 24 + 64),
            "each matrix": [matrices + i * size + size // 2 for i in range(len(params.matrices()))],
            "last 15 bytes": range(len(data) - 15, len(data)),
        }[region]
        assert matrices + len(params.matrices()) * size == len(data)
        for pos in positions:
            flipped = bytearray(data)
            flipped[pos] ^= 1 << pos % 8
            path.write_bytes(flipped)
            with pytest.raises(CheckpointChecksumError, match="checksum"):
                checkpoint_load(path)

    def test_positional_banks_keep_their_order(self, tmp_path):
        params, cfg, vocab, _, _ = _fixture(Mode.COMPOSITIONAL_POSITIONAL)
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, params, cfg, vocab)
        loaded = checkpoint_load(path)
        for i, m in enumerate(params.output_words):
            np.testing.assert_array_equal(loaded.params.output_words[i], m)
        for i, m in enumerate(params.phrase_output_words):
            np.testing.assert_array_equal(loaded.params.phrase_output_words[i], m)

    def test_none_phrase_vocab_round_trips(self, tmp_path):
        params, cfg, vocab, _, _ = _fixture(Mode.BASELINE)
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, params, cfg, vocab)
        loaded = checkpoint_load(path)
        assert loaded.phrase_vocab is None
        assert loaded.state is None

    def test_no_temp_file_left_behind(self, tmp_path):
        params, cfg, vocab, pv, state = _fixture()
        checkpoint_save(tmp_path / "m.ckpt", params, cfg, vocab, pv, state)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(CheckpointFormatError, match="not a checkpoint"):
            checkpoint_load(path)

    def test_truncation_detected(self, tmp_path):
        params, cfg, vocab, pv, state = _fixture()
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, params, cfg, vocab, pv, state)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(CheckpointTruncatedError, match="payload"):
            checkpoint_load(path)

    @pytest.mark.parametrize("cut", [0, 100])
    def test_loads_from_a_pipe(self, tmp_path, monkeypatch, cut):
        # A pipe has no size to check the declared length against; it is
        # read in blocks, here made small so that the payload takes many.
        monkeypatch.setattr(phrasegram.model, "_PIPE_BLOCK", 64)
        params, cfg, vocab, pv, state = _fixture()
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, params, cfg, vocab, pv, state)
        data = path.read_bytes()
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data[: len(data) - cut],), daemon=True)
        writer.start()
        try:
            if cut:
                with pytest.raises(CheckpointTruncatedError, match="payload"):
                    checkpoint_load(fifo)
            else:
                loaded = checkpoint_load(fifo)
                for (name, m), (_, r) in zip(loaded.params.matrices(), params.matrices()):
                    np.testing.assert_array_equal(m, r, err_msg=name)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_header_truncation_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"PGCKPT01" + b"\x01\x00")
        with pytest.raises(CheckpointTruncatedError, match="header"):
            checkpoint_load(path)

    def test_corruption_detected_by_checksum(self, tmp_path):
        params, cfg, vocab, pv, state = _fixture()
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, params, cfg, vocab, pv, state)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF  # flip bits deep inside the matrix payload
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointChecksumError, match="checksum"):
            checkpoint_load(path)

    def test_unsupported_version_rejected(self, tmp_path):
        params, cfg, vocab, pv, state = _fixture()
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, params, cfg, vocab, pv, state)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field sits right after the 8-byte magic
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionError, match="version"):
            checkpoint_load(path)

    def test_overwrites_existing_file_atomically(self, tmp_path):
        params, cfg, vocab, pv, state = _fixture()
        path = tmp_path / "m.ckpt"
        checkpoint_save(path, params, cfg, vocab, pv, state)
        first = path.read_bytes()
        params.input_words[0, 0] += 1.0
        checkpoint_save(path, params, cfg, vocab, pv, state)
        assert path.read_bytes() != first
        assert checkpoint_load(path).params.input_words[0, 0] == params.input_words[0, 0]
