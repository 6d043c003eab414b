"""Trainable parameters for the four model variants, and checkpointing.

Variants:
  baseline                  - word-level skip-gram only
  compositional             - adds phrase-level skip-gram with a separate
                              component-word output space for composing
                              context/negative phrase vectors
  positional                - one word-level output matrix per relative
                              window offset (2c matrices for window c)
  compositional+positional  - both: positional word-level output banks and
                              positional phrase-composition banks

Phrase vectors are never stored: they are always composed on the fly from
component word vectors.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from phrasegram.corpus import PhraseVocab, Vocab

__all__ = [
    "Mode",
    "TrainConfig",
    "ModelParams",
    "init_params",
    "bank_for_offset",
    "checkpoint_save",
    "checkpoint_load",
    "CheckpointData",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointVersionError",
    "CheckpointTruncatedError",
    "CheckpointChecksumError",
]

_MAGIC = b"PGCKPT01"
_FORMAT_VERSION = 1


class Mode(str, Enum):
    BASELINE = "baseline"
    COMPOSITIONAL = "compositional"
    POSITIONAL = "positional"
    COMPOSITIONAL_POSITIONAL = "compositional+positional"

    @property
    def compositional(self) -> bool:
        return self in (Mode.COMPOSITIONAL, Mode.COMPOSITIONAL_POSITIONAL)

    @property
    def positional(self) -> bool:
        return self in (Mode.POSITIONAL, Mode.COMPOSITIONAL_POSITIONAL)


@dataclass
class TrainConfig:
    """Full training configuration.

    beta scales the phrase-level objective relative to the word-level one;
    beta = 0 disables the phrase-level pass entirely (used for ablation).
    lr_end defaults to lr_start * 1e-4 and acts as the decay floor.
    """

    dim: int = 300
    window: int = 5
    word_negatives: int = 10
    phrase_negatives: int = 10
    beta: float = 1.0
    alpha: float = 1.0
    mode: Mode = Mode.BASELINE
    min_count: int = 20
    phrase_min_count: int = 5
    include_singletons: bool = False
    lr_start: float = 0.025
    lr_end: float | None = None
    epochs: int = 1
    seed: int = 1
    subsample: float = 0.0
    noise_exponent: float = 0.75
    lowercase: bool = True
    plain_text: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.mode, str) and not isinstance(self.mode, Mode):
            self.mode = Mode(self.mode)
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.word_negatives < 1:
            raise ValueError("word_negatives must be >= 1")
        if self.phrase_negatives < 1:
            raise ValueError("phrase_negatives must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.alpha < 1:
            raise ValueError("alpha must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr_start <= 0:
            raise ValueError("lr_start must be > 0")
        if self.min_count < 1 or self.phrase_min_count < 1:
            raise ValueError("min counts must be >= 1")

    @property
    def lr_floor(self) -> float:
        return self.lr_end if self.lr_end is not None else self.lr_start * 1e-4

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mode"] = self.mode.value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Inverse of to_dict; rejects keys that are not config fields.

        v1 checkpoints written before training became single-state carry
        ``workers: 1``, which is accepted and dropped.
        """
        d = dict(d)
        workers = d.pop("workers", 1)
        if workers != 1:
            raise ValueError(
                f"config.workers={workers!r}: multi-worker training was removed, "
                "only workers=1 checkpoints can be loaded"
            )
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
        return cls(**d)


@dataclass
class ModelParams:
    """All trainable matrices, float64 row-major; row i belongs to word id i.

    output_words holds the word-level context matrices (one per relative
    position in positional modes, else a single matrix).  phrase_output_words
    holds the component-word matrices used to compose context and negative
    phrase vectors; empty in non-compositional modes.
    """

    input_words: np.ndarray
    output_words: list[np.ndarray]
    phrase_output_words: list[np.ndarray] = field(default_factory=list)
    mode: Mode = Mode.BASELINE
    window: int = 5

    @property
    def vocab_size(self) -> int:
        return self.input_words.shape[0]

    @property
    def dim(self) -> int:
        return self.input_words.shape[1]

    def validate(self) -> None:
        """Check mode/shape consistency; raises ValueError on violation."""
        w, d = self.input_words.shape
        n_banks = 2 * self.window if self.mode.positional else 1
        if len(self.output_words) != n_banks:
            raise ValueError(
                f"mode {self.mode.value} with window {self.window} needs "
                f"{n_banks} output matrices, got {len(self.output_words)}"
            )
        expected_phrase = n_banks if self.mode.compositional else 0
        if len(self.phrase_output_words) != expected_phrase:
            raise ValueError(
                f"mode {self.mode.value} needs {expected_phrase} phrase output "
                f"matrices, got {len(self.phrase_output_words)}"
            )
        for m in self.output_words + self.phrase_output_words:
            if m.shape != (w, d):
                raise ValueError(f"matrix shape {m.shape} != {(w, d)}")
        for m in self.phrase_output_words:
            for o in self.output_words:
                if m is o:
                    raise ValueError("phrase output must be distinct storage")

    def all_finite(self) -> bool:
        return all(
            np.isfinite(m).all()
            for m in [self.input_words, *self.output_words, *self.phrase_output_words]
        )

    def matrices(self) -> list[tuple[str, np.ndarray]]:
        named = [("input", self.input_words)]
        named += [(f"output:{i}", m) for i, m in enumerate(self.output_words)]
        named += [(f"phrase_output:{i}", m) for i, m in enumerate(self.phrase_output_words)]
        return named

    def copy(self) -> "ModelParams":
        return ModelParams(
            input_words=self.input_words.copy(),
            output_words=[m.copy() for m in self.output_words],
            phrase_output_words=[m.copy() for m in self.phrase_output_words],
            mode=self.mode,
            window=self.window,
        )


def bank_for_offset(offset: int, window: int, positional: bool) -> int:
    """Map a relative position to an output-matrix index.

    Non-positional models use a single bank.  Positional models keep one
    bank per offset: -window..-1 map to 0..window-1 and +1..+window map to
    window..2*window-1.
    """
    if not positional:
        return 0
    if offset == 0 or abs(offset) > window:
        raise ValueError(f"offset {offset} outside window {window}")
    return offset + window if offset < 0 else offset + window - 1


def init_params(
    vocab_size: int, config: TrainConfig, rng: np.random.Generator
) -> ModelParams:
    """Allocate and initialize parameters for the configured mode.

    Input embeddings are uniform in (-0.5/dim, +0.5/dim); all output
    matrices start at zero.
    """
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    d = config.dim
    inp = (rng.random((vocab_size, d)) - 0.5) / d
    n_banks = 2 * config.window if config.mode.positional else 1
    out = [np.zeros((vocab_size, d)) for _ in range(n_banks)]
    phrase_out = (
        [np.zeros((vocab_size, d)) for _ in range(n_banks)]
        if config.mode.compositional
        else []
    )
    params = ModelParams(
        input_words=inp,
        output_words=out,
        phrase_output_words=phrase_out,
        mode=config.mode,
        window=config.window,
    )
    params.validate()
    return params


class CheckpointError(Exception):
    """Base class for checkpoint read failures."""


class CheckpointFormatError(CheckpointError):
    """File does not carry the checkpoint magic."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported."""


class CheckpointTruncatedError(CheckpointError):
    """File ends before the declared payload length."""


class CheckpointChecksumError(CheckpointError):
    """Payload CRC does not match; file is corrupt."""


@dataclass
class CheckpointData:
    params: ModelParams
    config: TrainConfig
    vocab: Vocab
    phrase_vocab: PhraseVocab | None
    state: dict | None


def checkpoint_save(
    path: str | Path,
    params: ModelParams,
    config: TrainConfig,
    vocab: Vocab,
    phrase_vocab: PhraseVocab | None = None,
    state: dict | None = None,
) -> None:
    """Write a checkpoint; loading reproduces every matrix bit-exactly.

    Layout (little-endian): 8-byte magic, u32 format version, u32 CRC32 of
    the payload, u64 payload length, payload.  The payload is a u32-length-
    prefixed JSON header (config, vocabularies, optional resume state,
    matrix manifest) followed by the raw float64 matrices in manifest order.
    """
    header = {
        "config": config.to_dict(),
        "vocab": {"words": vocab.words, "counts": [int(c) for c in vocab.counts]},
        "phrase_vocab": None
        if phrase_vocab is None
        else {
            "keys": [[list(ids), label] for ids, label in phrase_vocab.keys],
            "counts": [int(c) for c in phrase_vocab.counts],
        },
        "state": state,
        "matrices": [
            {"name": name, "rows": int(m.shape[0]), "dim": int(m.shape[1])}
            for name, m in params.matrices()
        ],
    }
    header_bytes = json.dumps(header).encode("utf-8")
    blobs = [struct.pack("<I", len(header_bytes)), header_bytes]
    for _, m in params.matrices():
        blobs.append(np.ascontiguousarray(m, dtype="<f8").tobytes())
    payload = b"".join(blobs)
    crc = zlib.crc32(payload)
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _FORMAT_VERSION))
        fh.write(struct.pack("<I", crc))
        fh.write(struct.pack("<Q", len(payload)))
        fh.write(payload)
    tmp.replace(path)


def checkpoint_load(path: str | Path) -> CheckpointData:
    """Read a checkpoint written by checkpoint_save.

    Raises CheckpointFormatError, CheckpointVersionError,
    CheckpointTruncatedError or CheckpointChecksumError; never returns a
    partially read model.
    """
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise CheckpointFormatError(f"{path}: not a checkpoint file")
        head = fh.read(16)
        if len(head) < 16:
            raise CheckpointTruncatedError(f"{path}: truncated header")
        version, crc, length = struct.unpack("<IIQ", head)
        if version != _FORMAT_VERSION:
            raise CheckpointVersionError(
                f"{path}: format version {version}, expected {_FORMAT_VERSION}"
            )
        payload = fh.read(length)
    if len(payload) < length:
        raise CheckpointTruncatedError(
            f"{path}: payload is {len(payload)} bytes, expected {length}"
        )
    if zlib.crc32(payload) != crc:
        raise CheckpointChecksumError(f"{path}: checksum mismatch")

    (header_len,) = struct.unpack("<I", payload[:4])
    header = json.loads(payload[4 : 4 + header_len].decode("utf-8"))
    config = TrainConfig.from_dict(header["config"])
    vocab = Vocab(header["vocab"]["words"], header["vocab"]["counts"])
    phrase_vocab = None
    if header["phrase_vocab"] is not None:
        phrase_vocab = PhraseVocab(
            [(tuple(ids), label) for ids, label in header["phrase_vocab"]["keys"]],
            header["phrase_vocab"]["counts"],
        )
    offset = 4 + header_len
    by_name: dict[str, np.ndarray] = {}
    for spec_ in header["matrices"]:
        rows, dim = spec_["rows"], spec_["dim"]
        nbytes = rows * dim * 8
        mat = np.frombuffer(payload[offset : offset + nbytes], dtype="<f8")
        by_name[spec_["name"]] = mat.reshape(rows, dim).copy()
        offset += nbytes
    out_names = sorted(
        (n for n in by_name if n.startswith("output:")), key=lambda n: int(n.split(":")[1])
    )
    phrase_names = sorted(
        (n for n in by_name if n.startswith("phrase_output:")),
        key=lambda n: int(n.split(":")[1]),
    )
    params = ModelParams(
        input_words=by_name["input"],
        output_words=[by_name[n] for n in out_names],
        phrase_output_words=[by_name[n] for n in phrase_names],
        mode=config.mode,
        window=config.window,
    )
    params.validate()
    return CheckpointData(params, config, vocab, phrase_vocab, header["state"])
