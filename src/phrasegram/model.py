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
import math
import numbers
import os
import stat
import struct
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

from phrasegram.composition import check_alpha
from phrasegram.corpus import PhraseVocab, Vocab, output_file

__all__ = [
    "Mode",
    "TrainConfig",
    "ModelParams",
    "init_params",
    "bank_count",
    "bank_for_offset",
    "checkpoint_save",
    "checkpoint_load",
    "CheckpointData",
    "TrainingState",
    "CheckpointError",
    "CheckpointFormatError",
    "CheckpointVersionError",
    "CheckpointTruncatedError",
    "CheckpointChecksumError",
]

_MAGIC = b"PGCKPT01"
_FORMAT_VERSION = 1
_PIPE_BLOCK = 1 << 20  # bytes per read of a checkpoint piped in


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
        try:
            self.mode = Mode(self.mode)
        except ValueError:
            names = ", ".join(m.value for m in Mode)
            raise ValueError(f"mode must be one of {names}, got {self.mode!r}") from None
        self._check_types()
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
        check_alpha(self.alpha)
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr_start <= 0:
            raise ValueError("lr_start must be > 0")
        if self.min_count < 1 or self.phrase_min_count < 1:
            raise ValueError("min counts must be >= 1")
        if self.lr_end is not None and self.lr_end < 0:
            raise ValueError("lr_end must be >= 0")
        if self.subsample < 0:
            raise ValueError("subsample must be >= 0")
        if self.noise_exponent <= 0:
            raise ValueError("noise_exponent must be > 0")

    def _check_types(self) -> None:
        """Reject a field of the wrong type, naming it; numbers become int or float.

        A checkpoint header or a caller can hand any JSON value to any
        field, and the range checks cannot order a string against a number.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                    raise ValueError(f"{f.name} must be an integer, got {value!r}")
                setattr(self, f.name, int(value))
            elif f.type == "bool":
                if not isinstance(value, bool):
                    raise ValueError(f"{f.name} must be true or false, got {value!r}")
            elif f.type == "float" or (f.type == "float | None" and value is not None):
                if (
                    not isinstance(value, numbers.Real)
                    or isinstance(value, bool)
                    or not math.isfinite(value)
                ):
                    raise ValueError(f"{f.name} must be a finite number, got {value!r}")
                setattr(self, f.name, float(value))

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

    @property
    def vocab_size(self) -> int:
        return self.input_words.shape[0]

    @property
    def dim(self) -> int:
        return self.input_words.shape[1]

    def validate(self, config: TrainConfig) -> None:
        """Check width, bank counts and shapes against config; raises ValueError."""
        w, d = self.input_words.shape
        if d != config.dim:
            raise ValueError(f"config.dim is {config.dim}, the matrices have {d} columns")
        mode = config.mode
        n_banks = bank_count(config.window, mode.positional)
        if len(self.output_words) != n_banks:
            raise ValueError(
                f"mode {mode.value} with window {config.window} needs "
                f"{n_banks} output matrices, got {len(self.output_words)}"
            )
        expected_phrase = n_banks if mode.compositional else 0
        if len(self.phrase_output_words) != expected_phrase:
            raise ValueError(
                f"mode {mode.value} needs {expected_phrase} phrase output "
                f"matrices, got {len(self.phrase_output_words)}"
            )
        for m in self.output_words + self.phrase_output_words:
            if m.shape != (w, d):
                raise ValueError(f"matrix shape {m.shape} != {(w, d)}")
        for m in self.phrase_output_words:
            for o in self.output_words:
                if m is o:
                    raise ValueError("phrase output must be distinct storage")

    def first_non_finite(self) -> tuple[str, int] | None:
        """(matrix name, row) of the first row holding a NaN or infinity, if any.

        Matrices are searched in `matrices()` order.
        """
        for name, m in self.matrices():
            rows = np.flatnonzero(~np.isfinite(m).all(axis=1))
            if len(rows):
                return name, int(rows[0])
        return None

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
        )


def bank_count(window: int, positional: bool) -> int:
    """Number of output banks: one per offset in a positional model, else one."""
    return 2 * window if positional else 1


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

    Input embeddings are uniform in (-0.5/dim, +0.5/dim), drawn from rng.
    The word-level output matrices start at zero, as in word2vec.  The
    phrase output matrices start at zero when alpha = 1.  When alpha > 1
    each is drawn from rng after the input matrix, in bank order, from the
    input's distribution: the power map's Jacobian is 0 at 0 for alpha > 1,
    so from an all-zero bank no phrase gradient ever reaches the bank or
    the input rows, and the phrase pass would learn nothing.  At alpha = 1
    the Jacobian is 1 everywhere and zero is not a fixed point.
    """
    if vocab_size < 1:
        raise ValueError("vocab_size must be >= 1")
    d = config.dim

    def uniform() -> np.ndarray:
        return (rng.random((vocab_size, d)) - 0.5) / d

    inp = uniform()
    n_banks = bank_count(config.window, config.mode.positional)
    out = [np.zeros((vocab_size, d)) for _ in range(n_banks)]
    phrase_out = []
    if config.mode.compositional:
        phrase_out = [uniform() if config.alpha > 1 else np.zeros_like(inp) for _ in range(n_banks)]
    params = ModelParams(inp, out, phrase_out)
    params.validate(config)
    return params


def _restore_rng(state: object, name: str) -> np.random.Generator:
    """A PCG64 generator at `state`, which must restore to itself exactly."""
    bg = np.random.PCG64()
    try:
        bg.state = state
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} is not a PCG64 state: {exc}") from None
    if bg.state != state:  # a value the setter coerced, or a key it ignored
        raise ValueError(f"{name} is not a PCG64 state: it restores as {bg.state}")
    return np.random.Generator(bg)


@dataclass
class TrainingState:
    """Optimizer bookkeeping: RNG streams and progress (train() derives lr from it)."""

    word_rng: np.random.Generator
    phrase_rng: np.random.Generator
    tokens_processed: int = 0
    epoch: int = 0

    def to_dict(self) -> dict:
        # `workers` stays a one-entry list: the v1 checkpoint layout.
        return {
            "epoch": self.epoch,
            "tokens_processed": self.tokens_processed,
            "workers": [
                {
                    "word_rng": self.word_rng.bit_generator.state,
                    "phrase_rng": self.phrase_rng.bit_generator.state,
                }
            ],
        }

    @classmethod
    def from_dict(cls, state: dict, epochs: int, total_tokens: int) -> "TrainingState":
        """The state `to_dict` wrote in a run of `epochs` epochs of `total_tokens` tokens.

        Raises ValueError naming the field that breaks a rule: the keys are
        exactly epoch, tokens_processed and workers; 0 <= epoch <= epochs;
        tokens_processed is epoch * total_tokens, as train() counts them;
        workers is one entry of two PCG64 states, word_rng and phrase_rng.
        """
        if not isinstance(state, dict) or set(state) != {"epoch", "tokens_processed", "workers"}:
            raise ValueError("state is not an object of epoch, tokens_processed and workers")
        epoch, tokens, workers = state["epoch"], state["tokens_processed"], state["workers"]
        # type(), not isinstance(): JSON true and false must not pass as integers.
        if type(epoch) is not int or not 0 <= epoch <= epochs:
            raise ValueError(f"state.epoch {epoch!r} is not an integer in [0, {epochs}]")
        if type(tokens) is not int or tokens != epoch * total_tokens:
            raise ValueError(
                f"state.tokens_processed {tokens!r} is not "
                f"epoch * total tokens = {epoch * total_tokens}"
            )
        if not isinstance(workers, list):
            raise ValueError(f"state.workers is {type(workers).__name__}, not a list")
        if len(workers) != 1:
            raise ValueError(
                f"checkpoint state holds {len(workers)} workers entries; "
                "only single-state (workers=1) checkpoints can be resumed"
            )
        rngs = workers[0]
        if not isinstance(rngs, dict) or set(rngs) != {"word_rng", "phrase_rng"}:
            raise ValueError("state.workers[0] is not an object of word_rng and phrase_rng")
        return cls(
            word_rng=_restore_rng(rngs["word_rng"], "state.workers[0].word_rng"),
            phrase_rng=_restore_rng(rngs["phrase_rng"], "state.workers[0].phrase_rng"),
            tokens_processed=tokens,
            epoch=epoch,
        )


class CheckpointError(Exception):
    """Base class for checkpoint read failures."""


class CheckpointFormatError(CheckpointError):
    """File does not carry the checkpoint magic, or its payload is malformed."""


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
    path: str | Path | BinaryIO,
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
    The CRC is taken in the kernel, a piece at a time.
    """
    from phrasegram import kernel  # not at the top: kernel imports this module

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
    # The payload in pieces, each matrix written from its own buffer.
    pieces = [struct.pack("<I", len(header_bytes)), header_bytes]
    pieces += [np.ascontiguousarray(m, dtype="<f8") for _, m in params.matrices()]
    crc = length = 0
    for piece in pieces:
        crc = kernel.crc32(piece, crc)
        length += memoryview(piece).nbytes
    with output_file(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _FORMAT_VERSION))
        fh.write(struct.pack("<I", crc))
        fh.write(struct.pack("<Q", length))
        for piece in pieces:
            fh.write(piece)


def checkpoint_load(path: str | Path) -> CheckpointData:
    """Read a checkpoint written by checkpoint_save.

    The payload is read into one numpy allocation (see `_read_payload_bytes`),
    its CRC-32 taken in the kernel, and every matrix returned is a view of
    that allocation: writable, aligned, C-contiguous float64, no two
    overlapping, so a resumed model trains in place without a copy.

    Raises CheckpointFormatError, CheckpointVersionError,
    CheckpointTruncatedError or CheckpointChecksumError, each starting
    with the path: CheckpointFormatError also for a payload whose header
    or matrix manifest is malformed (bad UTF-8 or JSON, a missing key, a
    value of the wrong type, a matrix name out of order, matrix bytes that
    do not fill the payload exactly).  Raises ValueError, starting with
    the path and naming the field, when the config or the vocabularies
    break their rules or do not fit the matrices, or when the resume state
    breaks a rule of `TrainingState.from_dict`.  Raises
    `kernel.KernelBuildError` when the kernel cannot be built.  Never
    returns a partially read model.
    """
    from phrasegram import kernel  # not at the top: kernel imports this module

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
        payload = _read_payload_bytes(fh, length)
    if len(payload) < length:
        raise CheckpointTruncatedError(
            f"{path}: payload is {len(payload)} bytes, expected {length}"
        )
    if kernel.crc32(payload) != crc:
        raise CheckpointChecksumError(f"{path}: checksum mismatch")

    header, params = _read_payload(payload, path)
    try:
        config = TrainConfig.from_dict(header["config"])
        params.validate(config)
        vocab, phrase_vocab = _load_vocabularies(header, params.vocab_size)
        if header["state"] is not None:
            TrainingState.from_dict(header["state"], config.epochs, vocab.total_tokens)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return CheckpointData(params, config, vocab, phrase_vocab, header["state"])


_HEADER_TYPES = {
    "config": dict,
    "vocab": dict,
    "phrase_vocab": (dict, type(None)),
    "state": (dict, type(None)),
    "matrices": list,
}


def _read_payload_bytes(fh: BinaryIO, length: int) -> np.ndarray:
    """Up to `length` bytes of `fh`, as uint8 in one numpy allocation, placed
    so that the matrices after the payload's header start 8-byte aligned.

    The first 4 bytes, the header's length, are read first to place the
    rest.  A regular file's size caps the allocation, and the rest is read
    into it with readinto.  A pipe's size is not known, so it is read in
    blocks, holding only the bytes that have arrived, which are then copied
    into the allocation once.
    """
    lead = fh.read(min(length, 4))
    pad = -(4 + struct.unpack("<I", lead)[0]) % 8 if len(lead) == 4 else 0
    st = os.fstat(fh.fileno())
    parts = [lead]
    if stat.S_ISREG(st.st_mode):
        size = len(lead) + min(length - len(lead), max(st.st_size - fh.tell(), 0))
    else:
        left = length - len(lead)
        while left and (part := fh.read(min(left, _PIPE_BLOCK))):
            parts.append(part)
            left -= len(part)
        size = length - left
    # float64 elements, so that the allocation itself is 8-byte aligned.
    buf = np.empty((pad + size + 7) // 8).view(np.uint8)[pad : pad + size]
    got = 0
    for part in parts:
        buf[got : got + len(part)] = np.frombuffer(part, dtype=np.uint8)
        got += len(part)
    # The rest of a regular file, straight into the allocation.
    while got < size and (n := fh.readinto(buf[got:])):
        got += n
    return buf[:got]


def _all_of(values: Iterable[object], kind: type) -> bool:
    # type(), not isinstance(): JSON true and false must not pass as integers.
    return set(map(type, values)) <= {kind}


def _list_of(value: object, kind: type) -> bool:
    return isinstance(value, list) and _all_of(value, kind)


def _read_payload(payload: np.ndarray, path: Path) -> tuple[dict, ModelParams]:
    """The payload's JSON header and the matrices it describes.

    Checks the structure only: keys, types, matrix names and sizes.  What
    the values mean is checked by the caller.
    """

    def require(ok: bool, what: str) -> None:
        if not ok:
            raise CheckpointFormatError(f"{path}: {what}")

    require(len(payload) >= 4, "payload holds no header length")
    (header_len,) = struct.unpack("<I", payload[:4])
    require(4 + header_len <= len(payload), f"header of {header_len} bytes runs past the payload")
    try:
        header = json.loads(payload[4 : 4 + header_len].tobytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError, JSONDecodeError
        raise CheckpointFormatError(f"{path}: header is not UTF-8 JSON: {exc}") from None
    require(isinstance(header, dict), "header is not a JSON object")
    for key, kinds in _HEADER_TYPES.items():
        require(key in header, f"header has no {key!r}")
        require(isinstance(header[key], kinds), f"header {key!r} is {type(header[key]).__name__}")
    vocab, phrases = header["vocab"], header["phrase_vocab"]
    require(_list_of(vocab.get("words"), str), "vocab.words is not a list of strings")
    require(_list_of(vocab.get("counts"), int), "vocab.counts is not a list of integers")
    if phrases is not None:
        keys = phrases.get("keys")
        require(
            _list_of(keys, list)
            and set(map(len, keys)) <= {2}
            and _all_of(map(itemgetter(0), keys), list)
            and _all_of(map(itemgetter(1), keys), str),
            "phrase_vocab.keys is not a list of [[word ids], label] pairs",
        )
        require(_list_of(phrases.get("counts"), int), "phrase_vocab.counts is not a list of integers")

    names, matrices = [], []
    offset = 4 + header_len
    for spec in header["matrices"]:
        require(
            isinstance(spec, dict)
            and type(spec.get("name")) is str
            and all(type(spec.get(k)) is int and spec[k] >= 0 for k in ("rows", "dim")),
            f"matrices entry {spec!r} is not a name with non-negative integer rows and dim",
        )
        name, rows, dim = spec["name"], spec["rows"], spec["dim"]
        require(offset + 8 * rows * dim <= len(payload), f"matrix {name} runs past the payload")
        # A view of the payload, aligned, writable and C-contiguous, as training
        # a resumed model needs; copied only on a big-endian host.
        mat = payload[offset : offset + 8 * rows * dim].view("<f8").reshape(rows, dim)
        names.append(name)
        matrices.append(mat.astype(np.float64, copy=False))
        offset += 8 * rows * dim
    require(offset == len(payload), f"{len(payload) - offset} payload bytes follow the matrices")
    n_out = sum(name.startswith("output:") for name in names)
    expected = (
        ["input"]
        + [f"output:{i}" for i in range(n_out)]
        + [f"phrase_output:{i}" for i in range(len(names) - 1 - n_out)]
    )
    require(names == expected, f"matrix names {names} are not input, output:0.., phrase_output:0..")
    return header, ModelParams(matrices[0], matrices[1 : 1 + n_out], matrices[1 + n_out :])


def _load_vocabularies(header: dict, rows: int) -> tuple[Vocab, PhraseVocab | None]:
    """The header's vocabularies, checked against the matrices' row count."""
    words, counts = header["vocab"]["words"], header["vocab"]["counts"]
    if len(words) != rows:
        raise ValueError(f"vocab.words has {len(words)} entries, the matrices have {rows} rows")
    if len(counts) != rows:
        raise ValueError(f"vocab.counts has {len(counts)} entries, vocab.words has {rows}")
    vocab = Vocab(words, counts)
    if header["phrase_vocab"] is None:
        return vocab, None
    keys = header["phrase_vocab"]["keys"]
    for ids, _ in keys:
        for i in ids:
            if type(i) is not int or not 0 <= i < rows:
                raise ValueError(
                    f"phrase_vocab.keys component {i!r} is not a word id in [0, {rows})"
                )
    return vocab, PhraseVocab(keys, header["phrase_vocab"]["counts"])
