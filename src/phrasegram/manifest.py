"""Run manifests: flat key=value records of a training run.

A manifest captures everything needed to audit a run: configuration,
corpus path and content hash, vocabulary sizes, a hash of the final
parameters, per-epoch objective values and step counts, and timing.
Timing keys vary between otherwise identical runs, so determinism
comparisons go through comparable_items() which drops them.
"""

from __future__ import annotations

import hashlib
from contextlib import closing
from pathlib import Path
from typing import Mapping, TextIO

import numpy as np

from phrasegram.corpus import numbered_lines, output_file
from phrasegram.trainer import TrainResult

__all__ = [
    "ManifestError",
    "TIMING_KEYS",
    "params_sha256",
    "file_sha256",
    "build_manifest",
    "check_corpus_path",
    "write_manifest",
    "read_manifest",
    "comparable_items",
]

# keys that legitimately differ between identical reruns
TIMING_KEYS = ("wallclock.seconds",)
_TIMING_PREFIXES = ("report.",)
_TIMING_SUFFIXES = (".tokens_per_s",)


class ManifestError(ValueError):
    """Manifest file is malformed."""


def file_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def params_sha256(matrices) -> str:
    """Hash of all parameter matrices' raw bytes, order-sensitive."""
    digest = hashlib.sha256()
    for name, matrix in matrices:
        digest.update(name.encode("utf-8"))
        digest.update(str(matrix.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(matrix, "<f8"))  # no copy of a C-ordered <f8 matrix
    return digest.hexdigest()


def build_manifest(
    result: TrainResult,
    corpus_path: str | Path,
    corpus_sha256: str,
    wallclock_seconds: float,
) -> dict[str, str]:
    items: dict[str, str] = {}
    for key, value in sorted(result.config.to_dict().items()):
        items[f"config.{key}"] = str(value)
    items["corpus.path"] = str(corpus_path)
    items["corpus.sha256"] = corpus_sha256
    items["vocab.words"] = str(len(result.vocab))
    items["vocab.phrases"] = str(
        len(result.phrase_vocab) if result.phrase_vocab is not None else 0
    )
    items["params.sha256"] = params_sha256(result.params.matrices())
    for i, stats in enumerate(result.report.epochs):
        items[f"report.{i}.e_w"] = repr(stats.mean_ew)
        items[f"report.{i}.e_p"] = repr(stats.mean_ep)
        items[f"report.{i}.word_steps"] = str(stats.word_steps)
        items[f"report.{i}.phrase_steps"] = str(stats.phrase_steps)
        items[f"report.{i}.tokens_per_s"] = "%.1f" % stats.tokens_per_s
    items["wallclock.seconds"] = "%.3f" % wallclock_seconds
    return items


def _check_item(key: str, value: str) -> None:
    # Read back by numbered_lines, which ends a line at \n and drops a \r before it.
    text = key + value
    if not key or "=" in key or "\n" in text or "\r" in text:
        raise ValueError(f"key/value not representable: {key!r}")


def check_corpus_path(path: str | Path) -> None:
    """Reject, naming it, a corpus path that build_manifest could not record.

    Run before training, so that such a run fails before its first epoch.
    """
    try:
        _check_item("corpus.path", str(path))
    except ValueError as exc:
        raise ValueError(f"{str(path)!r}: {exc}") from None


def write_manifest(path: str | Path | TextIO, items: Mapping[str, str]) -> None:
    """Write ``key=value`` lines, sorted by key, through output_file."""
    for key, value in items.items():
        _check_item(key, str(value))
    body = "".join(f"{k}={v}\n" for k, v in sorted(items.items()))
    with output_file(path) as fh:
        fh.write(body)


def read_manifest(path: str | Path) -> dict[str, str]:
    items: dict[str, str] = {}
    with closing(numbered_lines(path)) as lines:
        for where, line in lines:
            if not line:
                continue
            if "=" not in line:
                raise ManifestError(f"{where}: expected key=value")
            key, _, value = line.partition("=")
            if not key:
                raise ManifestError(f"{where}: empty key")
            if key in items:
                raise ManifestError(f"{where}: duplicate key {key!r}")
            items[key] = value
    return items


def _is_timing_key(key: str) -> bool:
    if key in TIMING_KEYS:
        return True
    return any(key.startswith(p) for p in _TIMING_PREFIXES) and any(
        key.endswith(s) for s in _TIMING_SUFFIXES
    )


def comparable_items(items: Mapping[str, str]) -> dict[str, str]:
    """Manifest restricted to keys expected to be identical across reruns."""
    return {k: v for k, v in items.items() if not _is_timing_key(k)}
