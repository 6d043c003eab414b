"""Command-line interface.

Subcommands: train, export, eval-sim, eval-analogy, eval-phrase,
neighbors, inspect-manifest.  Exit codes: 0 on success, 1 on usage
errors, 2 on data errors (unreadable files, unusable output paths,
malformed inputs, out-of-vocabulary queries, a diverging training run).
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import fields
from pathlib import Path

from phrasegram.composition import CompositionConfig
from phrasegram.corpus import RepeatedKeyError, output_file
from phrasegram.evaluation import (
    WordEmbeddings,
    analogy_eval,
    load_analogy_dataset,
    load_phrase_dataset,
    load_similarity_dataset,
    nearest_neighbors,
    phrase_similarity_eval,
    word_similarity_eval,
)
from phrasegram.embeddings_io import (
    export_embeddings,
    read_embeddings,
)
from phrasegram.manifest import (
    build_manifest,
    check_corpus_path,
    file_sha256,
    read_manifest,
    write_manifest,
)
from phrasegram.model import (
    CheckpointError,
    Mode,
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
)
from phrasegram.trainer import TrainingDivergedError, check_corpus, train

__all__ = ["main"]

_MODES = [m.value for m in Mode]

_CONFIG_FIELDS = {f.name for f in fields(TrainConfig)}

# The readers' own errors (ParseError, EmbeddingsFormatError, ManifestError,
# EvaluationError) are ValueErrors.
_DATA_ERRORS = (OSError, CheckpointError, TrainingDivergedError, KeyError, ValueError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exception."""

    def error(self, message: str):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


@functools.cache  # built once per process: parsing leaves the parser unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="phrasegram", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    # Every hyperparameter flag stores into the TrainConfig field it names
    # and is absent unless given, so TrainConfig supplies the defaults.
    p = sub.add_parser(
        "train",
        help="train a model on a chunk-annotated corpus",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("corpus", help="corpus file, one sentence per line")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument(
        "--manifest", default=None, help="manifest path (default: <out>.manifest)"
    )
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--word-negatives", type=int)
    p.add_argument(
        "--phrase-negatives", type=int, help="defaults to the --word-negatives value"
    )
    p.add_argument("--min-count", type=int)
    p.add_argument("--phrase-min-count", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--mode", choices=_MODES)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--lr", dest="lr_start", type=float)
    p.add_argument("--lr-end", type=float)
    p.add_argument("--subsample", type=float)
    p.add_argument("--include-singletons", action="store_true")
    p.add_argument(
        "--plain", dest="plain_text", action="store_true", help="corpus has no chunk brackets"
    )
    p.add_argument(
        "--no-lowercase",
        dest="lowercase",
        action="store_false",
        help="keep corpus case as-is instead of lowercasing",
    )

    p = sub.add_parser("export", help="export embeddings in word2vec format")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--out", required=True, help="embeddings output path")
    p.add_argument("--format", choices=["text", "binary"], default="text")
    p.add_argument(
        "--which", choices=["input", "output", "phrase-output"], default="input"
    )
    p.add_argument("--bank", type=int, default=0)

    for name, help_text in [
        ("eval-sim", "word-similarity evaluation (Spearman rho)"),
        ("eval-analogy", "analogy evaluation (3CosAdd accuracy)"),
        ("eval-phrase", "subject-verb composition evaluation (Spearman rho)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("dataset", help="dataset file")
        _add_embeddings_source(p)
        if name == "eval-phrase":
            p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("neighbors", help="nearest neighbors of a word or [a phrase]")
    p.add_argument("query", help="word, or bracketed phrase like '[red apple]'")
    _add_embeddings_source(p)
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("inspect-manifest", help="print a run manifest")
    p.add_argument("manifest", help="manifest file")

    return parser


def _add_embeddings_source(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="checkpoint path (uses input embeddings)")
    group.add_argument("--embeddings", help="word2vec embeddings file")
    p.add_argument("--format", choices=["text", "binary"], default="text")
    p.add_argument(
        "--lowercase",
        action="store_true",
        help="fold dataset words to lowercase (implied by --model config)",
    )


def _load_embeddings(args: argparse.Namespace) -> tuple[WordEmbeddings, CompositionConfig]:
    """Embeddings from --model or --embeddings, and the composition at --alpha, else the model's."""
    if args.model is not None:
        ckpt = checkpoint_load(args.model)
        emb = WordEmbeddings(ckpt.vocab.words, ckpt.params.input_words, ckpt.config.lowercase)
        alpha = ckpt.config.alpha
    else:
        words, matrix = read_embeddings(args.embeddings, args.format)
        try:
            emb = WordEmbeddings(words, matrix, args.lowercase)
        except RepeatedKeyError as exc:  # row i of a text file is on line i + 2, after the header
            line = f":{exc.ids[1] + 2}" if args.format == "text" else ""
            raise ValueError(f"{args.embeddings}{line}: {exc}") from None
        alpha = 1.0
    given = getattr(args, "alpha", None)
    return emb, CompositionConfig(alpha=alpha if given is None else given)


def _check_distinct(*named: tuple[str, str]) -> None:
    """Reject a command whose output would replace another of its files."""
    seen: dict[Path, tuple[str, str]] = {}
    for name, path in named:
        other = seen.setdefault(Path(path).resolve(), (name, path))
        if other != (name, path):
            raise ValueError(f"{path}: {name} names the same file as {other[0]} {other[1]}")


def _cmd_train(args: argparse.Namespace) -> int:
    corpus = Path(args.corpus)
    given = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS}
    if "word_negatives" in given:
        given.setdefault("phrase_negatives", given["word_negatives"])
    config = TrainConfig(**given)
    manifest_path = args.manifest or f"{args.out}.manifest"
    _check_distinct(("corpus", args.corpus), ("--out", args.out), ("--manifest", manifest_path))
    check_corpus_path(corpus)
    # Outputs exist before any work: a bad path fails at once, a failed run publishes neither.
    with output_file(args.out, "wb") as ckpt, output_file(manifest_path) as manifest:
        check_corpus(corpus)
        digest = file_sha256(corpus)
        started = time.perf_counter()
        result = train(corpus, config)
        wallclock = time.perf_counter() - started
        for line in result.report.lines():
            print(line)
        checkpoint_save(
            ckpt, result.params, result.config, result.vocab, result.phrase_vocab, result.state_dict
        )
        write_manifest(manifest, build_manifest(result, corpus, digest, wallclock))
    print(f"checkpoint written to {args.out}")
    print(f"manifest written to {manifest_path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    _check_distinct(("--model", args.model), ("--out", args.out))
    ckpt = checkpoint_load(args.model)
    export_embeddings(
        ckpt.params, ckpt.vocab, args.out, args.format, args.which, args.bank
    )
    print(f"embeddings written to {args.out}")
    return 0


def _cmd_eval_sim(args: argparse.Namespace) -> int:
    emb, _ = _load_embeddings(args)
    rho, coverage = word_similarity_eval(emb, load_similarity_dataset(args.dataset))
    print(f"spearman={rho:.4f} coverage={coverage:.3f}")
    return 0


def _cmd_eval_analogy(args: argparse.Namespace) -> int:
    emb, _ = _load_embeddings(args)
    accuracy, sections, coverage = analogy_eval(
        emb, load_analogy_dataset(args.dataset)
    )
    for name in sorted(sections):
        print(f"section {name}: accuracy={sections[name]:.4f}")
    print(f"accuracy={accuracy:.4f} coverage={coverage:.3f}")
    return 0


def _cmd_eval_phrase(args: argparse.Namespace) -> int:
    emb, comp = _load_embeddings(args)
    rho, coverage = phrase_similarity_eval(emb, comp, load_phrase_dataset(args.dataset))
    print(f"spearman={rho:.4f} coverage={coverage:.3f}")
    return 0


def _cmd_neighbors(args: argparse.Namespace) -> int:
    if args.k < 1:  # before the embeddings load, which may read a large file
        raise ValueError("k must be positive")
    emb, comp = _load_embeddings(args)
    for word, score in nearest_neighbors(emb, args.query, args.k, comp):
        print(f"{word}\t{score:.6f}")
    return 0


def _cmd_inspect_manifest(args: argparse.Namespace) -> int:
    for key, value in sorted(read_manifest(args.manifest).items()):
        print(f"{key}={value}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "export": _cmd_export,
    "eval-sim": _cmd_eval_sim,
    "eval-analogy": _cmd_eval_analogy,
    "eval-phrase": _cmd_eval_phrase,
    "neighbors": _cmd_neighbors,
    "inspect-manifest": _cmd_inspect_manifest,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _DATA_ERRORS as exc:
        if isinstance(exc, OSError) and exc.strerror is not None:
            message = exc.strerror if exc.filename is None else f"{exc.filename}: {exc.strerror}"
        else:
            message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
