"""Span tracing from outside phrasegram.

`Tracer.patch()` replaces public functions at the module attributes their
callers look up (for example `phrasegram.trainer.word_step`, which
`train_sentence` resolves through the trainer module's globals) with
wrappers that record a span per call: name, parent, start, end.  Spans
stay in memory until `save()`.  A span's self time is its duration minus
the durations of its direct children; because calls nest, the self times
of a span and all its descendants add up to its duration.

Nothing under src/ is changed.  A target that a later version of the
package no longer has is skipped, and its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute or Class.method, span name, kind)
TARGETS = [
    ("phrasegram.cli", "main", "cli.main", "call"),
    ("phrasegram.cli", "train", "trainer.train", "call"),
    ("phrasegram.cli", "file_sha256", "manifest.file_sha256", "call"),
    ("phrasegram.cli", "checkpoint_save", "model.checkpoint_save", "call"),
    ("phrasegram.cli", "build_manifest", "manifest.build", "call"),
    ("phrasegram.cli", "write_manifest", "manifest.write", "call"),
    ("phrasegram.manifest", "params_sha256", "manifest.params_sha256", "call"),
    ("phrasegram.trainer", "iter_corpus", "corpus.parse", "generator"),
    ("phrasegram.trainer", "build_vocab", "corpus.build_vocab", "call"),
    ("phrasegram.trainer", "build_phrase_vocab", "corpus.build_phrase_vocab", "call"),
    ("phrasegram.trainer", "map_sentence", "trainer.map_sentence", "call"),
    ("phrasegram.trainer", "init_params", "model.init_params", "call"),
    ("phrasegram.trainer", "build_noise_distribution", "sampling.build", "call"),
    ("phrasegram.trainer", "word_step", "trainer.word_step", "word_step"),
    ("phrasegram.trainer", "phrase_step", "trainer.phrase_step", "call"),
    ("phrasegram.trainer", "compose_rows", "composition.compose_rows", "call"),
    ("phrasegram.trainer", "sigma_jacobian_diag", "composition.jacobian", "call"),
    ("phrasegram.sampling", "NoiseDistribution.sample", "sampling.sample", "call"),
    ("phrasegram.model", "checkpoint_load", "model.checkpoint_load", "call"),
    ("phrasegram.evaluation", "WordEmbeddings.unit_matrix", "evaluation.unit_matrix", "call"),
    ("phrasegram.evaluation", "analogy_eval", "evaluation.analogy_eval", "call"),
    ("phrasegram.embeddings_io", "nearest_neighbors", "embeddings_io.neighbors", "call"),
    ("phrasegram.embeddings_io", "write_embeddings_text", "embeddings_io.export_text", "call"),
    ("phrasegram.embeddings_io", "write_embeddings_binary", "embeddings_io.export_binary", "call"),
    ("phrasegram.embeddings_io", "read_embeddings_text", "embeddings_io.read_text", "call"),
    ("phrasegram.embeddings_io", "read_embeddings_binary", "embeddings_io.read_binary", "call"),
]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.word_step_dups = 0
        self.full_reads = 0

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = perf_counter()
        self.stack.pop()

    def _call(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return wrapper

    def _word_step(self, name: str, fn):
        # Counted outside the span: the ids of one step repeat, which sends
        # word_step down its np.add.at path.
        traced = self._call(name, fn)

        @functools.wraps(fn)
        def wrapper(params, center, context, negatives, *args, **kwargs):
            ids = [int(context), *(int(n) for n in negatives)]
            self.word_step_dups += len(set(ids)) < len(ids)
            return traced(params, center, context, negatives, *args, **kwargs)

        return wrapper

    def _generator(self, name: str, fn):
        # One span per item, so parsing is charged to whichever caller is
        # consuming the stream at the time.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    self.full_reads += 1
                    return
                finally:
                    self.close(sid)
                yield item

        return wrapper

    @contextmanager
    def patch(self):
        kinds = {"call": self._call, "word_step": self._word_step, "generator": self._generator}
        undo = []
        try:
            for module, attr, name, kind in TARGETS:
                owner = importlib.import_module(module)
                *cls, attr = attr.split(".")
                if cls:
                    owner = getattr(owner, cls[0], None)
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                setattr(owner, attr, kinds[kind](name, original))
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def arrays(self):
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        self_time = dur.copy()
        has = parents >= 0
        np.subtract.at(self_time, parents[has], dur[has])
        return np.asarray(self.names, dtype=object), parents, dur, self_time

    def save(self, path: Path) -> None:
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.asarray(names),
            name=np.asarray([index[n] for n in self.names], dtype=np.int32),
            parent=np.asarray(self.parents, dtype=np.int64),
            start=np.asarray(self.starts),
            end=np.asarray(self.ends),
        )


class Profile:
    """Per-name call counts and self times of one tracer's spans.

    With `root`, only the spans named `root` and their descendants count,
    and shares are taken of the roots' summed duration.
    """

    def __init__(self, tracer: Tracer, root: str | None = None):
        names, parents, dur, self_time = tracer.arrays()
        if root is None:
            keep = np.ones(len(names), dtype=bool)
            self.root_s = float(dur[parents < 0].sum())
        else:
            keep = np.zeros(len(names), dtype=bool)
            starts = np.asarray(tracer.starts)
            roots = np.flatnonzero(names == root)
            for r in roots:
                # Descendants were opened after the root and before it closed.
                keep[r:] |= starts[r:] <= tracer.ends[r]
            self.root_s = float(dur[roots].sum())
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        for n in set(names[keep]):
            m = keep & (names == n)
            self.calls[n] = int(m.sum())
            self.self_s[n] = float(self_time[m].sum())

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)

    def seconds(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def mean_us(self, name: str) -> float:
        return 1e6 * self.seconds(name) / self.count(name) if self.count(name) else 0.0

    def share(self, *names: str) -> float:
        return sum(self.seconds(n) for n in names) / self.root_s if self.root_s else 0.0
