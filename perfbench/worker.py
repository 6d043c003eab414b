"""Runs one workload in a fresh process and writes what it measured.

Usage: python3 worker.py JOB.json  (written by run.py).  The job names
the generated input files and the sizes; the worker only drives
phrasegram's public functions on them and records timings plus the
outputs that run.py checks afterwards.  Every call goes through the
module attribute (`phrasegram.cli.main`, `phrasegram.model.checkpoint_load`,
...) so that the traced pass sees it.

The workload runs in rounds.  One round is a `phrasegram train` call and a
set-up, then a text export, one pass over the query list and one analogy
evaluation.  Where a round is long, another train call, set-up and export
come every `train_every` queries.  Rounds repeat until --seconds have
passed, so every timed operation is sampled many times, spread evenly over
the whole run.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import phrasegram.cli
import phrasegram.composition
import phrasegram.embeddings_io
import phrasegram.evaluation
import phrasegram.manifest
import phrasegram.model
import phrasegram.trainer
from spans import Profile, Tracer


class Ops:
    """Counts operations; a failing one is recorded, not fatal."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, label: str, fn, *args, weight: int = 1):
        """Returns (result, seconds); result is None if the call raised.

        `weight` is the number of operations the call stands for, such as
        the questions of one analogy evaluation.
        """
        self.attempted += weight
        started = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is a measured outcome
            self.failed += weight
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - started
        return result, time.perf_counter() - started


def load(path: str):
    ckpt = phrasegram.model.checkpoint_load(path)
    emb = phrasegram.evaluation.WordEmbeddings(ckpt.vocab.words, ckpt.params.input_words, ckpt.config.lowercase)
    return ckpt, emb


class Workload:
    def __init__(self, job: dict, ops: Ops):
        self.job, self.ops = job, ops
        self.work = Path(job["work"])
        self.train = job["train"]
        self.trained = self.work / "train.ckpt"
        self.model = job["serve"]["model"] or str(self.trained)
        self.queries = Path(job["serve"]["queries"]).read_text(encoding="utf-8").splitlines()
        self.sections = phrasegram.evaluation.load_analogy_dataset(job["serve"]["analogy"])
        self.questions = sum(len(v) for v in self.sections.values())

    def config(self, epochs: int):
        return phrasegram.model.TrainConfig(**{**self.train["config"], "epochs": epochs})

    def library_train(self) -> dict:
        """The library call whose report the step-count check reads."""
        config = self.config(self.train["config"]["epochs"])
        result, _ = self.ops.run("train()", phrasegram.trainer.train, self.train["corpus"], config)
        if result is None:
            return {}
        return {
            "word_steps": sum(e.word_steps for e in result.report.epochs),
            "phrase_steps": sum(e.phrase_steps for e in result.report.epochs),
            "params_sha256": phrasegram.manifest.params_sha256(result.params.matrices()),
        }

    def cli_train(self) -> dict:
        manifest = self.work / "train.manifest"
        argv = ["train", self.train["corpus"], "--out", str(self.trained), "--manifest", str(manifest),
                *self.train["cli"]]
        with contextlib.redirect_stdout(io.StringIO()):
            code, seconds = self.ops.run("phrasegram train", phrasegram.cli.main, argv)
        call = {"seconds": seconds, "exit": code, "checkpoint": str(self.trained)}
        if code != 0:
            if code is not None:  # a non-zero exit; Ops.run counted an exception itself
                self.ops.failed += 1
            return call
        items = dict(line.split("=", 1) for line in manifest.read_text().splitlines())
        epoch = self.train["config"]["epochs"] - 1
        call.update(
            params_sha256=items["params.sha256"],
            e_w=float(items[f"report.{epoch}.e_w"]),
            e_p=float(items[f"report.{epoch}.e_p"]),
            vocab_words=int(items["vocab.words"]),
            phrases=int(items["vocab.phrases"]),
            checkpoint_bytes=self.trained.stat().st_size,
        )
        return call

    def set_up(self) -> float:
        """Loading the served model where there is one, else ingest with epochs=0."""
        if self.job["serve"]["model"]:
            return self.ops.run("set-up", load, self.model)[1]
        return self.ops.run("set-up", phrasegram.trainer.train, self.train["corpus"], self.config(0))[1]

    def train_and_set_up(self, samples: dict) -> None:
        samples["train"].append(self.cli_train())
        samples["setup"].append(self.set_up())

    def serve(self, samples: dict, queries: list[str], every: int = 0) -> None:
        """Load the served model, export it and answer the queries, then evaluate analogies.

        With `every`, the queries run in blocks of that many, and each block
        after the first starts with another train call and set-up; every
        block starts with a text export.
        """
        ops = self.ops
        loaded, _ = ops.run("load", load, self.model)
        if loaded is None:
            return
        ckpt, emb = loaded
        comp = phrasegram.composition.CompositionConfig(alpha=ckpt.config.alpha)
        text = self.work / "export.txt"
        every = every or len(queries)
        for start in range(0, len(queries), every):
            if start:
                self.train_and_set_up(samples)
            _, dt = ops.run("export text", phrasegram.embeddings_io.export_embeddings,
                            ckpt.params, ckpt.vocab, text, "text")
            samples["export"].append(dt)
            for q in queries[start : start + every]:
                result, dt = ops.run(f"neighbors {q}", phrasegram.embeddings_io.nearest_neighbors, emb, q, 10, comp)
                samples["queries"].setdefault(q, []).append(dt)
                if result is not None:
                    samples["answers"].setdefault(q, [[w, s] for w, s in result])
        result, dt = ops.run("analogy", phrasegram.evaluation.analogy_eval, emb, self.sections, weight=self.questions)
        if result is not None:
            samples["analogy"].append(dt)
            samples["accuracy"] = [result[0], result[1]]
        samples["export_bytes"] = text.stat().st_size if text.exists() else 0
        samples["param_bytes"] = sum(m.nbytes for _, m in ckpt.params.matrices())

    def export_binary(self, samples: dict) -> None:
        """Write a binary export of the served model; record both exports for the read-back check."""
        loaded, _ = self.ops.run("load", load, self.model)
        if loaded is not None:
            binary = self.work / "export.bin"
            self.ops.run("export binary", phrasegram.embeddings_io.export_embeddings,
                         loaded[0].params, loaded[0].vocab, binary, "binary")
            samples["text"], samples["binary"] = str(self.work / "export.txt"), str(binary)


def new_samples() -> dict:
    return {"train": [], "setup": [], "queries": {}, "answers": {}, "analogy": [], "export": []}


def measure(w: Workload) -> dict:
    out = {"library": w.library_train()}
    samples = new_samples()
    started, rounds = time.perf_counter(), 0
    while rounds < w.job["min_rounds"] or time.perf_counter() - started < w.job["seconds"]:
        w.train_and_set_up(samples)
        w.serve(samples, w.queries, w.job["train_every"])
        rounds += 1
    w.export_binary(samples)
    out.update(samples=samples, model=w.model, rounds=rounds,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def traced(w: Workload) -> dict:
    """One untraced and one traced round of the same operations, without set-up."""
    out = {"library": w.library_train(), "model": w.model}
    queries = w.queries[: w.job["serve"]["traced_queries"]]
    walls = []
    for tag in ("plain", "traced"):
        samples = new_samples()
        t_train, t_serve = Tracer(), Tracer()
        started = time.perf_counter()
        with t_train.patch() if tag == "traced" else contextlib.nullcontext():
            call = w.cli_train()
        with t_serve.patch() if tag == "traced" else contextlib.nullcontext():
            w.serve(samples, queries)
            w.export_binary(samples)
            for fmt in ("text", "binary"):
                if fmt in samples:
                    w.ops.run(f"read {fmt}", phrasegram.embeddings_io.read_embeddings, samples[fmt], fmt)
        walls.append(time.perf_counter() - started)
    samples["train"] = [call]
    out["samples"] = samples
    out["layers"], out["accounted"] = layers(t_train, t_serve, call, samples, walls)
    spans = Path(w.job["spans"])
    t_train.save(spans.with_name(spans.name + "-train.npz"))
    t_serve.save(spans.with_name(spans.name + "-serve.npz"))
    return out


def layers(t_train: Tracer, t_serve: Tracer, call: dict, samples: dict, walls: list[float]):
    """Per-layer metrics, and the share of train() wall time its spans' self times cover."""
    tr = Profile(t_train, root="trainer.train")
    cli = Profile(t_train)
    sv = Profile(t_serve)
    queries = Profile(t_serve, root="embeddings_io.neighbors")
    word_steps = tr.count("trainer.word_step")
    accounted = sum(tr.self_s.values()) / tr.root_s if tr.root_s else 0.0
    return {
        "trainer.train_s": tr.root_s,
        "corpus.parse_s": tr.seconds("corpus.parse"),
        # Full reads of the corpus: one per parse stream plus the CLI's hash.
        "corpus.parse_passes": t_train.full_reads + cli.count("manifest.file_sha256"),
        "corpus.build_vocab_s": tr.seconds("corpus.build_vocab"),
        "corpus.build_phrase_vocab_s": tr.seconds("corpus.build_phrase_vocab"),
        "corpus.vocab_words": call.get("vocab_words", 0),
        "corpus.phrases": call.get("phrases", 0),
        "trainer.map_sentence_s": tr.seconds("trainer.map_sentence"),
        "trainer.word_step_calls": word_steps,
        "trainer.word_step_us": tr.mean_us("trainer.word_step"),
        "trainer.word_step_share": tr.share("trainer.word_step"),
        "trainer.word_step_dup_share": t_train.word_step_dups / word_steps if word_steps else 0.0,
        "trainer.phrase_step_calls": tr.count("trainer.phrase_step"),
        "trainer.phrase_step_us": tr.mean_us("trainer.phrase_step"),
        "trainer.phrase_step_self_share": tr.share("trainer.phrase_step"),
        "trainer.loop_share": tr.share("trainer.train"),
        "trainer.phrase_loss": 0.0 - call.get("e_p", 0.0),
        "sampling.sample_calls": tr.count("sampling.sample"),
        "sampling.sample_us": tr.mean_us("sampling.sample"),
        "sampling.sample_share": tr.share("sampling.sample"),
        "sampling.build_s": tr.seconds("sampling.build"),
        "composition.compose_rows_calls": tr.count("composition.compose_rows"),
        "composition.compose_rows_us": tr.mean_us("composition.compose_rows"),
        "composition.jacobian_calls": tr.count("composition.jacobian"),
        "composition.share": tr.share("composition.compose_rows", "composition.jacobian"),
        "model.init_params_s": tr.seconds("model.init_params"),
        "model.checkpoint_save_s": cli.seconds("model.checkpoint_save"),
        "model.checkpoint_bytes": call.get("checkpoint_bytes", 0),
        "model.checkpoint_load_s": sv.seconds("model.checkpoint_load") / max(1, sv.count("model.checkpoint_load")),
        "model.param_bytes": samples.get("param_bytes", 0),
        "manifest.file_sha256_s": cli.seconds("manifest.file_sha256"),
        "manifest.params_sha256_s": cli.seconds("manifest.params_sha256"),
        "manifest.write_s": cli.seconds("manifest.write"),
        "cli.self_s": cli.seconds("cli.main"),
        "evaluation.unit_matrix_calls": sv.count("evaluation.unit_matrix"),
        "evaluation.unit_matrix_us": sv.mean_us("evaluation.unit_matrix"),
        "evaluation.unit_matrix_query_share": queries.share("evaluation.unit_matrix"),
        "evaluation.analogy_eval_s": sv.seconds("evaluation.analogy_eval"),
        "embeddings_io.neighbors_calls": sv.count("embeddings_io.neighbors"),
        "embeddings_io.neighbors_us": sv.mean_us("embeddings_io.neighbors"),
        "embeddings_io.export_text_s": sv.seconds("embeddings_io.export_text"),
        "embeddings_io.export_bytes": samples.get("export_bytes", 0),
        "embeddings_io.read_text_s": sv.seconds("embeddings_io.read_text"),
        "embeddings_io.export_binary_s": sv.seconds("embeddings_io.export_binary"),
        "embeddings_io.read_binary_s": sv.seconds("embeddings_io.read_binary"),
        "trace.overhead_share": walls[1] / walls[0] - 1.0,
    }, accounted


def main(argv: list[str]) -> int:
    job = json.loads(Path(argv[1]).read_text())
    ops = Ops()
    w = Workload(job, ops)
    out = traced(w) if job["trace"] else measure(w)
    out.update(attempted=ops.attempted, failed=ops.failed, errors=ops.errors[:20])
    Path(job["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
