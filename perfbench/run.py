"""phrasegram benchmark: one seeded workload per run, checked and timed.

    python3 perfbench/run.py --workload words-zipf --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload trains with `phrasegram train` (in-process `cli.main`) and
then serves the resulting or a generated checkpoint: nearest-neighbor
queries, an analogy evaluation and a text export.  Inputs are generated
from --seed; the workload then runs in a fresh process (worker.py) with
BLAS pinned to one thread, and this process checks its outputs against
references computed here.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
end_to_end metrics of BENCHMARK.json, --trace 1 the per_layer ones from a
traced pass.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0

TRAIN = {"dim": 100, "window": 5, "word_negatives": 5, "phrase_negatives": 5,
         "min_count": 1, "phrase_min_count": 2, "subsample": 0.0, "epochs": 1}
FLAGS = {"dim": "--dim", "window": "--window", "word_negatives": "--word-negatives",
         "phrase_negatives": "--phrase-negatives", "mode": "--mode", "min_count": "--min-count",
         "phrase_min_count": "--phrase-min-count", "subsample": "--subsample",
         "epochs": "--epochs", "seed": "--seed"}

# Sizes are (full, smoke).  Each round trains, sets up and serves once, with
# another train call, set-up and export every `train_every` queries (see
# worker.py); rounds repeat until --seconds have passed, at least MIN_ROUNDS.
# Every timed operation is kept short (see README.md).
WORKLOADS = {
    "words-zipf": {
        "corpus": ("zipf", {"tokens": (600, 400), "inventory": 1_000_000, "exponent": 0.9}),
        "mode": "baseline", "served_words": None, "analogy": (100, 8), "train_every": 0,
    },
    "phrases-dense": {
        "corpus": ("chunks", {"tokens": (240, 150), "words": (40, 20), "phrases": (30, 20),
                              "chunks_per_sentence": 24}),
        "mode": "compositional+positional", "served_words": None, "analogy": (100, 8), "train_every": 0,
    },
    "query-serve": {
        "corpus": ("zipf", {"tokens": (300, 200), "inventory": 1_000_000, "exponent": 0.9}),
        "mode": "baseline", "served_words": (5000, 3000), "analogy": (200, 8), "train_every": 40,
    },
}
QUERIES = (200, 20)
TRACED_QUERIES = (100, 10)
MIN_ROUNDS = (5, 1)


def pick(value, smoke: bool):
    return value[smoke] if isinstance(value, tuple) else value


def environment() -> str:
    import numpy

    def cache(name: str) -> str:
        try:
            size = os.sysconf(name)
        except (ValueError, OSError):
            return "unknown"
        return f"{size // 1024}KiB" if size > 0 else "unknown"

    commit = "none (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return (f"environment: cores={os.cpu_count()} l2={cache('SC_LEVEL2_CACHE_SIZE')} "
            f"l3={cache('SC_LEVEL3_CACHE_SIZE')} python={platform.python_version()} "
            f"numpy={numpy.__version__} blas_threads={BLAS_THREADS} commit={commit}")


def generate(name: str, seed: int, smoke: bool, work: Path) -> tuple[dict, dict]:
    """Write the workload's inputs; return the worker job and the facts to check against."""
    import numpy as np

    import gen

    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    kind, sizes = spec["corpus"]
    sizes = {k: pick(v, smoke) for k, v in sizes.items()}
    corpus = work / "corpus.txt"
    if kind == "zipf":
        facts = gen.zipf_corpus(corpus, rng, window=TRAIN["window"], **sizes)
    else:
        facts = gen.chunk_corpus(corpus, rng, window=TRAIN["window"],
                                 phrase_min_count=TRAIN["phrase_min_count"], **sizes)
    config = {**TRAIN, "mode": spec["mode"], "seed": seed, "plain_text": kind == "zipf"}
    cli = [x for key, flag in FLAGS.items() for x in (flag, str(config[key]))]
    cli += ["--plain"] if config["plain_text"] else []

    model, answers = None, None
    if spec["served_words"]:
        model = str(work / "serve.ckpt")
        served = gen.serve_checkpoint(Path(model), rng, words=pick(spec["served_words"], smoke),
                                      dim=TRAIN["dim"], window=TRAIN["window"])
        facts["served_sha256"] = served["matrix_sha256"]
        words, answers = served["words_by_freq"], served["input"]
    else:
        words = facts["words_by_freq"]
    queries = work / "queries.txt"
    queries.write_text("\n".join(gen.queries(rng, words, pick(QUERIES, smoke))) + "\n", encoding="utf-8")
    analogy = work / "analogy.txt"
    gen.analogy_file(analogy, rng, words, pick(spec["analogy"], smoke), sections=4, answer_matrix=answers)

    job = {
        "work": str(work), "min_rounds": pick(MIN_ROUNDS, smoke),
        "train_every": spec["train_every"],
        "questions": pick(spec["analogy"], smoke),
        "train": {"corpus": str(corpus), "config": config, "cli": cli},
        "serve": {"model": model, "queries": str(queries), "analogy": str(analogy),
                  "traced_queries": pick(TRACED_QUERIES, smoke)},
    }
    return job, facts


# --------------------------------------------------------------------------
# Output checks: each returns a list of (failed operations, message).
# --------------------------------------------------------------------------


def check_training(out: dict, facts: dict, config: dict) -> list:
    fails = []
    lib = out["library"]
    for key, pairs in (("word_steps", "word_pairs"), ("phrase_steps", "phrase_pairs")):
        if lib.get(key) != facts[pairs]:
            fails.append((1, f"train() reported {key}={lib.get(key)}, the corpus has {facts[pairs]} pairs"))
    calls = [c for c in out["samples"]["train"] if c["exit"] == 0]
    hashes = {c["params_sha256"] for c in calls} | {lib.get("params_sha256")}
    if len(hashes) != 1:
        fails.append((1, f"params.sha256 differs across runs of one seed: {sorted(map(str, hashes))}"))
    for c in calls:
        floor = -(1 + config["word_negatives"]) * math.log(2)
        if not c["e_w"] > floor:
            fails.append((1, f"word objective {c['e_w']} is not above the untrained {floor:.6f}"))
        floor = -(1 + config["phrase_negatives"]) * math.log(2)
        if facts["phrase_pairs"] and not c["e_p"] > floor:
            fails.append((1, f"phrase objective {c['e_p']} is not above the untrained {floor:.6f}"))
    return fails


def check_checkpoint(path: str, written_as, work: Path) -> tuple[list, object]:
    """Finite, holds the matrices it was written with, and reloads bit-exactly."""
    import numpy as np

    import phrasegram.model

    ckpt = phrasegram.model.checkpoint_load(path)
    fails = []
    named = ckpt.params.matrices()
    bad = [n for n, m in named if not np.isfinite(m).all()]
    if bad:
        fails.append((1, f"{path}: non-finite matrices {bad}"))
    if not written_as(named):
        fails.append((1, f"{path}: matrices differ from the ones written"))
    again = work / "reload.ckpt"
    phrasegram.model.checkpoint_save(again, ckpt.params, ckpt.config, ckpt.vocab, ckpt.phrase_vocab, ckpt.state)
    reloaded = phrasegram.model.checkpoint_load(again).params.matrices()
    same = len(reloaded) == len(named) and all(
        a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))
        for (_, a), (_, b) in zip(named, reloaded)
    )
    if not same:
        fails.append((1, f"{path}: checkpoint does not reload bit-exactly"))
    again.unlink()
    return fails, ckpt


def check_serving(samples: dict, ckpt, analogy_path: str) -> list:
    """Neighbors and analogies against brute-force numpy, exports against the matrix."""
    import numpy as np

    import gen
    import phrasegram.embeddings_io
    import phrasegram.evaluation

    fails = []
    matrix = ckpt.params.input_words
    unit = gen.unit_rows(matrix)
    index = {w: i for i, w in enumerate(ckpt.vocab.words)}
    wrong = 0
    for query, answer in samples["answers"].items():
        ids = [index[w] for w in query.strip("[]").split()]
        rows = matrix[ids]
        target = np.mean(np.sign(rows) * np.abs(rows) ** ckpt.config.alpha, axis=0)
        scores = unit @ (target / np.linalg.norm(target))
        scores[ids] = -np.inf
        k = min(10, int(np.isfinite(scores).sum()))
        kth = np.sort(scores)[-k]
        got = [(index.get(w, -1), s) for w, s in answer]
        # Equal up to rounding, allowing near-ties at the k-th place to swap.
        wrong += not (
            len(got) == k == len({i for i, _ in got})
            and all(i >= 0 and abs(scores[i] - s) <= 1e-6 and scores[i] >= kth - 1e-6 for i, s in got)
            and all(a[1] >= b[1] for a, b in zip(got, got[1:]))
        )
    if wrong or not samples["answers"]:
        fails.append((max(wrong, 1), f"{wrong} of {len(samples['answers'])} neighbor answers differ "
                                     "from the brute-force reference"))

    off = 0
    sections = samples.get("accuracy", [0.0, {}])[1]
    for name, questions in phrasegram.evaluation.load_analogy_dataset(analogy_path).items():
        correct = 0
        for q in questions:
            a, b, c, d = (index[w] for w in (q.a, q.b, q.c, q.expected))
            correct += gen.cos_add(unit, a, b, c) == d
        off += abs(round(sections.get(name, -1.0) * len(questions)) - correct)
    if off:
        fails.append((off, f"{off} analogy answers differ from the brute-force reference"))

    expected = matrix.astype(np.float32)
    for fmt in ("text", "binary"):
        try:
            words, read = phrasegram.embeddings_io.read_embeddings(samples[fmt], fmt)
        except (OSError, ValueError, KeyError) as exc:
            fails.append((1, f"{fmt} export unreadable: {exc!r}"))
            continue
        if words != ckpt.vocab.words or not np.array_equal(read, expected):
            fails.append((1, f"{fmt} export does not read back to the float32 input matrix"))
    return fails


def check(out: dict, facts: dict, job: dict, work: Path) -> list:
    import gen
    import phrasegram.manifest

    fails = check_training(out, facts, job["train"]["config"])
    calls = [c for c in out["samples"]["train"] if c["exit"] == 0]
    if not calls:
        return fails + [(1, "no training run succeeded")]
    f, ckpt = check_checkpoint(calls[-1]["checkpoint"],
                               lambda named: phrasegram.manifest.params_sha256(named) == calls[-1]["params_sha256"],
                               work)
    fails += f
    if job["serve"]["model"]:
        f, ckpt = check_checkpoint(job["serve"]["model"],
                                   lambda named: gen.matrix_digest(named) == facts["served_sha256"], work)
        fails += f
    fails += check_serving(out["samples"], ckpt, job["serve"]["analogy"])
    if job["trace"] and abs(out["accounted"] - 1.0) > 1e-6:
        fails.append((1, f"span self times cover {out['accounted']} of train() wall time, not all of it"))
    return fails


# --------------------------------------------------------------------------


def end_to_end(out: dict, facts: dict, job: dict) -> dict:
    """Each timing is the fastest of its samples, which were spread over the run."""
    import numpy as np

    s = out["samples"]
    calls = [c for c in s["train"] if c["exit"] == 0]
    tokens = facts["tokens"] * job["train"]["config"]["epochs"]
    per_query_ms = 1000.0 * np.asarray([min(v) for v in s["queries"].values()])
    metrics = {
        "setup_s": min(s["setup"], default=None),
        "train_tok_per_s": tokens / min(c["seconds"] for c in calls) if calls else None,
        "word_loss": -calls[-1]["e_w"] if calls else None,
        "query_p50_ms": float(np.percentile(per_query_ms, 50)) if len(per_query_ms) else None,
        "query_p95_ms": float(np.percentile(per_query_ms, 95)) if len(per_query_ms) else None,
        "analogy_q_per_s": job["questions"] / min(s["analogy"]) if s["analogy"] else None,
        "export_s": min(s["export"], default=None),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    return {k: v for k, v in metrics.items() if v is not None}


def run_workload(name: str, args, bench: dict) -> bool:
    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        job, facts = generate(name, args.seed, args.smoke, work)
        job.update(trace=args.trace, seconds=args.seconds, out=str(work / "out.json"),
                   spans=str(ROOT / ".perfbench_work" / f"spans-{name}"))
        (work / "job.json").write_text(json.dumps(job))
        env = {**os.environ, "PYTHONHASHSEED": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "job.json")],
                                  cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        if code != 0 or not Path(job["out"]).exists():
            print(f"{name}: worker failed ({code})")
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}), flush=True)
            return False
        out = json.loads(Path(job["out"]).read_text())
        fails = check(out, facts, job, work)
        failed = out["failed"] + sum(n for n, _ in fails)
        attempted = max(out["attempted"], failed)
        wanted = bench["per_layer" if args.trace else "end_to_end"]
        values = out["layers"] if args.trace else end_to_end(out, facts, job)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted if m["name"] in values}
        correct = failed == 0 and len(metrics) == len(wanted)

        print(f"{name} seed={args.seed} trace={args.trace}: corpus {facts['tokens']} tokens, "
              f"{facts['types']} types, {facts['word_pairs']} word pairs, {facts['phrase_pairs']} phrase pairs")
        if not args.trace:
            s = out["samples"]
            print(f"  {out['rounds']} rounds; fastest of {len(s['train'])} train calls, {len(s['setup'])} set-ups, "
                  f"{len(s['analogy'])} analogy runs, {len(s['export'])} exports; "
                  f"query percentiles over {len(s['queries'])} queries, each its fastest of {out['rounds']}")
        for m, v in metrics.items():
            print(f"  {m} = {v['value']:.6g} {v['unit']}")
        print(f"  error_rate = {failed}/{attempted} = {failed / attempted:.4g}")
        for msg in out["errors"] + [msg for _, msg in fails]:
            print(f"  FAILED: {msg}")
        if args.trace:
            print(f"  spans written to {job['spans']}-train.npz and -serve.npz")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}),
              flush=True)
        return correct
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # worker, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "phrasegram" / "__init__.py").is_file():
        print(f"error: phrasegram sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(environment(), flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args, bench) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
