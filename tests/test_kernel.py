"""The compiled kernel's pieces against their numpy references, and its build cache.

The noise draw must give the ids NoiseDistribution.sample gives for the
same uniforms, on every table edge and every cell edge of the guide
table.  The word pass must check its inputs, leave the caller's ids
alone and draw one subsampling uniform per in-vocab token; its pairs
and updates are checked against the per-pair reference in test_trainer,
as are the phrase step's checks and arithmetic.  Builds for other
instruction sets must train the word and phrase passes bitwise as the
shipped object does, and a build with AddressSanitizer and
UndefinedBehaviorSanitizer must run the differential tests and those
runs without a report.  The build is cached per key, reused across
processes, and a failing compiler is reported by command and message;
the source compiles without warnings.
"""

import json
import os
import platform
import shlex
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from phrasegram import kernel, trainer
from phrasegram.cli import main
from phrasegram.model import TrainConfig
from phrasegram.sampling import build_noise_distribution
from test_sampling import SCRIPTED_COLLISIONS, ScriptedRng

SRC = Path(kernel.__file__).resolve().parents[1]
TESTS = Path(__file__).resolve().parent


class TestSampleNoise:
    @pytest.mark.parametrize(
        "counts, exclude, script", SCRIPTED_COLLISIONS, ids=["first", "middle", "last"]
    )
    def test_scripted_collisions_match_sample(self, counts, exclude, script):
        dist = build_noise_distribution(np.array(counts), exponent=1.0)
        uniforms, expected = zip(*script)
        got = kernel.sample_noise(dist.cumulative, dist.guide, np.array(uniforms), exclude)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(
            got, dist.sample(ScriptedRng(uniforms), len(uniforms), exclude=exclude)
        )
        assert not np.any(got == exclude)

    def test_random_tables_match_sample(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            counts = rng.integers(0, 50, size=9)
            counts[rng.integers(9)] = 400  # a heavy id, often excluded
            dist = build_noise_distribution(counts)
            for exclude in [*np.flatnonzero(counts), -1]:
                us = rng.random(300)
                got = kernel.sample_noise(dist.cumulative, dist.guide, us, int(exclude))
                want = dist.sample(ScriptedRng(us.tolist()), 300, exclude=int(exclude))
                np.testing.assert_array_equal(got, want)
                assert not np.any(got == exclude)

    def test_excluded_id_holding_all_mass_raises(self):
        dist = build_noise_distribution(np.array([0, 4, 0]))
        with pytest.raises(ValueError, match="all the noise mass"):
            kernel.sample_noise(dist.cumulative, dist.guide, np.array([0.5]), 1)


def _edge_uniforms(dist):
    """Every cumulative entry and every cell edge j/V, with their float neighbours, in [0, 1)."""
    v = len(dist.cumulative)
    points = np.concatenate([dist.cumulative, np.arange(v + 1) / v])
    us = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    return us[(us >= 0.0) & (us < 1.0)]


# (counts, exponent, id excluded in the redirect cases)
GUIDE_TABLES = {
    # zero-count ids make flat runs in the cumulative table
    "zero-counts": ([0, 0, 3, 0, 0, 1, 0, 5, 0, 0, 2, 0], 1.0, 7),
    # the flat run sits on the cell edge 5/6, and floor(u * 6) is 5 for the
    # uniform just below that edge: only a search reaching into the cell
    # below finds id 0
    "flat-run-on-an-edge": ([5, 0, 0, 0, 0, 1], 1.0, 0),
    "two-ids": ([1, 3], 0.75, 1),
    "one-id-holds-99.9%": ([1] * 49 + [48951], 1.0, 49),
    "zipf-5000": (np.round(1e6 / np.arange(1, 5001)), 0.75, 0),
}


def _assert_kernel_matches_sample(dist, us, exclude):
    got = kernel.sample_noise(dist.cumulative, dist.guide, us, -1 if exclude is None else exclude)
    want = dist.sample(ScriptedRng(us.tolist()), len(us), exclude=exclude)
    np.testing.assert_array_equal(got, want)


class TestGuideTable:
    """The guided lookup returns NoiseDistribution.sample's ids for every uniform."""

    @pytest.mark.parametrize("excluded", [False, True], ids=["all-ids", "excluded"])
    @pytest.mark.parametrize("table", GUIDE_TABLES)
    def test_edges_match_sample(self, table, excluded):
        counts, exponent, exclude = GUIDE_TABLES[table]
        dist = build_noise_distribution(np.array(counts), exponent)
        _assert_kernel_matches_sample(dist, _edge_uniforms(dist), exclude if excluded else None)

    @pytest.mark.parametrize(
        "table, excluded",
        [*((t, False) for t in GUIDE_TABLES), ("one-id-holds-99.9%", True), ("zipf-5000", True)],
    )
    def test_random_uniforms_match_sample(self, table, excluded):
        # The oracle redirects each excluded hit in Python, so the redirect runs
        # on 10**6 uniforms only for the tables whose excluded id is the point.
        counts, exponent, exclude = GUIDE_TABLES[table]
        dist = build_noise_distribution(np.array(counts), exponent)
        us = np.random.default_rng(len(counts)).random(10**6)
        _assert_kernel_matches_sample(dist, us, exclude if excluded else None)

    def test_uniform_outside_unit_interval_rejected(self):
        dist = build_noise_distribution(np.array([3, 2, 1]))
        for bad in (1.0, -1e-300, np.nan):
            with pytest.raises(ValueError, match=r"uniforms must lie in \[0, 1\)"):
                kernel.sample_noise(dist.cumulative, dist.guide, np.array([0.5, bad]), -1)


def _matrices(rows=3, dim=4, banks=1):
    rng = np.random.default_rng(5)
    return rng.normal(size=(rows, dim)), [rng.normal(size=(rows, dim)) for _ in range(banks)]


def _prepare(inp, banks, noise, keep=None, rng=None, window=1, positional=False):
    rng = np.random.default_rng(1) if rng is None else rng
    return kernel.WordPass(inp, banks, noise, keep, rng, 2, window, positional)


class TestWordPass:
    def test_center_holding_all_noise_mass_is_named(self):
        word_pass = _prepare(*_matrices(), build_noise_distribution(np.array([0, 4, 0])))
        with pytest.raises(ValueError, match=r"^id 1 holds all the noise mass"):
            word_pass([0, 1], 0.05)

    @pytest.mark.parametrize("keep", [0.0, 0.5])
    def test_callers_ids_unchanged_by_subsampling(self, keep):
        dist = build_noise_distribution(np.array([3, 2, 1]))
        ids = np.array([0, -1, 2, 1, 0, 2], dtype=np.int64)
        rng, expected = np.random.default_rng(7), np.random.default_rng(7)
        _, pairs = _prepare(*_matrices(), dist, np.full(3, keep), rng, window=2)(ids, 0.05)
        np.testing.assert_array_equal(ids, [0, -1, 2, 1, 0, 2])
        if keep == 0.0:
            # every token dropped: one uniform per in-vocab token, none for the hole
            assert pairs == 0
            expected.random(5)
            assert rng.bit_generator.state == expected.bit_generator.state

    def test_id_out_of_range_rejected_before_any_draw(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        word_pass = _prepare(*_matrices(), build_noise_distribution(np.array([3, 2, 1])), rng=rng)
        with pytest.raises(ValueError, match="word id 3 is out of range for 3 rows"):
            word_pass([0, 3, 1], 0.05)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "banks, window, positional",
        [(2, 1, False), (1, 2, True), (3, 2, True)],
        ids=["two-plain", "one-positional", "odd-positional"],
    )
    def test_bank_count_rejected(self, banks, window, positional):
        inp, out = _matrices(banks=banks)
        dist = build_noise_distribution(np.array([3, 2, 1]))
        with pytest.raises(ValueError, match=f"^{banks} output banks for window {window}$"):
            _prepare(inp, out, dist, window=window, positional=positional)

    @pytest.mark.parametrize("overlap", ["same-rows", "one-row"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_input_sharing_memory_with_a_bank_rejected(self, which, overlap):
        # A step holds v while it writes the rows, so v must never be one of them.
        buf = np.random.default_rng(3).normal(size=(6, 4))
        inp, banks = buf[:3], [buf[3:], buf[3:].copy()]
        banks[which] = inp[:] if overlap == "same-rows" else buf[2:5]
        dist = build_noise_distribution(np.array([3, 2, 1]))
        with pytest.raises(ValueError, match=f"^the input matrix shares memory with output bank {which}$"):
            _prepare(inp, banks, dist, positional=True)

    def test_noise_table_of_wrong_length_rejected(self):
        dist = build_noise_distribution(np.array([3, 2, 1, 1]))
        with pytest.raises(ValueError, match="noise table has 4 ids for 3 rows"):
            _prepare(*_matrices(), dist)

    def test_keep_table_of_wrong_length_rejected(self):
        dist = build_noise_distribution(np.array([3, 2, 1]))
        with pytest.raises(ValueError, match="keep table has 2 ids for 3 rows"):
            _prepare(*_matrices(), dist, np.ones(2))

    def test_guide_table_of_wrong_length_rejected(self):
        dist = build_noise_distribution(np.array([3, 2, 1]))
        guide = dist.guide
        dist.guide = guide[:-1]
        with pytest.raises(ValueError, match="guide table has 3 entries for 3 ids, not 4"):
            _prepare(*_matrices(), dist)
        with pytest.raises(ValueError, match="guide table has 5 entries for 3 ids, not 4"):
            kernel.sample_noise(dist.cumulative, np.append(guide, 3), np.array([0.5]), -1)

    @pytest.mark.parametrize("which", ["input", "bank"])
    @pytest.mark.parametrize(
        "spoil",
        [
            lambda m: m.setflags(write=False) or m,
            np.asfortranarray,
            lambda m: m.astype(np.float32),
            lambda m: np.ascontiguousarray(m[:, :3]),
        ],
        ids=["unwritable", "fortran-order", "float32", "narrow"],
    )
    def test_matrix_the_kernel_cannot_update_in_place_rejected(self, which, spoil):
        inp, banks = _matrices()
        if which == "input":
            inp = spoil(inp)
        else:
            banks[0] = spoil(banks[0])
        dist = build_noise_distribution(np.array([3, 2, 1]))
        with pytest.raises(ValueError, match="writable C-contiguous float64"):
            _prepare(inp, banks, dist)

    def test_waits_for_the_generators_lock(self):
        # numpy's Generator methods hold bit_generator.lock while they draw;
        # the pass must too, or a second thread's draws interleave with its own.
        dist = build_noise_distribution(np.array([3, 2, 1]))
        ids = [0, 1, 2, 1, 0]
        free_inp, free_banks = _matrices()
        want = _prepare(free_inp, free_banks, dist, rng=np.random.default_rng(9))(ids, 0.05)
        inp, banks = _matrices()
        rng = np.random.default_rng(9)
        word_pass = _prepare(inp, banks, dist, rng=rng)
        got = []
        with rng.bit_generator.lock:
            thread = threading.Thread(target=lambda: got.append(word_pass(ids, 0.05)))
            thread.start()
            thread.join(0.2)
            assert thread.is_alive() and got == []
        thread.join(30)
        assert not thread.is_alive()
        assert got == [want]
        np.testing.assert_array_equal(inp, free_inp)
        np.testing.assert_array_equal(banks[0], free_banks[0])


def _fake_compiler() -> list[str]:
    """A compiler command that only creates its -o file."""
    code = "import sys; open(sys.argv[sys.argv.index('-o') + 1], 'w').close()"
    return [sys.executable, "-c", code]


class TestBuildCache:
    def test_second_process_reuses_cached_object(self, tmp_path):
        log = tmp_path / "cc.log"
        cc = tmp_path / "cc"
        cc.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec {shlex.join(kernel.compiler())} "$@"\n')
        cc.chmod(0o755)
        cache = tmp_path / "cache"
        load = (
            "import ctypes, sys; from pathlib import Path; from phrasegram import kernel; "
            "p = kernel.build(kernel.SOURCE, Path(sys.argv[1]), [sys.argv[2]]); "
            "ctypes.CDLL(str(p)).word_pass; print(p)"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        paths = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", load, str(cache), str(cc)],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            path = Path(proc.stdout.strip())
            paths.append((path, path.stat().st_mtime_ns))
        assert paths[0] == paths[1]
        assert log.read_text().splitlines() == ["run"]
        assert [p.name for p in cache.iterdir()] == [paths[0][0].name]

    def test_source_compiles_without_warnings(self, tmp_path):
        # At the shipped flags, so warnings only the optimizer emits count too.
        command = kernel.compiler() + [
            *kernel.FLAGS, "-std=c99", "-Wall", "-Wextra", "-Werror",
            "-o", str(tmp_path / "kernel.so"), str(kernel.SOURCE), *kernel.LIBS,
        ]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_source_edit_changes_key(self, tmp_path):
        source = tmp_path / "_kernel.c"
        source.write_bytes(kernel.SOURCE.read_bytes())
        cache = tmp_path / "cache"
        first = kernel.build(source, cache, _fake_compiler())
        assert first.stat().st_mode & 0o777 == 0o755
        assert kernel.build(source, cache, _fake_compiler()) == first
        source.write_bytes(kernel.SOURCE.read_bytes() + b"/* edited */\n")
        second = kernel.build(source, cache, _fake_compiler())
        assert second != first
        assert list(cache.iterdir()) == [second]  # the superseded object is removed
        assert kernel.build(source, cache, _fake_compiler()[:2] + ["pass"]) != first

    @pytest.mark.parametrize("kind", ["fails", "missing", "fails-mid-write"])
    def test_failing_compiler_is_named(self, tmp_path, kind):
        if kind == "fails":
            cc = [sys.executable, "-c", "import sys; sys.exit('cc: unknown flag -O2')"]
            expected = "cc: unknown flag -O2"
        elif kind == "fails-mid-write":
            write = "open(sys.argv[sys.argv.index('-o') + 1], 'wb').write(b'\\x7fELF')"
            cc = [sys.executable, "-c", f"import sys; {write}; sys.exit('cc: killed')"]
            expected = "cc: killed"
        else:
            cc = [str(tmp_path / "no-such-cc")]
            expected = "No such file"
        cache = tmp_path / "cache"
        with pytest.raises(kernel.KernelBuildError) as info:
            kernel.build(kernel.SOURCE, cache, cc)
        message = str(info.value)
        assert "cannot build the training kernel" in message
        assert shlex.join(cc) in message and expected in message
        assert list(cache.iterdir()) == []  # no temporary file left behind

    def test_object_is_0755_under_any_umask(self, tmp_path):
        old = os.umask(0o077)
        try:
            built = kernel.build(kernel.SOURCE, tmp_path, _fake_compiler())
        finally:
            os.umask(old)
        assert built.stat().st_mode & 0o777 == 0o755

    def test_cli_reports_build_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(kernel, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(kernel, "compiler", lambda: [str(tmp_path / "no-such-cc")])
        kernel.load.cache_clear()
        try:
            corpus = tmp_path / "c.txt"
            corpus.write_text("a b c\nb c a\n")
            code = main(["train", str(corpus), "--out", str(tmp_path / "m.ckpt"),
                         "--min-count", "1", "--dim", "4"])
        finally:
            kernel.load.cache_clear()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot build the training kernel")
        assert "no-such-cc" in err

    def test_loaded_only_by_training(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\nb c a\n")
        script = (
            "import sys; from phrasegram import kernel, trainer; "
            "from phrasegram.model import TrainConfig; "
            "cfg = TrainConfig(dim=4, min_count=1, epochs=0); "
            "trainer.train(sys.argv[1], cfg); before = kernel.load.cache_info().currsize; "
            "trainer.train(sys.argv[1], TrainConfig(dim=4, min_count=1)); "
            "print(before, kernel.load.cache_info().currsize)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(corpus)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.split() == ["0", "1"]

    def test_ingest_prepares_no_word_pass(self, tmp_path, monkeypatch):
        # train(epochs=0) is the ingest alone, which must not pay for either
        # pass or for their noise tables
        corpus = tmp_path / "c.txt"
        corpus.write_text("[NP a b] c\n[NP b c] a\n")
        calls = dict.fromkeys(["WordPass", "PhrasePass", "build_noise_distribution"], 0)

        def counted(name, original):
            def call(*args):
                calls[name] += 1
                return original(*args)

            return call

        for owner, name in (
            (kernel, "WordPass"), (trainer, "PhrasePass"), (trainer, "build_noise_distribution")
        ):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        config = dict(dim=4, min_count=1, phrase_min_count=1, mode="compositional")
        trainer.train(corpus, TrainConfig(**config, epochs=0))
        assert calls == {"WordPass": 0, "PhrasePass": 0, "build_noise_distribution": 0}
        trainer.train(corpus, TrainConfig(**config))
        assert calls == {"WordPass": 1, "PhrasePass": 1, "build_noise_distribution": 2}


# Trains one fixed run per config, the word-only ones over the corpus in
# argv[1] and the compositional ones over the chunked corpus in argv[2], with
# the kernel built from argv[3] into argv[4] at kernel.FLAGS plus the flags in
# argv[5:], or with the shipped build when only the corpora are given; prints
# each run's parameter hash and stream states.  Exit code 3 means the build
# failed.
CROSS_BUILD_RUN = """
import json, sys
from pathlib import Path
from phrasegram import kernel, trainer
from phrasegram.manifest import params_sha256
from phrasegram.model import Mode, TrainConfig

if len(sys.argv) > 3:
    kernel.SOURCE, kernel.CACHE_DIR = Path(sys.argv[3]), Path(sys.argv[4])
    kernel.FLAGS = kernel.FLAGS + tuple(sys.argv[5:])
phrases = dict(mode=Mode.COMPOSITIONAL_POSITIONAL, min_count=1, phrase_min_count=1)
configs = [
    (1, TrainConfig(dim=101, window=3, subsample=1e-3, mode=Mode.POSITIONAL, min_count=1, seed=12)),
    (1, TrainConfig(dim=100, window=5, word_negatives=5, min_count=1, seed=13)),
    (2, TrainConfig(dim=101, window=3, alpha=1.0, seed=14, **phrases)),
    (2, TrainConfig(dim=100, window=2, alpha=1.5, phrase_negatives=6, seed=15, **phrases)),
]
runs = []
for corpus, config in configs:
    try:
        result = trainer.train(sys.argv[corpus], config)
    except kernel.KernelBuildError as exc:
        print(exc, file=sys.stderr)
        sys.exit(3)
    runs.append([params_sha256(result.params.matrices()), result.state_dict])
print(json.dumps(runs))
"""


def _cross_build_run(corpora, *build, env=None):
    return subprocess.run(
        [sys.executable, "-c", CROSS_BUILD_RUN, *map(str, corpora), *map(str, build)],
        env=env or {**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def cross_build_corpus(tmp_path_factory):
    """~3000 Zipf-distributed tokens and ~1300 chunked ones, with the shipped
    build's runs over them."""
    rng = np.random.default_rng(12)
    words = rng.zipf(1.3, size=3000) % 400
    directory = tmp_path_factory.mktemp("cross-build")
    corpus = directory / "c.txt"
    corpus.write_text("".join(" ".join(f"w{w}" for w in line) + "\n" for line in words.reshape(150, 20)))
    # 2-4-word chunks of a 30-phrase inventory over 60 words, words repeating
    # within and across phrases, between loose words.
    inventory = [rng.integers(0, 60, size=rng.integers(2, 5)) for _ in range(30)]
    lines = []
    for _ in range(80):
        parts = []
        for g in rng.integers(0, 30, size=5):
            parts.append("[NP " + " ".join(f"p{w}" for w in inventory[g]) + "]")
            parts.append(f"p{rng.integers(0, 60)}")
        lines.append(" ".join(parts) + "\n")
    chunked = directory / "chunked.txt"
    chunked.write_text("".join(lines))
    shipped = _cross_build_run((corpus, chunked))
    assert shipped.returncode == 0, shipped.stderr
    return (corpus, chunked), shipped.stdout


class TestCrossBuild:
    """Every instruction set the compiler may use gives the shipped build's bits.

    -ffp-contract=off and dot's fixed order forbid every rounding change a
    vector width could bring, so the default clone alone, and whole builds
    for AVX2 and AVX-512, must train exactly as the shipped object does,
    whichever clone the loader picked for this host: word-only runs, and
    compositional+positional runs at alpha 1 and 1.5, whose phrase steps
    compose, score and write through the same helpers.
    """

    @pytest.mark.parametrize("extra", [(), ("-mavx2",), ("-mavx512f",)], ids=["default", "avx2", "avx512f"])
    def test_train_bitwise_equal_to_shipped_build(self, tmp_path, cross_build_corpus, extra):
        if platform.machine().lower() not in ("x86_64", "amd64"):
            pytest.skip(f"the kernel has clones only on x86-64, not {platform.machine()}")
        corpora, shipped = cross_build_corpus
        original = kernel.SOURCE.read_text()
        stripped = "".join(
            line for line in original.splitlines(keepends=True) if "target_clones" not in line
        )
        assert stripped != original
        source = tmp_path / "_kernel.c"
        source.write_text(stripped)
        proc = _cross_build_run(corpora, source, tmp_path / "cache", *extra)
        if proc.returncode == 3 and any(flag in proc.stderr for flag in extra):
            pytest.skip(f"the compiler rejects {' '.join(extra)}: {proc.stderr.strip()}")
        if proc.returncode == -signal.SIGILL:
            pytest.skip(f"this host cannot run a build with {' '.join(extra)}")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == json.loads(shipped)


SANITIZE = (
    "-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
    "-fno-omit-frame-pointer",
)
SANITIZED_EXAMPLES = 40

# Runs both hypothesis differential tests of test_trainer, argv[3] examples
# each, with the kernel built from argv[1] into argv[2] at kernel.FLAGS plus
# the flags in argv[4:].
DIFFERENTIAL_RUN = """
import sys
from pathlib import Path
from hypothesis import given, settings, strategies as st
from phrasegram import kernel
import test_trainer

kernel.SOURCE, kernel.CACHE_DIR = Path(sys.argv[1]), Path(sys.argv[2])
kernel.FLAGS = kernel.FLAGS + tuple(sys.argv[4:])
examples = settings(derandomize=True, max_examples=int(sys.argv[3]), deadline=None, database=None)
for check in (test_trainer.check_drawn_phrase_steps, test_trainer.check_drawn_passes):
    examples(given(st.data())(check))()
"""


def _libasan():
    """The compiler's AddressSanitizer runtime, or None where it has none."""
    try:
        proc = subprocess.run(
            [*kernel.compiler(), "-print-file-name=libasan.so"], capture_output=True, text=True
        )
    except OSError:
        return None
    path = Path(proc.stdout.strip())
    return path if proc.returncode == 0 and path.is_absolute() and path.exists() else None


class TestSanitizedBuild:
    """The kernel built with AddressSanitizer and UndefinedBehaviorSanitizer
    runs the differential tests and the cross-build corpora cleanly.

    The kernel indexes by id without bounds checks, trusting the tables
    and ids that the Python side checked; an out-of-bounds read or write,
    say an off-by-one in a phrase's component range, aborts the sanitized
    run with a report.  The runtime is preloaded into the interpreter,
    which is not built with it, and Python's allocator is set to malloc so
    that the sanitizer sees every buffer.  The sanitizers change no
    floating-point operation, so the corpora train to the shipped bits.
    """

    def test_differential_tests_and_cross_build_corpora_run_clean(
        self, tmp_path, monkeypatch, cross_build_corpus
    ):
        libasan = _libasan()
        if libasan is None:
            pytest.skip(f"{shlex.join(kernel.compiler())} has no libasan.so")
        cache = tmp_path / "cache"
        # Built here, so that the preloaded runs only load the object.
        monkeypatch.setattr(kernel, "FLAGS", kernel.FLAGS + SANITIZE)
        kernel.build(kernel.SOURCE, cache, kernel.compiler())
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)]),
            "LD_PRELOAD": str(libasan),
            "ASAN_OPTIONS": "detect_leaks=0",
            "PYTHONMALLOC": "malloc",
        }
        proc = subprocess.run(
            [sys.executable, "-c", DIFFERENTIAL_RUN, str(kernel.SOURCE), str(cache),
             str(SANITIZED_EXAMPLES), *SANITIZE],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-5000:]
        corpora, shipped = cross_build_corpus
        proc = _cross_build_run(corpora, kernel.SOURCE, cache, *SANITIZE, env=env)
        assert proc.returncode == 0, proc.stderr[-5000:]
        assert json.loads(proc.stdout) == json.loads(shipped)
