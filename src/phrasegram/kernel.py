"""Builds, caches and calls the compiled kernel, `_kernel.c`: the training
passes, the lines of the text export, the CRC-32 of a checkpoint, and the
exact top k of a neighbor query or a 3CosAdd near tie.

The first epoch a process trains, its first text export, its first
checkpoint read or write, or the first unit matrix it builds for a
neighbor query or an analogy evaluation, loads the kernel with ctypes from
`__pycache__/_kernel-<key>.so` next to this file, compiling it there
first with the C compiler Python was built with (`sysconfig` CC) if that
file does not exist.  `FLAGS` build at -O3 with
-ffp-contract=off and no host-specific instruction set: the optimizer
may vectorize, but never fuses a multiply-add or reorders a sum, so the
kernel's own arithmetic does not depend on the host's instruction set
(its exp, log1p and, in a phrase step at alpha != 1, pow come from the C
library, whose variants for different hosts may differ in the last bit).
On x86-64 the object holds two clones of the word pass and of the phrase
step, for AVX2 and for baseline x86-64, and the dynamic loader picks one
for the host when it loads the object (an ifunc), so the object stays
portable and both clones compute the same bits.  Every helper is
inlined, so a clone runs a whole step in its own instruction set and
calls only the generator and the C library.  It scores a few rows per
sweep over the scored vector and writes the word step in one sweep over
the columns; neither changes the order of any sum, so the bits are those
of one dot product and one pass per vector.  The key hashes the source,
the compiler command, the flags, the interpreter's cache tag and the
machine, so a change to any of them builds a new object and an unchanged
one is reused.  The object is written through `corpus.output_file`, so a
concurrent process never loads a half-written one.

The kernel indexes matrices by id without bounds checks, so the wrappers
here check what it will read and write: matrices must be writable,
C-contiguous float64 of one shape (never copied, which would drop the
updates; `_address` checks one), the input matrix must share no memory
with a word output bank (a word step holds its center's vector while it
writes the rows), and every id it reads must index them.
Noise draws look ids up through a NoiseDistribution's `cumulative` table
and its `guide` table, which the kernel indexes by cell: the guide must
have one entry more than the table has ids, an id a draw excludes must
leave mass to the others, and the uniforms given to `sample_noise` must
lie in [0, 1).  A `WordPass` is the word pass prepared for one run: its
construction does every check and conversion that is fixed for the run,
so a call only copies and range-checks the sentence's ids.
`PhraseTables` is the phrase step prepared for one run in the same way:
it checks the matrices once, and packs and range-checks the phrase
inventory once into compressed sparse rows, from which the kernel
composes each phrase by id.  `phrase_step` is one step through those
tables: it checks only the phrase ids and the bank, then makes one
kernel call.  Both passes check their noise table once, and draw their
uniforms in the kernel through numpy's documented `BitGenerator.ctypes`
interface, holding the generator's lock as `Generator.random` does; the
lock also guards the pass's scratch.
`TextLines` writes the text export's lines, each word and then its float32
row, every value as `'%.9g' % v` prints it, into one byte buffer that it
allocates once per export, sized for a block of rows at the widest text a
value can take plus the most bytes a block's words take; it checks each
block's dtype, layout and size, and that it holds one word per row.
`crc32` is `zlib.crc32` of any C-contiguous buffer: the kernel folds
what it can by carry-less multiplication and zlib takes the rest; `model`
imports it where it saves or loads a checkpoint, not at its top, since
this module imports `model`.
`ExactTop` is the serving rescore prepared once per unit matrix: it
holds the matrix's address, its non-finite row ids, a float32 score per
row, a target buffer and scratch, all under one lock.  A neighbor query
scores every row in one BLAS product into that buffer, and one kernel
call then leaves out the query's rows, finds the k-th best float32 score
in a heap, rescores the rows within the margin of it in float64 in the
training kernel's fixed lane order, and sorts them; the scratch grows,
never past the row count, when more rows fall within the margin.  It
checks the buffers it is handed and every row id before the kernel reads
them.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shlex
import subprocess
import sys
import sysconfig
import threading
import zlib
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from phrasegram.corpus import output_file
from phrasegram.model import ModelParams, bank_count
from phrasegram.sampling import NoiseDistribution

__all__ = [
    "ExactTop",
    "KernelBuildError",
    "PhraseTables",
    "TextLines",
    "WordPass",
    "build",
    "crc32",
    "load",
    "phrase_step",
    "sample_noise",
]

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)


class KernelBuildError(OSError):
    """The kernel could not be compiled."""


def compiler() -> list[str]:
    """The C compiler command Python was built with."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def build(source: Path, cache_dir: Path, cc: Sequence[str]) -> Path:
    """Path of the shared object for `source`, compiling it if not cached.

    A build removes the objects of `source` that earlier keys left in
    `cache_dir`.  On Linux a process that has one of them loaded keeps
    running on it, since unlinking a file does not unmap it.
    """
    key = hashlib.sha256(
        repr(
            (source.read_bytes(), list(cc), FLAGS + LIBS,
             sys.implementation.cache_tag, platform.machine())
        ).encode()
    ).hexdigest()[:16]
    target = cache_dir / f"{source.stem}-{key}.so"
    if target.exists():
        return target
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        with output_file(target, "wb") as fh:
            command = [*cc, *FLAGS, "-o", fh.name, str(source), *LIBS]
            proc = subprocess.run(command, capture_output=True, text=True)
            if proc.returncode != 0:
                raise KernelBuildError(
                    f"{shlex.join(command)} exited {proc.returncode}:\n{proc.stderr.strip()}"
                )
            os.chmod(fh.name, 0o755)  # every user loads it, whatever the umask
    except OSError as exc:
        raise KernelBuildError(f"cannot build the kernel: {exc}") from exc
    for stale in cache_dir.glob(f"{source.stem}-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)
    return target


_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_SIGNATURES = {  # name: (restype, argtypes)
    "sample_noise": (None, [_P, _P, _I, _P, _I, _I, _P]),
    "word_pass": (_I, [_P, _P, _I, _P, _I, _I, _I, _P, _P, _P, _I, _P, _P, _I, _D, _P, _P, _P]),
    "phrase_step": (_D, [_P, _P, _I, _I, _D]),
    "format_rows": (_I, [_P, _I, _I, _P, _I, _P]),
    "crc32_fold": (_I, [ctypes.POINTER(ctypes.c_uint32), _P, _I]),
    "exact_top": (_I, [_P, _P, _P, _I, _I, _D]),
}


@functools.cache
def load() -> ctypes.CDLL:
    """The kernel library, built on first use and then reused."""
    lib = ctypes.CDLL(str(build(SOURCE, CACHE_DIR, compiler())))
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return lib


def crc32(data: object, crc: int = 0) -> int:
    """`zlib.crc32(data, crc)`: the CRC-32 of the bytes of `data`, any
    C-contiguous buffer, continued from `crc`, the CRC of the bytes before
    them.  zlib continues what the kernel's `crc32_fold` leaves."""
    view = memoryview(data)
    if not view.c_contiguous:
        raise ValueError(f"crc32 reads a C-contiguous buffer; got a {view.ndim}-D one that is not")
    buf = np.frombuffer(view, dtype=np.uint8)
    state = ctypes.c_uint32(crc)
    folded = load().crc32_fold(ctypes.byref(state), buf.ctypes.data, len(buf))
    return zlib.crc32(buf[folded:], state.value)


def _address(m: np.ndarray, shape: tuple[int, int], name: str) -> int:
    if not (
        m.dtype == np.float64
        and m.flags.c_contiguous
        and m.flags.writeable
        and m.shape == shape
    ):
        raise ValueError(
            f"{name}: the training kernel updates writable C-contiguous float64 {shape} "
            f"matrices in place; got {m.dtype} {m.shape} "
            f"(contiguous={m.flags.c_contiguous}, writable={m.flags.writeable})"
        )
    return m.ctypes.data


def _check_mass(cum: np.ndarray, ids: Sequence[int]) -> None:
    """Rejects the first of `ids` that leaves the other ids no mass, lo + (1 - hi)
    <= 0 as the kernel's draw computes it: a draw excluding it has none to draw."""
    held = [i for i in np.flatnonzero(np.append(0.0, cum[:-1]) + (1.0 - cum) <= 0.0) if i in ids]
    if held:
        raise ValueError(f"id {held[0]} holds all the noise mass; no other id to draw")


def _guide_table(guide: np.ndarray, ids: int) -> np.ndarray:
    """`guide` as the kernel reads it: ids + 1 int64 cell edges."""
    if len(guide) != ids + 1:
        raise ValueError(f"guide table has {len(guide)} entries for {ids} ids, not {ids + 1}")
    return np.ascontiguousarray(guide, dtype=np.int64)


def _noise_tables(noise: NoiseDistribution, ids: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """`noise`'s cumulative and guide tables as a pass's draws read them, checked
    once for the pass, so that no draw can fail: one entry per id of `ids`
    (`what`), and mass left to the others whichever id a draw excludes."""
    if len(noise.cumulative) != ids:
        raise ValueError(f"noise table has {len(noise.cumulative)} ids for {ids} {what}")
    cum = np.ascontiguousarray(noise.cumulative, dtype=np.float64)
    _check_mass(cum, range(ids))
    return cum, _guide_table(noise.guide, ids)


def sample_noise(
    cumulative: np.ndarray, guide: np.ndarray, u: np.ndarray, exclude: int
) -> np.ndarray:
    """The kernel's draws for the uniforms u, as NoiseDistribution.sample.

    `cumulative` and `guide` are a NoiseDistribution's tables; every
    uniform must lie in [0, 1), and `exclude` must leave mass to the others.
    """
    cum = np.ascontiguousarray(cumulative, dtype=np.float64)
    guide = _guide_table(guide, len(cum))
    u = np.ascontiguousarray(u, dtype=np.float64)
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError("uniforms must lie in [0, 1)")
    _check_mass(cum, [exclude])
    out = np.empty(len(u), dtype=np.int64)
    load().sample_noise(
        cum.ctypes.data, guide.ctypes.data, len(cum), u.ctypes.data, len(u), exclude, out.ctypes.data
    )
    return out


# The most bytes `format_rows` in `_kernel.c` writes per value, the space or
# newline after it included.
_TEXT_WIDEST = 16


class TextLines:
    """The lines of a text export, `word v1 ... vd`, a block of rows at a time.

    Holds the kernel's two byte buffers for one export, each allocated
    once: one for a block's words, and one for its lines, sized for
    `block_rows` rows of `dim` values at the widest text plus
    `word_bytes` bytes of words, the most that a block's words take.
    """

    def __init__(self, block_rows: int, dim: int, word_bytes: int) -> None:
        self._rows, self._dim = block_rows, dim
        self._words = np.empty(word_bytes, dtype=np.uint8)
        self._out = np.empty(block_rows * max(dim, 1) * _TEXT_WIDEST + 1 + word_bytes, dtype=np.uint8)
        self._fn = load().format_rows

    def __call__(self, words: bytes, rows: np.ndarray) -> memoryview:
        """The lines of `rows`, 2-D C-contiguous float32, each under its word
        of `words`, the rows' words joined by newlines in UTF-8.  Every value
        prints as `'%.9g' % v` prints it.  The view is of the object's
        buffer, which the next call overwrites.
        """
        if not (rows.dtype == np.float32 and rows.ndim == 2 and rows.flags.c_contiguous):
            raise ValueError(
                f"the text writer reads 2-D C-contiguous float32 rows; got {rows.dtype} {rows.shape} "
                f"(contiguous={rows.flags.c_contiguous})"
            )
        count, dim = rows.shape
        if dim != self._dim or count > self._rows or len(words) > len(self._words):
            raise ValueError(
                f"a block of {count} rows of {dim} values and {len(words)} bytes of words exceeds "
                f"the writer's {self._rows} rows of {self._dim} values and {len(self._words)} bytes"
            )
        newlines = words.count(b"\n")
        if count and newlines != count - 1:
            raise ValueError(f"{newlines + 1} words for {count} rows")
        # At the end of their buffer, so that a read past the last word is one
        # past the allocation.
        tail = self._words[len(self._words) - len(words) :]
        tail[:] = np.frombuffer(words, dtype=np.uint8)
        size = self._fn(rows.ctypes.data, count, dim, tail.ctypes.data, len(words), self._out.ctypes.data)
        return memoryview(self._out)[:size]


class _Tables(ctypes.Structure):
    """`struct phrase_tables` of `_kernel.c`."""

    _fields_ = [
        ("inp", _P), ("dim", _I), ("offsets", _P), ("words", _P), ("k", _I), ("phrase", _P),
        ("order", _P), ("alpha", _D), ("work", _P), ("cum", _P), ("guide", _P),
        ("phrases", _I), ("next_double", _P), ("state", _P),
    ]


class PhraseTables:
    """The phrase step of a training run, prepared once for the run.

    `params` is the model the steps update, `components` each phrase id's
    component word ids, `noise` the phrase NoiseDistribution, `rng` the
    generator every step draws its k negative phrases from and `alpha` the
    power map's exponent.  Everything fixed for the run is checked and
    converted here, once: the input matrix and every phrase output bank
    (`_address`), the noise table (`_noise_tables`), and the components,
    which must each be non-empty and index the input rows.  They are
    packed as compressed sparse rows, int64 `offsets` into one int64 array
    of word ids, from which the kernel composes every phrase.  The step's
    scratch is sized here for the longest phrase.  The object holds every
    array whose address it passes to the kernel, so the matrices are
    updated in place for as long as it lives and must not be replaced
    meanwhile.
    """

    def __init__(
        self, params: ModelParams, components: Sequence[Sequence[int]], noise: NoiseDistribution,
        rng: np.random.Generator, alpha: float, k: int,
    ) -> None:
        inp = params.input_words
        rows, dim = inp.shape
        address = _address(inp, inp.shape, "input matrix")
        banks = tuple(params.phrase_output_words)
        self._pouts = tuple(
            _address(m, inp.shape, f"phrase output bank {i}") for i, m in enumerate(banks)
        )
        sizes = np.fromiter(map(len, components), dtype=np.int64, count=len(components))
        empty = np.flatnonzero(sizes == 0)
        if len(empty):
            raise ValueError(f"phrase {empty[0]} is empty: cannot compose an empty phrase")
        offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        words = np.fromiter(chain.from_iterable(components), dtype=np.int64, count=offsets[-1])
        bad = np.flatnonzero((words < 0) | (words >= rows))
        if len(bad):
            phrase = np.searchsorted(offsets, bad[0], side="right") - 1
            raise ValueError(
                f"phrase {phrase} has component id {words[bad[0]]}, out of range for {rows} rows"
            )
        cum, guide = _noise_tables(noise, len(sizes), "phrases")
        # The composed phrases, the gradient, the coefficients and, at alpha != 1,
        # one Jacobian row per component word of a step's k + 2 phrases.
        longest = int(sizes.max(initial=0))
        work = np.empty((k + 3 + (0 if alpha == 1.0 else (k + 2) * longest)) * dim + k + 1)
        order = np.arange(k + 1, dtype=np.int64)
        ids = np.empty(k + 2, dtype=np.int64)
        bitgen = rng.bit_generator
        fns = bitgen.ctypes
        tables = _Tables(
            address, dim, offsets.ctypes.data, words.ctypes.data, k, ids.ctypes.data,
            order.ctypes.data, alpha, work.ctypes.data, cum.ctypes.data, guide.ctypes.data,
            len(sizes), ctypes.cast(fns.next_double, _P), fns.state_address,
        )
        self.phrases = len(sizes)
        # Everything whose address the kernel is given, kept alive with the object.
        self._held = (inp, *banks, offsets, words, work, order, ids, cum, guide, bitgen, fns, tables)
        self._lock = bitgen.lock
        self._fn = load().phrase_step
        self._tables = ctypes.addressof(tables)


def phrase_step(
    tables: PhraseTables, current: int, context: int, lr: float, bank: int = 0
) -> float:
    """One gradient-ascent update for a (phrase, context phrase) pair, in the kernel.

    `current` and `context` are phrase ids of the tables.  The step draws
    k negative phrases from the tables' generator, as one
    `NoiseDistribution.sample(rng, k, exclude=current)` call does.  The
    context and negative phrases, composed in the phrase output space of
    the bank, are scored against the current phrase, composed in the input
    space, and each component word moves by its phrase's coefficient times
    the composition's 1/n weight and the diagonal Jacobian of its power
    map.  The step keeps the update order of `reference.phrase_step`, the
    numpy step the tests compare it against: every delta comes from the
    pre-update rows, and a word repeated within the step accumulates.
    Returns the objective term evaluated before the update.

    Checks only what varies per call, the tables having checked the rest:
    raises ValueError, before any draw or write, for a phrase id or a bank
    index out of range.
    """
    n, pouts = tables.phrases, tables._pouts
    if not 0 <= bank < len(pouts):
        raise ValueError(f"bank {bank} is out of range for {len(pouts)} phrase output banks")
    if not (0 <= current < n and 0 <= context < n):
        bad = context if 0 <= current < n else current
        raise ValueError(f"phrase id {bad} is out of range for {n} phrases")
    with tables._lock:
        return tables._fn(tables._tables, pouts[bank], current, context, lr)


class WordPass:
    """The word-level pass of a training run, prepared once for the run.

    `inp` and `banks` are the input matrix and the output matrices,
    indexed as model.bank_for_offset does; `noise` is the word
    NoiseDistribution.  With a per-id `keep` table the kernel first drops
    each in-vocab token whose uniform is >= its keep probability; it then
    draws every pair's k uniforms from rng.  Everything fixed for the run
    is checked and converted here, once: the object holds every array
    whose address it passes to the kernel, so the matrices are updated in
    place for as long as it lives and must not be replaced meanwhile.
    """

    def __init__(
        self,
        inp: np.ndarray,
        banks: Sequence[np.ndarray],
        noise: NoiseDistribution,
        keep: np.ndarray | None,
        rng: np.random.Generator,
        k: int,
        window: int,
        positional: bool,
    ) -> None:
        rows, dim = inp.shape
        if len(banks) != bank_count(window, positional):
            raise ValueError(f"{len(banks)} output banks for window {window}")
        cum, guide = _noise_tables(noise, rows, "rows")
        if keep is not None:
            if len(keep) != rows:
                raise ValueError(f"keep table has {len(keep)} ids for {rows} rows")
            keep = np.ascontiguousarray(keep, dtype=np.float64)
        self._rows = rows
        table = (ctypes.c_void_p * len(banks))(
            *(_address(m, inp.shape, f"output bank {i}") for i, m in enumerate(banks))
        )
        address = _address(inp, inp.shape, "input matrix")
        for i, bank in enumerate(banks):
            # Cheap on contiguous matrices.  A step holds v while it writes the
            # rows, so v must not be one of them.
            if np.shares_memory(inp, bank):
                raise ValueError(f"the input matrix shares memory with output bank {i}")
        work = np.empty(k + 1)
        negs = np.empty(k + 1, dtype=np.int64)
        self._objective = ctypes.c_double()
        bitgen = rng.bit_generator
        fns = bitgen.ctypes  # next_double converts to the function's address
        # Everything whose address the kernel is given, kept alive with the object.
        self._held = (inp, *banks, keep, cum, guide, table, work, negs, bitgen, fns)
        # The generator's lock also guards the scratch buffers and the objective.
        self._lock = bitgen.lock
        self._fn = load().word_pass
        self._head = (address, table, dim)
        self._tail = (
            window, positional, None if keep is None else keep.ctypes.data, cum.ctypes.data,
            guide.ctypes.data, rows, fns.next_double, fns.state_address, k,
        )
        self._scratch = (work.ctypes.data, negs.ctypes.data, ctypes.byref(self._objective))

    def __call__(self, ids: Sequence[int], lr: float) -> tuple[float, int]:
        """The pass over word ids (-1 for a hole) at learning rate lr.

        Returns the summed pre-update objective and the number of pairs.
        """
        ids = np.array(ids, dtype=np.int64)  # a copy: the kernel marks dropped tokens -1
        if len(ids) and ids.max() >= self._rows:
            raise ValueError(f"word id {int(ids.max())} is out of range for {self._rows} rows")
        with self._lock:
            pairs = self._fn(
                *self._head, ids.ctypes.data, len(ids), *self._tail, lr, *self._scratch
            )
            return self._objective.value, pairs


class _Top(ctypes.Structure):
    """`struct exact_top` of `_kernel.c`."""

    _fields_ = [
        ("unit", _P), ("n", _I), ("dim", _I), ("non_finite", _P), ("non_finites", _I), ("drop", _P),
        ("heap", _P), ("ids", _P), ("exact", _P), ("cap", _I),
    ]


class ExactTop:
    """The exact top k of a serving scan over one unit matrix, prepared once.

    `unit` is the n x dim row-normalized matrix, C-contiguous float64,
    `unit32` its float32 copy and `non_finite` the ids of its rows that are
    not finite, which no answer names.  The object holds float32 scores for
    every row, a target buffer and the kernel's scratch: min(k, n) rows for
    the largest k asked, grown, never past n, when more rows fall within the
    margin.  One lock guards them all, so threads may share the object.
    """

    def __init__(self, unit: np.ndarray, unit32: np.ndarray, non_finite: np.ndarray) -> None:
        n, dim = unit.shape
        if not (unit.dtype == np.float64 and unit.flags.c_contiguous):
            raise ValueError(f"the unit matrix must be C-contiguous float64; got {unit.dtype}")
        if not (unit32.dtype == np.float32 and unit32.flags.c_contiguous and unit32.shape == unit.shape):
            raise ValueError(f"the float32 unit matrix must be C-contiguous {unit.shape}")
        non_finite = np.ascontiguousarray(non_finite, dtype=np.int64)
        if len(non_finite) and not (non_finite.min() >= 0 and non_finite.max() < n):
            raise ValueError(f"a non-finite row id is out of range for {n} rows")
        self.n, self.dim = n, dim
        self.scores = np.empty(n, dtype=np.float32)
        self._unit32 = unit32
        self._target = np.empty(dim)
        self._target32 = np.empty(dim, dtype=np.float32)
        # Addresses taken once: an array's `ctypes` attribute costs more than a small query's scan.
        self._buffers = (self.scores.ctypes.data, self._target.ctypes.data)
        self._top = _Top(unit.ctypes.data, n, dim, non_finite.ctypes.data, len(non_finite))
        # Everything whose address the kernel is given, kept alive with the object.
        self._held = (unit, non_finite)
        # ctypes arrays, whose slices are lists without a numpy conversion.
        self._drop, self._ids, self._exact = (_I * 0)(), (_I * 0)(), (_D * 0)()
        self._lock = threading.Lock()
        self._fn = load().exact_top
        self._address = ctypes.addressof(self._top)

    @property
    def capacity(self) -> int:
        """Rows the scratch holds: at most n."""
        return self._top.cap

    def _grow(self, rows: int, drops: int) -> None:
        top = self._top
        if drops > len(self._drop):
            self._drop = (_I * max(drops, 2 * len(self._drop)))()
            top.drop = ctypes.addressof(self._drop)
        if rows > top.cap:
            rows = min(max(rows, 2 * top.cap), self.n)
            self._heap, self._ids, self._exact = (ctypes.c_float * rows)(), (_I * rows)(), (_D * rows)()
            top.heap, top.ids, top.exact = map(ctypes.addressof, (self._heap, self._ids, self._exact))
            top.cap = rows

    def neighbors(
        self, vector: np.ndarray, norm: float, drop: Sequence[int], k: int, margin: float
    ) -> tuple[list[int], list[float]]:
        """`__call__` for the target `vector` / `norm`, every row's float32
        score from one BLAS product of `unit32` with the target rounded to
        float32."""
        with self._lock:
            np.divide(vector, norm, out=self._target)
            self._target32[...] = self._target
            np.matmul(self._unit32, self._target32, out=self.scores)
            return self._select(*self._buffers, drop, k, margin)

    def __call__(
        self, scores: np.ndarray, target: np.ndarray, drop: Sequence[int], k: int, margin: float
    ) -> tuple[list[int], list[float]]:
        """The k rows of highest float64 score unit[i] @ target, as a list of
        row ids and one of their scores, best first, equal scores by lower row
        id, the rows of `drop` and the non-finite rows left out; fewer when
        fewer rows are left.

        `scores` holds every row's float32 score, within eps of its float64
        score for the `margin` of `evaluation._rescore_margin`, whose
        docstring proves the result a full float64 scan's; the kernel sets
        the scores of `drop`'s rows and of the non-finite rows to -inf.
        """
        if not (scores.dtype == np.float32 and scores.flags.c_contiguous and scores.flags.writeable
                and scores.shape == (self.n,)):
            raise ValueError(f"scores must be writable C-contiguous float32 ({self.n},)")
        if not (target.dtype == np.float64 and target.flags.c_contiguous and target.shape == (self.dim,)):
            raise ValueError(f"the target must be C-contiguous float64 ({self.dim},)")
        with self._lock:
            return self._select(scores.ctypes.data, target.ctypes.data, drop, k, margin)

    def _select(
        self, scores: int, target: int, drop: Sequence[int], k: int, margin: float
    ) -> tuple[list[int], list[float]]:
        """`__call__` on the buffers at `scores` and `target`, with the lock held."""
        if k < 1:
            raise ValueError("k must be positive")
        if drop and not (min(drop) >= 0 and max(drop) < self.n):
            raise ValueError(f"row id out of range for {self.n} rows in {list(drop)}")
        k = min(k, self.n)
        if not k:
            return [], []
        if k > self._top.cap or len(drop) > len(self._drop):
            self._grow(k, len(drop))
        self._drop[: len(drop)] = drop
        while (found := self._fn(self._address, scores, target, len(drop), k, margin)) < 0:
            self._grow(-found, 0)
        return self._ids[:found], self._exact[:found]
