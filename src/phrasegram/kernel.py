"""Builds, caches and calls the compiled training kernel, `_kernel.c`.

The first epoch a process trains loads the kernel with ctypes from
`__pycache__/_kernel-<key>.so` next to this file, compiling it there
first with the C compiler Python was built with (`sysconfig` CC) if that
file does not exist.  `FLAGS` build at -O3 with -ffp-contract=off and no
host-specific instruction set: the optimizer may vectorize, but never
fuses a multiply-add or reorders a sum, so the kernel's own arithmetic
does not depend on the host's instruction set (its exp, log1p and, in a
phrase step at alpha != 1, pow come from the C library, whose variants
for different hosts may differ in the last bit).  On x86-64 the object
holds two clones of the word pass and of the phrase step, for AVX2 and
for baseline x86-64, and the dynamic loader picks one for the host when
it loads the object (an ifunc), so the object stays portable and both
clones compute the same bits.  Every helper is inlined, so a clone runs
a whole step in its own instruction set and calls only the generator
and the C library.  It scores a few rows per sweep over the scored
vector and writes the word step in one sweep over the columns; neither
changes the order of any sum, so the bits are those of one dot product
and one pass per vector.  The key hashes the source, the compiler
command, the flags, the interpreter's cache tag and the machine, so a
change to any of them builds a new object and an unchanged one is
reused.  The object is written through `corpus.output_file`, so a
concurrent process never loads a half-written one.

The kernel indexes matrices by id without bounds checks, so the wrappers
here check what it will read and write: matrices must be writable,
C-contiguous float64 of one shape (never copied, which would drop the
updates; `_address` checks one), the input matrix must share no memory
with a word output bank (a word step holds its center's vector while it
writes the rows), and every id it reads must index them.
Noise draws look ids up through a NoiseDistribution's `cumulative` table
and its `guide` table, which the kernel indexes by cell: the guide must
have one entry more than the table has ids, and the uniforms given to
`sample_noise` must lie in [0, 1).  A `WordPass` is the word pass
prepared for one run: its construction does every check and conversion
that is fixed for the run, so a call only copies and range-checks the
sentence's ids.  The word pass draws its uniforms itself, through
numpy's documented `BitGenerator.ctypes` interface, holding the
generator's lock as `Generator.random` does.  `PhraseTables` is the
phrase step prepared for one run in the same way: it checks the matrices
once, and packs and range-checks the phrase inventory once into
compressed sparse rows, from which the kernel composes each phrase by
id.  `phrase_step` is one step through those tables: it checks only what
varies per call (the phrase ids, the number of negatives and the bank),
then makes one kernel call, holding the tables' lock over their scratch.
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
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from phrasegram.corpus import output_file
from phrasegram.model import ModelParams, bank_count
from phrasegram.sampling import NoiseDistribution

__all__ = [
    "KernelBuildError",
    "PhraseTables",
    "WordPass",
    "build",
    "load",
    "phrase_step",
    "sample_noise",
]

SOURCE = Path(__file__).with_name("_kernel.c")
CACHE_DIR = SOURCE.parent / "__pycache__"
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
LIBS = ("-lm",)


class KernelBuildError(OSError):
    """The training kernel could not be compiled."""


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
        raise KernelBuildError(f"cannot build the training kernel: {exc}") from exc
    for stale in cache_dir.glob(f"{source.stem}-*.so"):
        if stale != target:
            stale.unlink(missing_ok=True)
    return target


_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_SIGNATURES = {  # name: (restype, argtypes)
    "sample_noise": (_I, [_P, _P, _I, _P, _I, _I, _P]),
    "word_pass": (_I, [_P, _P, _I, _P, _I, _I, _I, _P, _P, _P, _I, _P, _P, _I, _D, _P, _P, _P]),
    "phrase_step": (_D, [_P, _P, _D]),
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


def _noise_mass_error(exclude: int) -> ValueError:
    return ValueError(f"id {exclude} holds all the noise mass; no other id to draw")


def _guide_table(guide: np.ndarray, ids: int) -> np.ndarray:
    """`guide` as the kernel reads it: ids + 1 int64 cell edges."""
    if len(guide) != ids + 1:
        raise ValueError(f"guide table has {len(guide)} entries for {ids} ids, not {ids + 1}")
    return np.ascontiguousarray(guide, dtype=np.int64)


def sample_noise(
    cumulative: np.ndarray, guide: np.ndarray, u: np.ndarray, exclude: int
) -> np.ndarray:
    """The kernel's draws for the uniforms u, as NoiseDistribution.sample.

    `cumulative` and `guide` are a NoiseDistribution's tables; every
    uniform must lie in [0, 1).
    """
    cum = np.ascontiguousarray(cumulative, dtype=np.float64)
    guide = _guide_table(guide, len(cum))
    u = np.ascontiguousarray(u, dtype=np.float64)
    if not np.all((u >= 0.0) & (u < 1.0)):
        raise ValueError("uniforms must lie in [0, 1)")
    out = np.empty(len(u), dtype=np.int64)
    if load().sample_noise(
        cum.ctypes.data, guide.ctypes.data, len(cum), u.ctypes.data, len(u), exclude, out.ctypes.data
    ):
        raise _noise_mass_error(exclude)
    return out


class _Tables(ctypes.Structure):
    """`struct phrase_tables` of `_kernel.c`."""

    _fields_ = [
        ("inp", _P), ("dim", _I), ("offsets", _P), ("words", _P), ("k", _I),
        ("phrase", _P), ("order", _P), ("alpha", _D), ("work", _P),
    ]


class PhraseTables:
    """The phrase step of a training run, prepared once for the run.

    `params` is the model the steps update, `components` each phrase id's
    component word ids, `alpha` the power map's exponent and `k` the
    number of negative phrases of every step.  Everything fixed for the
    run is checked and converted here, once: the input matrix and every
    phrase output bank (`_address`), and the components, which must each
    be non-empty and index the input rows.  They are packed as compressed
    sparse rows, int64 `offsets` into one int64 array of word ids, from
    which the kernel composes every phrase.  The step's scratch is sized
    here for the longest phrase.  The object holds every array whose
    address it passes to the kernel, so the matrices are updated in place
    for as long as it lives and must not be replaced meanwhile.
    `phrase_step` holds `lock` while it uses the scratch.
    """

    def __init__(
        self, params: ModelParams, components: Sequence[Sequence[int]], alpha: float, k: int
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
        # The composed phrases, the gradient, the coefficients and, at alpha != 1,
        # one Jacobian row per component word of a step's k + 2 phrases.
        longest = int(sizes.max(initial=0))
        work = np.empty((k + 3 + (0 if alpha == 1.0 else (k + 2) * longest)) * dim + k + 1)
        order = np.arange(k + 1, dtype=np.int64)
        ids = np.empty(k + 2, dtype=np.int64)
        tables = _Tables(
            address, dim, offsets.ctypes.data, words.ctypes.data, k, ids.ctypes.data,
            order.ctypes.data, alpha, work.ctypes.data,
        )
        self.k = k
        self.phrases = len(sizes)
        self.lock = threading.Lock()
        # A step's phrase ids, written through a ctypes view of ids.
        self._ids = (ctypes.c_int64 * (k + 2)).from_buffer(ids)
        # Everything whose address the kernel is given, kept alive with the object.
        self._held = (inp, *banks, offsets, words, work, order, ids, tables)
        self._fn = load().phrase_step
        self._tables = ctypes.addressof(tables)


def phrase_step(
    tables: PhraseTables,
    current: int,
    context: int,
    negatives: Sequence[int],
    lr: float,
    bank: int = 0,
) -> float:
    """One gradient-ascent update for a (phrase, context phrase) pair, in the kernel.

    `current`, `context` and the k `negatives` are phrase ids of the
    tables.  The context and negative phrases, composed in the phrase
    output space of the bank, are scored against the current phrase,
    composed in the input space, and each component word moves by its
    phrase's coefficient times the composition's 1/n weight and the
    diagonal Jacobian of its power map.  The step keeps the update order
    of `reference.phrase_step`, the numpy step the tests compare it
    against: every delta comes from the pre-update rows, and a word
    repeated within the step accumulates.  Returns the objective term
    evaluated before the update.

    Checks only what varies per call, the tables having checked the rest:
    raises ValueError, before any write, for a phrase id out of range, a
    number of negatives other than the tables' k, or a bank index out of
    range.
    """
    k, n, pouts = tables.k, tables.phrases, tables._pouts
    if len(negatives) != k:
        raise ValueError(f"{len(negatives)} negative phrases for tables of k = {k}")
    if not 0 <= bank < len(pouts):
        raise ValueError(f"bank {bank} is out of range for {len(pouts)} phrase output banks")
    if not (0 <= current < n and 0 <= context < n and 0 <= min(negatives, default=0)
            and max(negatives, default=0) < n):
        bad = next(q for q in (current, context, *negatives) if not 0 <= q < n)
        raise ValueError(f"phrase id {bad} is out of range for {n} phrases")
    with tables.lock:
        ids = tables._ids
        ids[0] = context
        ids[1 : k + 1] = negatives
        ids[k + 1] = current
        return tables._fn(tables._tables, pouts[bank], lr)


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
        if len(noise.cumulative) != rows:
            raise ValueError(f"noise table has {len(noise.cumulative)} ids for {rows} rows")
        if keep is not None:
            if len(keep) != rows:
                raise ValueError(f"keep table has {len(keep)} ids for {rows} rows")
            keep = np.ascontiguousarray(keep, dtype=np.float64)
        self._rows = rows
        cum = np.ascontiguousarray(noise.cumulative, dtype=np.float64)
        guide = _guide_table(noise.guide, rows)
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
            objective = self._objective.value
        if pairs < 0:
            raise _noise_mass_error(-1 - pairs)
        return objective, pairs
