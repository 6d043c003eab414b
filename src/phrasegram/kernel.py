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
generator's lock as `Generator.random` does.  `phrase_step` is one
phrase step: it checks the phrases, the ids, the bank and the matrices
of each call itself, and allocates the step's scratch per call.
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
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from phrasegram.corpus import output_file
from phrasegram.model import ModelParams, bank_count
from phrasegram.sampling import NoiseDistribution

__all__ = [
    "KernelBuildError",
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
    "phrase_step": (_D, [_P, _P, _I, _P, _I, _D, _D, _P]),
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


def _address(m: np.ndarray, shape: tuple[int, int]) -> int:
    if not (
        m.dtype == np.float64
        and m.flags.c_contiguous
        and m.flags.writeable
        and m.shape == shape
    ):
        raise ValueError(
            f"the training kernel updates writable C-contiguous float64 {shape} "
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


def phrase_step(
    params: ModelParams,
    current_words: Sequence[int],
    context_words: Sequence[int],
    negative_phrases: Sequence[Sequence[int]],
    lr: float,
    alpha: float,
    bank: int = 0,
) -> float:
    """One gradient-ascent update for a (phrase, context phrase) pair, in the kernel.

    The context and negative phrases, composed in the phrase output space
    of the bank, are scored against the current phrase, composed in the
    input space, and each component word moves by its phrase's
    coefficient times the composition's 1/n weight and the diagonal
    Jacobian of its power map.  The step keeps the update order of
    `reference.phrase_step`, the numpy step the tests compare it against:
    every delta comes from the pre-update rows, and a word repeated
    within the step accumulates.  Returns the objective term evaluated
    before the update.

    Raises ValueError, before any write, for an empty phrase, a component
    id that does not index the input matrix, a bank index out of range,
    or a matrix the kernel cannot update in place.  The ids and the
    scratch go to the kernel as ctypes arrays, which cost less per call
    than numpy arrays and their `ctypes.data`.
    """
    phrases = [context_words, *negative_phrases, current_words]
    sizes = [len(ws) for ws in phrases]
    if 0 in sizes:
        raise ValueError("cannot compose an empty phrase")
    ids = [*chain.from_iterable(phrases)]
    inp = params.input_words
    rows, dim = inp.shape
    lo, hi = min(ids), max(ids)
    if lo < 0 or hi >= rows:
        raise ValueError(f"component id {lo if lo < 0 else hi} is out of range for {rows} rows")
    banks = params.phrase_output_words
    if not 0 <= bank < len(banks):
        raise ValueError(f"bank {bank} is out of range for {len(banks)} phrase output banks")
    address, pout = _address(inp, inp.shape), _address(banks[bank], inp.shape)
    k = len(sizes) - 2
    index = (ctypes.c_int64 * (len(sizes) + len(ids) + k + 1))(*sizes, *ids)
    work = (ctypes.c_double * ((k + 3 + (0 if alpha == 1.0 else len(ids))) * dim + k + 1))()
    return load().phrase_step(address, pout, dim, index, len(sizes), lr, alpha, work)


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
        table = (ctypes.c_void_p * len(banks))(*(_address(m, inp.shape) for m in banks))
        address = _address(inp, inp.shape)
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
