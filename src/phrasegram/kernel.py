"""Builds, caches and calls the compiled training kernel, `_kernel.c`.

The first trained sentence of a process loads the kernel with ctypes
from `__pycache__/_kernel-<key>.so` next to this file, compiling it there
first with the C compiler Python was built with (`sysconfig` CC) if that
file does not exist.  `FLAGS` build at -O3 with -ffp-contract=off and no
host-specific instruction set: the optimizer may vectorize, but never
fuses a multiply-add or reorders a sum, so the kernel's arithmetic does
not depend on the host's instruction set.  The key hashes the source, the compiler command,
the flags, the interpreter's cache tag and the machine, so a change to
any of them builds a new object and an unchanged one is reused.  The
object is written through `corpus.output_file`, so a concurrent process
never loads a half-written one.

The kernel indexes matrices by id without bounds checks, so the wrappers
here check what it will read and write: matrices must be writable,
C-contiguous float64 of one shape (never copied, which would drop the
updates), and every id it reads must index them.  Noise draws look ids
up through a NoiseDistribution's `cumulative` table and its `guide`
table, which the kernel indexes by cell: the guide must have one entry
more than the table has ids, and the uniforms given to `sample_noise`
must lie in [0, 1).  The word pass draws its uniforms itself, through
numpy's documented `BitGenerator.ctypes` interface, holding the
generator's lock as `Generator.random` does.
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
from pathlib import Path
from typing import Sequence

import numpy as np

from phrasegram.corpus import output_file

__all__ = [
    "KernelBuildError",
    "build",
    "load",
    "sample_noise",
    "word_pass",
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
    """Path of the shared object for `source`, compiling it if not cached."""
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
    return target


_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_SIGNATURES = {
    "sample_noise": [_P, _P, _I, _P, _I, _I, _P],
    "word_pass": [_P, _P, _I, _P, _I, _I, _I, _P, _P, _P, _I, _P, _P, _I, _D, _P, _P, _P],
}


@functools.cache
def load() -> ctypes.CDLL:
    """The kernel library, built on first use and then reused."""
    lib = ctypes.CDLL(str(build(SOURCE, CACHE_DIR, compiler())))
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = _I
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


def word_pass(
    inp: np.ndarray,
    banks: Sequence[np.ndarray],
    ids: Sequence[int],
    window: int,
    positional: bool,
    cumulative: np.ndarray,
    guide: np.ndarray,
    keep: np.ndarray | None,
    rng: np.random.Generator,
    k: int,
    lr: float,
) -> tuple[float, int]:
    """The word-level pass of train_sentence over word ids (-1 for a hole).

    `banks` are the output matrices, indexed as model.bank_for_offset
    does; `cumulative` and `guide` are the word NoiseDistribution's
    tables.  With a per-id `keep` table the kernel first drops each in-vocab
    token whose uniform is >= its keep probability; it then draws every
    pair's k uniforms from rng.  Returns the summed pre-update objective
    and the number of pairs.
    """
    rows, dim = inp.shape
    if len(banks) != (2 * window if positional else 1):
        raise ValueError(f"{len(banks)} output banks for window {window}")
    if len(cumulative) != rows:
        raise ValueError(f"noise table has {len(cumulative)} ids for {rows} rows")
    if keep is not None:
        if len(keep) != rows:
            raise ValueError(f"keep table has {len(keep)} ids for {rows} rows")
        keep = np.ascontiguousarray(keep, dtype=np.float64)
    cum = np.ascontiguousarray(cumulative, dtype=np.float64)
    guide = _guide_table(guide, rows)
    ids = np.array(ids, dtype=np.int64)  # a copy: the kernel marks dropped tokens -1
    if len(ids) and ids.max() >= rows:
        raise ValueError(f"word id {int(ids.max())} is out of range for {rows} rows")
    table = (ctypes.c_void_p * len(banks))(*(_address(m, inp.shape) for m in banks))
    work = np.empty(k + 1 + dim)
    negs = np.empty(k + 1, dtype=np.int64)
    objective = ctypes.c_double()
    bitgen = rng.bit_generator
    fns = bitgen.ctypes  # next_double converts to the function's address
    with bitgen.lock:
        pairs = load().word_pass(
            _address(inp, inp.shape), table, dim, ids.ctypes.data, len(ids), window,
            positional, None if keep is None else keep.ctypes.data, cum.ctypes.data,
            guide.ctypes.data, rows, fns.next_double, fns.state_address, k, lr,
            work.ctypes.data, negs.ctypes.data, ctypes.byref(objective),
        )
    if pairs < 0:
        raise _noise_mass_error(-1 - pairs)
    return objective.value, pairs
