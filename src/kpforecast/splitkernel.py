"""The compiled split search: build, cache and call ``splitkernel.c``.

The kernel returns exactly what the numpy ``forest._best_split`` computes
(see the C source for how), and ``ctypes`` releases the interpreter lock for
the call, so trees grown on a thread pool search their splits in parallel.

:func:`load` compiles the source with the system ``cc`` the first time a
process needs it and caches the library in this package's ``__pycache__``,
keyed by the sha256 of the source and compiler flags and by the
interpreter's cache tag.  Each build writes a temporary file and renames it
into place, so concurrent first builds leave one complete library.  When no
``cc`` exists, the cache directory is not writable or the build fails,
:func:`load` returns None and the forest uses the numpy search instead.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("splitkernel.c")
CACHE_DIR = Path(__file__).with_name("__pycache__")
# Never -ffast-math, -march=native or FMA: the scores must round as numpy's do.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,  # xc, n, y
    ctypes.c_void_p, ctypes.c_int64,  # rows, m
    ctypes.c_void_p, ctypes.c_int64,  # cand, k
    ctypes.c_void_p, ctypes.c_void_p,  # pairs, tmp
    ctypes.c_void_p, ctypes.c_void_p,  # pos_out, out
]

#: (index into cand, sorted position, best score, lo, hi, total sum, total sum of squares)
KernelSplit = tuple[int, int, float, float, float, float, float]


def library_path(source: bytes) -> Path:
    """Where the library built from ``source`` is cached."""
    # Only a fit needs this module's imports beyond ctypes, so they are made
    # here and in _build and load: hashlib alone (OpenSSL) adds 3.6 MB of RSS
    # to a process, and predict, fuse and synth never fit.
    import hashlib

    digest = hashlib.sha256(source + " ".join(FLAGS).encode()).hexdigest()[:16]
    return CACHE_DIR / f"splitkernel.{sys.implementation.cache_tag}-{digest}.so"


def _build(cc: str, source: Path, target: Path) -> None:
    import subprocess
    import tempfile

    CACHE_DIR.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=CACHE_DIR, prefix=target.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([cc, *FLAGS, "-o", tmp, str(source)], capture_output=True)
        if done.returncode:
            raise OSError(f"{cc} exited with {done.returncode}: {done.stderr.decode(errors='replace')}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load():
    """The kernel's C function, built on first use; None when it cannot be built or loaded."""
    import shutil

    try:
        path = library_path(SOURCE.read_bytes())
        if not path.exists():
            cc = shutil.which("cc")
            if cc is None:
                return None
            _build(cc, SOURCE, path)
        function = ctypes.CDLL(str(path)).kp_best_split
    except OSError:
        return None
    function.argtypes = _ARGTYPES
    function.restype = ctypes.c_int64
    return function


class Searcher:
    """The kernel over one column-major matrix, with its own scratch buffers.

    ``search(rows, cand)`` expects every row index below ``xc.shape[0]`` and
    every candidate column below ``xc.shape[1]``.  It returns a
    :data:`KernelSplit`, or None when no candidate separates the rows.  The
    instance holds every array whose address it passes, so they outlive the
    call; one instance serves one thread at a time.
    """

    def __init__(self, kernel, xc: np.ndarray, y: np.ndarray) -> None:
        if xc.dtype != np.float64 or xc.ndim != 2 or not xc.flags.f_contiguous:
            raise ValueError("xc must be a column-major 2-D float64 array")
        self.n = n = xc.shape[0]
        self.xc = xc
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        if self.y.shape != (n,):
            raise ValueError("y must hold one target per row of xc")
        self.kernel = kernel
        self.pairs = np.empty(2 * n)
        self.tmp = np.empty(2 * n)
        self.pos = np.empty(1, dtype=np.int64)
        self.out = np.empty(5)
        self.fixed = (xc.ctypes.data, n, self.y.ctypes.data)
        self.scratch = (self.pairs.ctypes.data, self.tmp.ctypes.data,
                        self.pos.ctypes.data, self.out.ctypes.data)

    def search(self, rows: np.ndarray, cand: np.ndarray) -> KernelSplit | None:
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cand = np.ascontiguousarray(cand, dtype=np.int64)
        if not 1 <= rows.size <= self.n:
            raise ValueError(f"a node holds 1 to {self.n} rows, got {rows.size}")
        j = self.kernel(*self.fixed, rows.ctypes.data, rows.size,
                        cand.ctypes.data, cand.size, *self.scratch)
        if j < 0:
            return None
        return (int(j), int(self.pos[0]), *self.out.tolist())
