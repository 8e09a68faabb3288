"""The compiled kernels: build and cache ``splitkernel.c`` and ``csvscan.c``; call the first.

``splitkernel.c`` grows a whole tree exactly as the numpy
``forest._grow_tree`` grows it (see the C source for how), and ``ctypes``
releases the interpreter lock for the call, so trees grown on a thread pool
grow in parallel.  One :class:`Grower` serves every thread of a fit: it
ranks the matrix's columns once, and gives each thread its own scratch.
The source is built twice.  The ``splitkernel`` build holds ranks and bag
positions in 16 bits, so the ranks and each thread's presort take 2 bytes
per row and column; it takes matrices of up to its ``kp_max_rows``, 65,536
rows.  The ``splitkernel32`` build holds them in 32 bits, for larger
matrices.  :func:`kernel_for` picks the build from the row count, and
builds ``splitkernel32`` only when a matrix first needs it.
``csvscan.c`` reads and writes the rows of the
canonical CSV files; :func:`.ingest.scan_rows` and the writer of
:func:`.ingest.format_rows` and :func:`.ingest.write_rows` are its only callers.

:func:`load` compiles a kernel's source with the system ``cc`` the first
time a process needs it and caches the library in this package's
``__pycache__`` under the kernel's name, keyed by the sha256 of the source
and compiler flags and by the interpreter's cache tag.  A process loads
each kernel once: later calls return the same library, or the same None,
without reading the source again, as long as the source path and
``CACHE_DIR`` are the ones it was loaded from.  Each build writes a
temporary file and renames it into place, so concurrent first builds leave
one complete library.  Once loaded, a library is set up before :func:`load`
returns it: each function gets its ``ctypes`` signature, and ``csvscan``'s
table of powers of five, ``kp_pow5``, is filled from Python's exact
integers.  A library is therefore usable only through :func:`load`.  When
no ``cc`` exists, the cache directory is not writable or the build fails,
:func:`load` returns None and the caller falls back to its Python code: the
forest grows its trees in numpy, and ``ingest`` reads and writes the CSV
rows in Python.
"""

from __future__ import annotations

import ctypes
import os
import sys
import threading
from pathlib import Path

import numpy as np

CACHE_DIR = Path(__file__).with_name("__pycache__")
# Never -ffast-math, -march=native or FMA: the scores must round as numpy's do.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_I64, _PTR, _BYTES = ctypes.c_int64, ctypes.c_void_p, ctypes.c_char_p
# Grower calls kp_rank_columns, kp_scratch_bytes and kp_grow_tree, and reads kp_max_rows;
# kp_smallest_keys (one subset draw) is there for the differential tests.
_SPLITKERNEL = {
    "kp_scratch_bytes": (_I64, [_I64, _I64]),  # rows, columns
    "kp_rank_columns": (None, [_PTR, _I64, _I64, _PTR, _PTR]),  # x, n, p, pairs, ranks
    "kp_grow_tree": (_I64, [
        _PTR, _PTR, _I64, _I64, _PTR,  # x, ranks, n, p, y
        _PTR, ctypes.c_uint64, _I64, _I64,  # bag, state, mtry, min_leaf
        _PTR,  # scratch
        _PTR, _PTR, _PTR, _PTR, _PTR, _PTR,  # the six tree arrays
        _PTR,  # imp
    ]),
    "kp_smallest_keys": (None, [_PTR, _I64, _I64, _PTR, _PTR]),  # keys, p, k, work, out
}

_CSVSCAN = {
    "kp_scan_rows": (_I64, [
        _BYTES, _I64, _I64, _I64, _I64,  # buf, len, cols, stamp_last, capacity
        _PTR, _PTR, _PTR, _PTR,  # line_nos, stamps, values, present
    ]),
    "kp_format_rows": (_I64, [
        _PTR, _PTR, _I64, _I64,  # values, present, rows, cols
        _PTR, _I64, _I64, _PTR,  # stamps, stamp_width, stamp_last, out
    ]),
}

#: Each kernel's functions, by the name of its source in this package.
_SIGNATURES = {"splitkernel": _SPLITKERNEL, "csvscan": _CSVSCAN}

#: Each kernel's source in this package and its flags beyond FLAGS, by kernel name.
_BUILDS = {
    "splitkernel": ("splitkernel", ()),  # 16-bit ranks and bag positions
    "splitkernel32": ("splitkernel", ("-DKP_WIDE",)),  # 32-bit ones
    "csvscan": ("csvscan", ()),
}


def source_path(name: str) -> Path:
    """The C source of the kernel ``name``."""
    return Path(__file__).with_name(f"{_BUILDS[name][0]}.c")


def flags(name: str) -> tuple[str, ...]:
    """The compiler flags of the kernel ``name``."""
    return (*FLAGS, *_BUILDS[name][1])


def _sha256():
    """CPython's own sha256 where the build has one, else hashlib's.

    hashlib's loads OpenSSL, which adds 3.7 MB to the peak RSS of ``fuse``;
    the digests are the same.
    """
    import importlib

    for module in ("_sha256", "_sha2"):  # _sha2 from Python 3.12
        try:
            return importlib.import_module(module).sha256
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256


def library_path(name: str, source: bytes) -> Path:
    """Where the library of the kernel ``name`` built from ``source`` is cached."""
    digest = _sha256()(source + " ".join(flags(name)).encode()).hexdigest()[:16]
    return CACHE_DIR / f"{name}.{sys.implementation.cache_tag}-{digest}.so"


def _build(cc: str, name: str, target: Path) -> None:
    # Only a build needs these, so they are imported here.
    import subprocess
    import tempfile

    CACHE_DIR.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=CACHE_DIR, prefix=target.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        done = subprocess.run([cc, *flags(name), "-o", tmp, str(source_path(name))],
                              capture_output=True)
        if done.returncode:
            raise OSError(f"{cc} exited with {done.returncode}: {done.stderr.decode(errors='replace')}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


#: Each loaded library (or None), by kernel name, source path and cache directory.
_LOADED: dict[tuple[str, Path, Path], ctypes.CDLL | None] = {}


def load(name: str = "splitkernel"):
    """The library of the kernel ``name`` (``splitkernel``, ``splitkernel32``
    or ``csvscan``), built on first use; None when it cannot be built or loaded."""
    key = (name, source_path(name), CACHE_DIR)
    if key not in _LOADED:  # two threads may both load it: the library is the same
        _LOADED[key] = _load(name, key[1])
    return _LOADED[key]


def _load(name: str, source: Path):
    import shutil

    try:
        path = library_path(name, source.read_bytes())
        if not path.exists():
            cc = shutil.which("cc")
            if cc is None:
                return None
            _build(cc, name, path)
        library = ctypes.CDLL(str(path))
    except OSError:
        return None
    for function_name, (restype, argtypes) in _SIGNATURES[source.stem].items():
        function = getattr(library, function_name)
        function.restype = restype
        function.argtypes = argtypes
    if name == "csvscan":
        _fill_powers_of_five(library)
    return library


def _fill_powers_of_five(library) -> None:
    """Write csvscan's ``kp_pow5``: for each q of its range, the top 128
    bits of 5^q, truncated, as a high and a low 64-bit entry.

    For q < 0 that is floor(2^(n + 127) / 5^-q), with n the bit length of
    5^-q.  Two loads of one library write the same values.
    """
    low, high = (_I64.in_dll(library, f"kp_pow5_{end}").value for end in ("min", "max"))
    words = []
    for q in range(low, high + 1):
        five = 5 ** abs(q)
        n = five.bit_length()
        top = five << 128 >> n if q >= 0 else (1 << (n + 127)) // five
        words += (top >> 64, top & 0xFFFF_FFFF_FFFF_FFFF)
    (ctypes.c_uint64 * len(words)).in_dll(library, "kp_pow5")[:] = words


def max_rows(library) -> int:
    """The most rows a matrix may have in ``library``, a build of the split kernel."""
    return _I64.in_dll(library, "kp_max_rows").value


def kernel_for(rows: int):
    """The build of the split kernel for a matrix of ``rows`` rows, built on
    first use: ``splitkernel`` when its 16-bit entries hold every rank and
    bag position, else ``splitkernel32``; None when it cannot be built or loaded."""
    library = load()
    if library is not None and rows > max_rows(library):
        library = load("splitkernel32")
    return library


def _check_matrix(library, x: np.ndarray) -> None:
    if x.dtype != np.float64 or x.ndim != 2 or not x.flags.c_contiguous:
        raise ValueError("x must be a row-major 2-D float64 array")
    n, p = x.shape
    limit = max_rows(library)
    if not 1 <= n <= limit or p < 1:
        raise ValueError(f"x must have 1 to {limit} rows and a column, got {x.shape}")


def column_ranks(library, x: np.ndarray) -> np.ndarray:
    """Each column's dense ranks, one row of the result per column of ``x``.

    ``x`` must be finite.  Rows whose values compare equal (0.0 and -0.0
    too) share a rank, and the smallest value has rank 0.  A grower orders
    a column's rows by rank, and presorts a column by counting sort on it.
    The ranks are unsigned integers as wide as the build's entries: the
    narrowest that holds every rank below its row limit.
    """
    _check_matrix(library, x)
    n, p = x.shape
    ranks = np.empty((p, n), dtype=np.min_scalar_type(max_rows(library) - 1))
    pairs = np.empty(4 * n)
    library.kp_rank_columns(x.ctypes.data, n, p, pairs.ctypes.data, ranks.ctypes.data)
    return ranks


#: The six tree arrays, in ``kp_grow_tree``'s argument order.
_TREE_DTYPES = (np.int64, np.float64, np.int64, np.int64, np.float64, np.int64)


class Grower:
    """The kernel over one matrix, its column ranks and its targets.

    ``grow`` grows one tree, and any number of threads may call it at once.
    The ranks are computed once, here; each thread allocates its own
    scratch and node buffers the first time it grows, and keeps them for
    its later trees.  The instance holds every array whose address it
    passes, so they outlive the call.
    """

    def __init__(self, library, x: np.ndarray, y: np.ndarray) -> None:
        _check_matrix(library, x)
        self.n, self.p = n, p = x.shape
        self.x = x
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        if self.y.shape != (n,):
            raise ValueError("y must hold one target per row of x")
        self.ranks = column_ranks(library, x)
        self.library = library
        self.fixed = (x.ctypes.data, self.ranks.ctypes.data, n, p, self.y.ctypes.data)
        self.local = threading.local()  # each thread's scratch and node buffers

    def grow(self, bag: np.ndarray, state: int, mtry: int, min_leaf: int):
        """One tree on the rows of ``bag`` (one per row of x), drawing from
        the SplitMix64 ``state``: its six arrays (fresh copies, so the next
        ``grow`` leaves them alone) and its unnormalised importances."""
        bag = np.ascontiguousarray(bag, dtype=np.int64)
        if bag.shape != (self.n,) or bag.min() < 0 or bag.max() >= self.n:
            raise ValueError(f"a bag holds {self.n} rows of x")
        if not 1 <= mtry <= self.p or min_leaf < 1:
            raise ValueError(f"need 1 <= mtry <= {self.p} and min_leaf >= 1")
        local = self.local
        if not hasattr(local, "scratch"):  # this thread's first tree
            local.scratch = np.empty(self.library.kp_scratch_bytes(self.n, self.p), np.uint8)
            local.nodes = tuple(np.empty(2 * self.n - 1, dtype) for dtype in _TREE_DTYPES)
        imp = np.zeros(self.p)
        count = self.library.kp_grow_tree(
            *self.fixed, bag.ctypes.data, state, mtry, min_leaf, local.scratch.ctypes.data,
            *(array.ctypes.data for array in local.nodes), imp.ctypes.data)
        if count < 0:
            raise RuntimeError("the kernel split a node into an empty side")
        return tuple(array[:count].copy() for array in local.nodes), imp
