"""GramStack's swap search, compiled from gramkernel.c.

load() looks up the dsyevd that numpy.linalg links to, compiles
gramkernel.c with the system C compiler into a per-user cache (once per
source, written under a temporary name and renamed into place, after which
the cache's other builds are removed), loads it
with ctypes and checks that it reproduces numpy bit for bit on a fixed set
of swaps.  It returns None when any of that fails, and numerics.GramStack
then scores every slot in numpy, the exhaustive search, which makes the
same decisions from the same bits.  Nothing here runs before a stack first
searches a full stack.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import subprocess
import tempfile
import zlib
from pathlib import Path

import numpy as np

_CC = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-fPIC", "-shared")
# ILP64 LAPACK, as numpy's wheels link it: with and without their prefix
_DSYEVD = ("scipy_dsyevd_64_", "dsyevd_64_")
_SOURCE = Path(__file__).with_name("gramkernel.c")
_CHECK_DIMS = (1, 2, 3, 12, 15, 28, 40)  # the stacks' widths and dsytrd's blocked sizes

_int64_p = ctypes.POINTER(ctypes.c_int64)


class _Stack(ctypes.Structure):
    """struct stack of gramkernel.c."""

    _fields_ = [
        ("dsyevd", ctypes.c_void_p),
        ("dim", ctypes.c_int64),
        ("capacity", ctypes.c_int64),
        ("size", ctypes.c_int64),
        ("kappa", ctypes.c_int64),
        ("per_offer", ctypes.c_int64),
        ("fresh", ctypes.c_int64),
        ("lwork", ctypes.c_int64 * 2),
        ("liwork", ctypes.c_int64 * 2),
    ] + [(name, ctypes.c_void_p) for name in (
        "blocks", "traces", "gram", "block", "grown", "lam", "a", "work", "iwork",
        "basis", "ritz", "solved", "rq",
    )] + [("scale", ctypes.c_double)]


def _cache_dir():
    return Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "irlobs"


def _compiled():
    """The path of the compiled source in the cache, compiled there first
    if it is not, which removes every other build there; raises OSError or
    subprocess.SubprocessError on failure, leaving no file behind."""
    # zlib, not hashlib: OpenSSL would add about 3 MiB to the process
    key = zlib.crc32("\0".join([_SOURCE.read_text(), _CC, *_FLAGS, platform.machine()]).encode())
    cache = _cache_dir()
    target = cache / f"gramkernel-{key:08x}.so"
    if target.exists():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".gramkernel-", suffix=".so", dir=cache)
    os.close(fd)
    try:
        subprocess.run([_CC, *_FLAGS, "-o", tmp, str(_SOURCE), "-lm"], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        os.replace(tmp, target)  # a concurrent process sees no file or all of it
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # builds of other sources or flags; a process that loaded one keeps its mapping
    for stale in cache.glob("gramkernel-*.so"):
        if stale != target:
            with contextlib.suppress(OSError):
                stale.unlink()
    return target


class Kernel:
    """The loaded library and numpy's dsyevd."""

    def __init__(self, lib, dsyevd):
        self.dsyevd = ctypes.cast(dsyevd, ctypes.c_void_p).value
        lib.gk_workspace.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, _int64_p]
        lib.gk_workspace.restype = ctypes.c_int64
        lib.gk_search.argtypes = [ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
                                  ctypes.c_double]
        lib.gk_search.restype = ctypes.c_int64
        self.lib = lib

    def workspace(self, n, vectors):
        """(lwork, liwork) of dsyevd's size query, as numpy's wrapper takes them."""
        out = (ctypes.c_int64 * 2)()
        if self.lib.gk_workspace(self.dsyevd, n, int(vectors), out):
            raise np.linalg.LinAlgError("dsyevd's workspace query failed")
        return out[0], out[1]

    def search(self, blocks, traces, kappa, per_offer):
        return Search(self, blocks, traces, kappa, per_offer)


class Search:
    """One stack's compiled best_swap, reading its blocks (capacity, dim,
    dim) and traces (capacity,) arrays in place."""

    def __init__(self, kernel, blocks, traces, kappa, per_offer):
        capacity, dim = blocks.shape[:2]
        for array, shape in ((blocks, (capacity, dim, dim)), (traces, (capacity,))):
            if array.shape != shape or array.dtype != np.float64 or not array.flags.c_contiguous:
                raise ValueError(f"expected a C-contiguous float64 array of shape {shape}")
        (lwork, liwork), (lwork_v, liwork_v) = (kernel.workspace(dim, v) for v in (False, True))
        self._gram = None  # the stack's Gram that self.gram holds a copy of
        self.gram, self.block, grown = np.zeros((3, dim, dim))
        self.lam = np.zeros((capacity, dim))
        # allocated here, kept alive with self, and handed to C once
        self._arrays = dict(
            blocks=blocks, traces=traces, gram=self.gram, block=self.block, grown=grown,
            lam=self.lam, a=np.zeros((dim, dim)), work=np.zeros(max(lwork, lwork_v, 1)),
            iwork=np.zeros(max(liwork, liwork_v, 1), np.int64), basis=np.zeros((3, dim)),
            ritz=np.zeros((5, capacity)), solved=np.zeros(capacity, np.int64),
            rq=np.zeros((2 * dim + 2, dim)),
        )
        self._stack = _Stack(
            dsyevd=kernel.dsyevd, dim=dim, capacity=capacity, kappa=int(kappa),
            per_offer=int(per_offer), lwork=(lwork, lwork_v), liwork=(liwork, liwork_v),
            **{name: array.ctypes.data for name, array in self._arrays.items()},
        )
        self._ref = ctypes.addressof(self._stack)
        self._search = kernel.lib.gk_search

    def best_swap(self, block, cut, trace, gram, size, gram_trace):
        """GramStack.best_swap of block, of trace float(block.trace()), on a
        stack of size slots summing to gram, of trace gram_trace.  A stack
        makes a new gram array at every change, and only then does its
        per-change Ritz basis go stale."""
        if gram is not self._gram:
            self._gram, self.gram[...] = gram, gram
            self._stack.size, self._stack.fresh = size, 0
        self.block[...] = block
        slot = self._search(self._ref, cut, trace, gram_trace)
        if slot >= 0:
            return slot, self.lam[slot].copy()
        if slot == -1:
            return None
        raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _reference(grown, blocks):
    """numpy's spectra of the swaps the self-check solves."""
    return np.linalg.eigvalsh(grown[None] - blocks)


def _self_check(kernel):
    """Whether the kernel's swap spectra are bitwise numpy's on fixed
    stacks of each of _CHECK_DIMS, every slot solved."""
    for dim in _CHECK_DIMS:
        # irregular rows without numpy.random, which the cost-recovery
        # process does not import otherwise
        rows = np.sin(np.arange(1.0, 1.0 + 12 * dim).reshape(4, 3, dim) ** 1.5)
        rows *= np.logspace(0.0, -3.0, dim)
        blocks = rows.swapaxes(1, 2) @ rows
        gram, block = blocks[:-1].sum(axis=0), blocks[-1]
        search = kernel.search(blocks, np.zeros(len(blocks)), kappa=True, per_offer=False)
        search.best_swap(block, np.inf, 0.0, gram, len(blocks) - 1, 0.0)
        if search.lam[:-1].tobytes() != _reference(gram + block, blocks[:-1]).tobytes():
            return False
    return True


def load():
    """The Kernel, or None where it cannot be built, loaded or trusted."""
    try:
        numpy_lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        dsyevd = next((getattr(numpy_lapack, name) for name in _DSYEVD
                       if hasattr(numpy_lapack, name)), None)
        if dsyevd is None:
            return None
        lib = ctypes.CDLL(str(_compiled()))
        lib.gk_struct_size.argtypes, lib.gk_struct_size.restype = [], ctypes.c_int64
        if lib.gk_struct_size() != ctypes.sizeof(_Stack):  # the source and _Stack disagree
            return None
        kernel = Kernel(lib, dsyevd)
        return kernel if _self_check(kernel) else None
    except (OSError, RuntimeError, subprocess.SubprocessError, AttributeError,
            np.linalg.LinAlgError):
        return None
