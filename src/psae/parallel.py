"""How work is split: the items of a Section.map on up to two threads, with
BLAS single-threaded, and per-file work on up to two forked processes
(process_map). Callers pass a function and its items; this module alone
decides whether they overlap and how they are dealt.

The model's GEMMs are 64 wide, so OpenBLAS's own threads buy almost
nothing, and an OpenBLAS worker spins on the second core after each GEMM.
Coarse items on Python threads scale instead: numpy releases the GIL
inside its kernels. Each numpy call in an item must run long enough that
the GIL handoffs between calls do not dominate. A Section pins numpy's
bundled OpenBLAS to one thread (found through ctypes, as threadpoolctl
does) the first time it maps two or more items, and restores the old
count when it closes. Nothing happens at import, no thread starts on one
CPU or under a tracer (untraced), and without a known OpenBLAS the items
run one after the other.

A Section also tunes glibc's malloc (mallopt, found through ctypes the same
way) so that activations land on pages that are already resident: a
training step or a scoring chunk frees and reallocates the same megabytes
over and over, and each page handed back to the kernel faults in again.
Inside the section a trim keeps SECTION_TOP_PAD bytes of freed heap, and
closing it sets glibc's default pad back. Entering also sets two
thresholds for the rest of the process, since glibc cannot read them back:
blocks below SECTION_MMAP_THRESHOLD come from the heap arenas (of both
threads) instead of an mmap of their own, and a free trims an arena only
once its free top exceeds SECTION_TRIM_THRESHOLD. Any mallopt call stops
glibc from raising its mmap threshold as large blocks are freed
(mallopt(3)), so without the first setting the threshold would stay where
earlier frees happened to leave it. Where the C library has no mallopt,
nothing is set.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os
import threading
from concurrent import futures
from pathlib import Path

import numpy as np

from . import nn

MAX_WORKERS = 2

# mallopt(3) parameters. M_TOP_PAD is the heap a trim keeps and a heap
# growth adds on top; its documented default is 128 KiB. A free trims the
# top of a heap once it exceeds M_TRIM_THRESHOLD, and blocks of
# M_MMAP_THRESHOLD bytes or more get an mmap of their own.
_M_TRIM_THRESHOLD = -1
_M_TOP_PAD = -2
_M_MMAP_THRESHOLD = -3
_DEFAULT_TOP_PAD = 128 * 1024
SECTION_TOP_PAD = 64 * 1024 * 1024
# The largest mmap threshold glibc takes on 64-bit systems, and twice it
# for trimming: the pair glibc sets itself when a free raises its mmap
# threshold.
SECTION_MMAP_THRESHOLD = 32 * 1024 * 1024
SECTION_TRIM_THRESHOLD = 2 * SECTION_MMAP_THRESHOLD

# (set, get) thread-count symbols, newest OpenBLAS builds first.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


# A tracer that wraps psae's functions from outside (perfbench/layers.py
# wraps Tensor.backward among others) records spans on one stack, which
# overlapping threads would close out of order, and a forked process's
# spans never reach it; per-op times from overlapping work could not be
# attributed anyway. So map and process_map run every item on the caller
# while Tensor.backward is not this one.
_BACKWARD = nn.Tensor.backward


def untraced() -> bool:
    """True while no tracer has replaced Tensor.backward: work may overlap."""
    return nn.Tensor.backward is _BACKWARD


def worker_count() -> int:
    """Usable CPUs, capped at MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(MAX_WORKERS, cpus))


def thread_count(blas_found: bool) -> int:
    """Threads a Section.map overlaps its items on: worker_count(), or 1 traced or
    without a known OpenBLAS."""
    return worker_count() if blas_found and untraced() else 1


class OpenBLAS:
    """Thread-count controls of one loaded OpenBLAS library."""

    def __init__(self, set_threads, get_threads):
        self._set = set_threads
        self._get = get_threads

    def get_threads(self) -> int:
        return int(self._get())

    def set_threads(self, n: int) -> None:
        self._set(int(n))


def find_openblas() -> OpenBLAS | None:
    """numpy's bundled OpenBLAS (wheels ship it in numpy.libs or
    numpy/.dylibs), or None when none with a known symbol is found. Loading
    an already-loaded library returns the handle numpy itself uses."""
    package = Path(np.__file__).parent
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(folder.glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                continue
            for set_name, get_name in _OPENBLAS_SYMBOLS:
                set_threads = getattr(lib, set_name, None)
                get_threads = getattr(lib, get_name, None)
                if set_threads is not None and get_threads is not None:
                    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    return OpenBLAS(set_threads, get_threads)
    return None


def find_mallopt():
    """The C library's mallopt(param, value), or None where it has none."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):  # no handle on the running program here
        return None
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


class Section:
    """Context manager inside which map() may run items on two threads.

    Each setting goes onto one undo stack as it is made: the heap pad on
    entry, the BLAS pin at the first map of two or more items, and the
    worker thread at the first overlapping map (later maps reuse it: a new
    thread per map gets new malloc arenas and OpenBLAS buffers). Leaving,
    also on an exception, closes the stack: it joins the worker, restores
    the BLAS thread count and sets glibc's default pad back. A Section may
    be entered again once it has been left.
    """

    def __enter__(self) -> "Section":
        self._undo = contextlib.ExitStack()
        self._pinned: bool | None = None     # None until OpenBLAS is looked up
        self._pool: futures.ThreadPoolExecutor | None = None
        mallopt = find_mallopt()
        if mallopt is not None:
            mallopt(_M_TOP_PAD, SECTION_TOP_PAD)
            self._undo.callback(mallopt, _M_TOP_PAD, _DEFAULT_TOP_PAD)
            mallopt(_M_MMAP_THRESHOLD, SECTION_MMAP_THRESHOLD)
            mallopt(_M_TRIM_THRESHOLD, SECTION_TRIM_THRESHOLD)
        return self

    def __exit__(self, *exc) -> None:
        self._undo.close()

    def _pin_blas(self) -> bool:
        """True once OpenBLAS runs on one thread inside this section."""
        if self._pinned is None:
            blas = find_openblas()
            self._pinned = blas is not None
            if blas is not None:
                self._undo.callback(blas.set_threads, blas.get_threads())
                blas.set_threads(1)
        return self._pinned

    def map(self, fn, items) -> list:
        """[fn(item) for item in items], in item order.

        Two or more items always run with OpenBLAS on one thread, since its
        thread count can change its rounding: a map gives the same bits
        whether its items overlap or not. Item i runs on lane i mod lanes,
        lanes = min(thread_count(), len(items)), and each lane runs its
        items one after another, so a thread holds one item's work at a
        time. Lane 0 is the caller and the others are the section's worker
        threads; with one lane every item runs on the caller. Each lane
        runs in a copy of the caller's context, so numpy's errstate (a
        context variable since numpy 2) carries over, and the first
        exception in lane order is raised after every lane has ended.
        """
        items = list(items)
        lanes = min(thread_count(self._pin_blas()), len(items)) if len(items) > 1 else 1
        if lanes < 2:
            return [fn(item) for item in items]
        if self._pool is None:
            self._pool = self._undo.enter_context(futures.ThreadPoolExecutor(MAX_WORKERS - 1))
        results = [None] * len(items)

        def lane(w: int) -> None:
            for i in range(w, len(items), lanes):
                results[i] = fn(items[i])

        pending = [self._pool.submit(contextvars.copy_context().run, lane, w)
                   for w in range(1, lanes)]
        try:
            lane(0)
        finally:
            futures.wait(pending)
        for f in pending:
            f.result()
        return results


def process_map(fn, items: list) -> list:
    """[fn(item) for item in items], on worker_count() forked processes.

    The processes run only untraced, with two or more items and workers,
    the fork start method and no other thread in this process: a fork
    copies the calling thread alone, so a lock that another thread holds
    would stay held in the child. fork, not spawn, because each command
    makes a pool and a spawned worker imports numpy and psae again. fn and
    the items go to the workers by pickle, so fn is a module-level function
    or a partial of one. Results come in item order; the first item whose
    call raises raises here once the workers have ended, and the items not
    yet started are dropped. Otherwise fn runs here on each item in turn.
    """
    import multiprocessing  # here, so that importing psae does not load it
    workers = min(worker_count(), len(items))
    if (not untraced() or workers < 2 or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (8 * workers))))
