"""Run a few independent tasks on up to two threads, with BLAS single-threaded,
and per-file work on up to two forked processes (process_map).

The model's GEMMs are 64 wide, so OpenBLAS's own threads buy almost
nothing, and an OpenBLAS worker spins on the second core after each GEMM.
Coarse tasks on Python threads scale instead: numpy releases the GIL
inside its kernels. Each numpy call in a concurrent task must run long
enough that the GIL handoffs between calls do not dominate. A Section
pins numpy's bundled OpenBLAS to one thread (found through ctypes, as
threadpoolctl does) the first time it runs two or more tasks, and
restores the old count when it closes. Nothing happens at import, no
thread starts on one CPU, and without a known OpenBLAS the tasks run one
after the other.

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

import contextvars
import ctypes
import os
import threading
from concurrent import futures
from pathlib import Path

import numpy as np

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


def worker_count() -> int:
    """Usable CPUs, capped at MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(MAX_WORKERS, cpus))


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
    """Context manager inside which map() may run tasks concurrently.

    The first map of two or more tasks looks up OpenBLAS and pins it to one
    thread, and the first concurrent map starts the worker thread that
    later maps reuse (a new thread per map gets new malloc arenas and
    OpenBLAS buffers). Entering sets glibc's heap pad to SECTION_TOP_PAD
    and its mmap and trim thresholds, the last two for good. Leaving the
    section joins the worker, restores the BLAS thread count and sets the
    pad back to glibc's default, also on an exception.
    """

    def __init__(self):
        self._blas: OpenBLAS | None = None
        self._saved_threads: int | None = None
        self._looked_up = False
        self._pool: futures.ThreadPoolExecutor | None = None
        self._mallopt = None

    def __enter__(self) -> "Section":
        self._mallopt = find_mallopt()
        if self._mallopt is not None:
            self._mallopt(_M_TOP_PAD, SECTION_TOP_PAD)
            self._mallopt(_M_MMAP_THRESHOLD, SECTION_MMAP_THRESHOLD)
            self._mallopt(_M_TRIM_THRESHOLD, SECTION_TRIM_THRESHOLD)
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._saved_threads is not None:
            self._blas.set_threads(self._saved_threads)
            self._saved_threads = None
        self._looked_up = False
        if self._mallopt is not None:
            self._mallopt(_M_TOP_PAD, _DEFAULT_TOP_PAD)
            self._mallopt = None

    def _pin_blas(self) -> bool:
        """True once OpenBLAS runs on one thread inside this section."""
        if not self._looked_up:
            self._looked_up = True
            self._blas = find_openblas()
            if self._blas is not None:
                self._saved_threads = self._blas.get_threads()
                self._blas.set_threads(1)
        return self._blas is not None

    def map(self, tasks, concurrent: bool = True) -> list:
        """Results of the no-argument callables in tasks, in order.

        Two or more tasks always run with OpenBLAS on one thread, since its
        thread count can change its rounding: a map gives the same bits
        whether its tasks overlap or not. With concurrent, at most
        worker_count() tasks and OpenBLAS found, tasks[1:] run on the
        section's worker threads while the caller runs tasks[0]. Each task
        runs in a copy of the caller's context, so numpy's errstate (a
        context variable since numpy 2) carries over, and the first
        exception in task order is raised after every task has ended.
        Otherwise the tasks run one after the other on the calling thread.
        """
        if len(tasks) < 2 or not (self._pin_blas() and concurrent
                                  and len(tasks) <= worker_count()):
            return [task() for task in tasks]
        if self._pool is None:
            self._pool = futures.ThreadPoolExecutor(MAX_WORKERS - 1)
        pending = [self._pool.submit(contextvars.copy_context().run, task)
                   for task in tasks[1:]]
        try:
            first = tasks[0]()
        finally:
            futures.wait(pending)
        return [first] + [f.result() for f in pending]


def process_map(fn, items: list, concurrent: bool) -> list:
    """[fn(item) for item in items], on worker_count() forked processes.

    The processes run only with concurrent, two or more items and workers,
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
    if (not concurrent or workers < 2 or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (8 * workers))))
