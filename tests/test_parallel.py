"""Two-thread sections: order, errors, numpy error state, BLAS and malloc settings."""

import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

from psae import nn, parallel
from helpers import concurrent_here


def call(task):
    return task()


def traced(monkeypatch):
    backward = nn.Tensor.backward
    monkeypatch.setattr(nn.Tensor, "backward", lambda self: backward(self))


def test_worker_count_is_capped():
    assert 1 <= parallel.worker_count() <= parallel.MAX_WORKERS


def test_map_keeps_task_order_and_uses_a_second_thread():
    with parallel.Section() as section:
        got = section.map(lambda name: (name, threading.current_thread()), "ab")
    assert [name for name, _ in got] == ["a", "b"]
    assert got[0][1] is threading.current_thread()
    assert (got[1][1] is not threading.current_thread()) == concurrent_here()


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_map_returns_results_in_item_order(n):
    with parallel.Section() as section:
        assert section.map(lambda i: i * i, range(n)) == [i * i for i in range(n)]


@pytest.mark.parametrize("n", [3, 5])
def test_item_i_runs_on_lane_i_mod_two(n):
    if not concurrent_here():
        pytest.skip("runs serially here")
    with parallel.Section() as section:
        threads = section.map(lambda i: threading.current_thread(), range(n))
    assert threads[0] is threading.current_thread()
    assert threads[1] is not threading.current_thread()
    assert all(thread is threads[i % 2] for i, thread in enumerate(threads))


@pytest.mark.parametrize("one_cpu", [True, False])
def test_map_runs_on_the_caller_on_one_cpu_or_when_not_concurrent(monkeypatch, one_cpu):
    if one_cpu:
        monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    else:
        traced(monkeypatch)                 # under a tracer nothing overlaps
    me = threading.current_thread()
    with parallel.Section() as section:
        got = section.map(lambda i: threading.current_thread(), range(3))
    assert got == [me, me, me]


def test_worker_thread_is_reused_and_joined_on_exit():
    if not concurrent_here():
        pytest.skip("runs serially here")
    with parallel.Section() as section:
        workers = {section.map(call, [lambda: None, threading.current_thread])[1]
                   for _ in range(3)}
    (worker,) = workers
    assert worker is not threading.current_thread()
    assert not worker.is_alive()


@pytest.mark.parametrize("failing", [0, 1])
def test_first_exception_is_raised_after_both_tasks_end(failing):
    finished = []

    def fails():
        raise KeyError(f"task {failing}")

    def slow():
        time.sleep(0.05)
        finished.append(True)

    tasks = [slow, slow]
    tasks[failing] = fails
    with parallel.Section() as section:
        with pytest.raises(KeyError, match=f"task {failing}"):
            section.map(call, tasks)
        # serially, a failing first item stops the map before the second runs
        assert finished == ([] if failing == 0 and not concurrent_here() else [True])


def test_workers_run_under_the_callers_numpy_error_state():
    def overflow():
        return np.float32(3e38) * np.float32(10)

    with parallel.Section() as section:
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                section.map(call, [lambda: None, overflow])
        with np.errstate(over="ignore"):
            assert section.map(call, [lambda: None, overflow])[1] == np.inf


def test_section_pins_blas_lazily_and_restores_it_on_error(monkeypatch):
    blas = parallel.find_openblas()
    if blas is None:
        pytest.skip("no OpenBLAS with a known thread-count symbol")
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)   # pinned also when serial
    before = blas.get_threads()
    inside = []
    with pytest.raises(ValueError):
        with parallel.Section() as section:
            section.map(call, [lambda: inside.append(blas.get_threads())])  # one item: no pin
            section.map(call, [lambda: None, lambda: inside.append(blas.get_threads())])
            raise ValueError("leave the section")
    assert inside == [before, 1]
    assert blas.get_threads() == before


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("serial", [False, True])
def test_blas_is_pinned_exactly_for_two_or_more_items(monkeypatch, n, serial):
    blas = parallel.find_openblas()
    if blas is None:
        pytest.skip("no OpenBLAS with a known thread-count symbol")
    if serial:
        traced(monkeypatch)
    before = blas.get_threads()
    with parallel.Section() as section:
        inside = section.map(lambda i: blas.get_threads(), range(n))
    assert inside == [1 if n >= 2 else before] * n
    assert blas.get_threads() == before


def process_id(item):
    return os.getpid()


def test_process_map_runs_here_under_a_tracer(monkeypatch):
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    traced(monkeypatch)
    assert parallel.process_map(process_id, range(4)) == [os.getpid()] * 4


def test_section_pads_the_heap_and_restores_glibcs_default_also_on_error(monkeypatch):
    calls = []
    monkeypatch.setattr(parallel, "find_mallopt",
                        lambda: lambda param, value: calls.append((param, value)))
    pad = (parallel._M_TOP_PAD, parallel.SECTION_TOP_PAD)
    # set for the rest of the process: glibc cannot read them back
    thresholds = [(parallel._M_MMAP_THRESHOLD, parallel.SECTION_MMAP_THRESHOLD),
                  (parallel._M_TRIM_THRESHOLD, parallel.SECTION_TRIM_THRESHOLD)]
    default = (parallel._M_TOP_PAD, 128 << 10)      # glibc's documented default
    with parallel.Section():
        assert calls == [pad, *thresholds]
    assert calls == [pad, *thresholds, default]
    calls.clear()
    with pytest.raises(ValueError):
        with parallel.Section():
            raise ValueError("leave the section")
    assert calls == [pad, *thresholds, default]


def test_a_section_entered_twice_makes_and_undoes_its_settings_each_time(monkeypatch):
    calls = []
    monkeypatch.setattr(parallel, "find_mallopt",
                        lambda: lambda param, value: calls.append((param, value)))
    settings = [(parallel._M_TOP_PAD, parallel.SECTION_TOP_PAD),
                (parallel._M_MMAP_THRESHOLD, parallel.SECTION_MMAP_THRESHOLD),
                (parallel._M_TRIM_THRESHOLD, parallel.SECTION_TRIM_THRESHOLD)]
    default = (parallel._M_TOP_PAD, 128 << 10)
    blas = parallel.find_openblas()
    before = blas and blas.get_threads()
    section = parallel.Section()
    workers = []
    for _ in range(2):
        calls.clear()
        with section:
            got = section.map(lambda i: (threading.current_thread(), blas and blas.get_threads()),
                              range(2))
            assert calls == settings
        assert calls == [*settings, default]
        assert [threads for _, threads in got] == [blas and 1] * 2
        assert (blas and blas.get_threads()) == before
        worker = got[1][0]
        assert worker is threading.current_thread() or not worker.is_alive()
        workers.append(worker)
    # each use starts its own worker thread where items overlap
    assert (workers[0] is not workers[1]) == concurrent_here()


FAULT_ROUNDS = """
import resource
import numpy as np
from psae import parallel

with parallel.Section():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(100):
        block = np.ones(1 << 20, np.float32)     # 4 MiB, every page written
        del block
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_section_reuses_freed_pages_in_a_fresh_process():
    # A fresh interpreter: no earlier free can have raised glibc's own
    # mmap threshold. With each 4 MiB block mmapped anew, 100 rounds fault
    # about 100 x 1024 pages in; reused, about one round's worth.
    if parallel.find_mallopt() is None:
        pytest.skip("no mallopt in this C library")
    src = str(Path(parallel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", FAULT_ROUNDS], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert int(done.stdout) < 5000


def test_section_sets_nothing_without_mallopt(monkeypatch):
    # a C library without the symbol: any call through it would raise
    monkeypatch.setattr(parallel.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert parallel.find_mallopt() is None
    with parallel.Section() as section:
        assert section.map(call, [lambda: 1]) == [1]
