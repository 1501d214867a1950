"""Two-thread sections: order, errors, numpy error state, BLAS restore."""

import threading
import time

import numpy as np
import pytest

from psae import parallel


def concurrent_here() -> bool:
    return parallel.worker_count() > 1 and parallel.find_openblas() is not None


def test_worker_count_is_capped():
    assert 1 <= parallel.worker_count() <= parallel.MAX_WORKERS


def test_map_keeps_task_order_and_uses_a_second_thread():
    with parallel.Section() as section:
        got = section.map([lambda: ("a", threading.current_thread()),
                           lambda: ("b", threading.current_thread())])
    assert [name for name, _ in got] == ["a", "b"]
    assert got[0][1] is threading.current_thread()
    assert (got[1][1] is not threading.current_thread()) == concurrent_here()


@pytest.mark.parametrize("one_cpu", [True, False])
def test_map_runs_on_the_caller_on_one_cpu_or_when_not_concurrent(monkeypatch, one_cpu):
    if one_cpu:
        monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    me = threading.current_thread()
    with parallel.Section() as section:
        got = section.map([threading.current_thread] * 2, concurrent=one_cpu)
    assert got == [me, me]


def test_worker_thread_is_reused_and_joined_on_exit():
    if not concurrent_here():
        pytest.skip("runs serially here")
    with parallel.Section() as section:
        workers = {section.map([lambda: None, threading.current_thread])[1] for _ in range(3)}
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
            section.map(tasks)
        assert finished == [True]


def test_workers_run_under_the_callers_numpy_error_state():
    def overflow():
        return np.float32(3e38) * np.float32(10)

    with parallel.Section() as section:
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                section.map([lambda: None, overflow])
        with np.errstate(over="ignore"):
            assert section.map([lambda: None, overflow])[1] == np.inf


def test_section_pins_blas_lazily_and_restores_it_on_error():
    blas = parallel.find_openblas()
    if blas is None:
        pytest.skip("no OpenBLAS with a known thread-count symbol")
    before = blas.get_threads()
    inside = []
    with pytest.raises(ValueError):
        with parallel.Section() as section:
            section.map([lambda: inside.append(blas.get_threads())])  # one task: no pin
            section.map([lambda: None, lambda: inside.append(blas.get_threads())],
                        concurrent=False)
            raise ValueError("leave the section")
    assert inside == [before, 1]
    assert blas.get_threads() == before
