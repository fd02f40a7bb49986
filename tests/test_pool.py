"""The two-thread drain shared by Adam and the predictability sweep."""
import threading
import time

import numpy as np
import pytest

from mppn import pool


def test_drain_calls_fn_once_per_item():
    items = list(range(500))
    seen, lock = [], threading.Lock()

    def record(item, tag):
        with lock:
            seen.append((item, tag, threading.current_thread().name))

    pool.drain(items, record, [("caller",), ("worker",)])
    assert sorted(item for item, _, _ in seen) == items
    caller = threading.current_thread().name
    for _, tag, name in seen:
        assert (tag, name == caller) in {("caller", True), ("worker", False)}
        assert name == caller or name.startswith("mppn-worker")


def test_drain_runs_a_single_item_on_the_caller(monkeypatch):
    def no_worker():
        raise AssertionError("a worker task was started")

    monkeypatch.setattr(pool, "_workers", no_worker)
    caller, seen = threading.current_thread(), []
    pool.drain([7], lambda item: seen.append((item, threading.current_thread())))
    pool.drain([], seen.append)
    assert seen == [(7, caller)]


def test_drain_takes_no_item_after_a_failed_one():
    calls, lock = [], threading.Lock()

    def fn(item):
        with lock:
            calls.append(item)
        if item == 5:  # by now both threads are taking items
            raise KeyError("item 5")
        time.sleep(0.005)

    with pytest.raises(KeyError, match="item 5"):
        pool.drain(list(range(100)), fn)
    # the other thread finishes the item it holds; all 100 would take 0.5 s
    assert len(calls) < 50, calls


def test_drain_runs_the_workers_items_under_the_callers_error_state():
    # numpy keeps its error state per thread: under errstate(all="raise") a
    # 0/0 the worker computes must raise, as it does on the caller, and under
    # the default state it must warn on both
    caller, worker_items = threading.current_thread(), []

    def fn(item):
        time.sleep(0.003)
        if threading.current_thread() is not caller:
            worker_items.append(item)
            np.zeros(1) / np.zeros(1)

    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        pool.drain(list(range(40)), fn)
    assert worker_items
    worker_items.clear()
    with pytest.warns(RuntimeWarning, match="invalid value"):
        pool.drain(list(range(40)), fn)
    assert worker_items
