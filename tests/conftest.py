"""Fixtures shared by the test modules."""

import concurrent.futures

import pytest

from lospa import assignment


@pytest.fixture
def lsap_calls(monkeypatch):
    """List that receives a copy of every matrix handed to the LSAP solver."""
    lsap = assignment._lsap_module()
    real = lsap.linear_sum_assignment
    calls = []

    def counted(C):
        calls.append(C.copy())
        return real(C)

    monkeypatch.setattr(lsap, "linear_sum_assignment", counted)
    return calls


@pytest.fixture
def pools(monkeypatch):
    """List that receives the worker count of every thread pool constructed."""
    real = concurrent.futures.ThreadPoolExecutor
    made = []

    def counted(workers):
        made.append(workers)
        return real(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", counted)
    return made
