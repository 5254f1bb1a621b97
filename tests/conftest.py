"""Fixtures shared by the test modules."""

import importlib

import pytest


@pytest.fixture
def lsap_calls(monkeypatch):
    """List that receives a copy of every matrix handed to the LSAP solver."""
    optimize = importlib.import_module("scipy.optimize")
    real = optimize.linear_sum_assignment
    calls = []

    def counted(C):
        calls.append(C.copy())
        return real(C)

    monkeypatch.setattr(optimize, "linear_sum_assignment", counted)
    return calls
