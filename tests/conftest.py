"""Fixtures shared by the test modules."""

import importlib

import pytest


@pytest.fixture
def lsap_calls(monkeypatch):
    """List that receives a copy of every matrix handed to the LSAP solver."""
    assignment = importlib.import_module("lospa.assignment")
    real = assignment.linear_sum_assignment
    calls = []

    def counted(C):
        calls.append(C.copy())
        return real(C)

    monkeypatch.setattr(assignment, "linear_sum_assignment", counted)
    return calls
