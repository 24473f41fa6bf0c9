"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.analysis.typeinfer import set_verify_plans
from repro.core.schema import DatabaseSchema
from repro.data.instance import Instance
from repro.data.interpretation import Interpretation
from repro.data.relation import Relation


@pytest.fixture(scope="session", autouse=True)
def _verify_plans_always_on():
    """Every translation in the test suite runs under the algebra plan
    sanitizer: a pipeline phase or simplifier rewrite that emits a
    structurally invalid plan fails the test that triggered it."""
    previous = set_verify_plans(True)
    yield
    set_verify_plans(previous)


@pytest.fixture
def small_instance() -> Instance:
    """The instance used throughout the paper-example tests."""
    return Instance({
        "R": Relation(1, [(1,), (2,), (3,)]),
        "S": Relation(1, [(2,), (9,), (1,)]),
        "R2": Relation(2, [(1, 8), (2, 15), (3, 3)]),
        "S2": Relation(2, [(5, 6), (2, 9)]),
        "R3": Relation(3, [(1, 2, 3), (4, 5, 6), (1, 5, 6)]),
        "P": Relation(2, [(1, 8), (3, 11), (2, 15)]),
        "T": Relation(1, [(9,), (3,)]),
        "W": Relation(3, [(1, 2, 5), (3, 9, 2)]),
    })


@pytest.fixture
def small_interp() -> Interpretation:
    """Deterministic small-range total functions."""
    return Interpretation({
        "f": lambda v: (_n(v) * 7 + 1) % 20,
        "g": lambda v: (_n(v) * 3 + 2) % 20,
        "h": lambda v: (_n(v) * 5 + 3) % 20,
        "k": lambda v: (_n(v) * 11 + 4) % 20,
        "plus1": lambda v: _n(v) + 1,
        "pair": lambda a, b: (_n(a) * 31 + _n(b)) % 50,
    }, name="test")


@pytest.fixture
def small_schema() -> DatabaseSchema:
    return DatabaseSchema.of(
        {"R": 1, "S": 1, "R2": 2, "S2": 2, "R3": 3, "P": 2, "T": 1, "W": 3},
        {"f": 1, "g": 1, "h": 1, "k": 1, "plus1": 1, "pair": 2},
    )


def _n(value) -> int:
    return value if isinstance(value, int) else hash(str(value)) % 97
