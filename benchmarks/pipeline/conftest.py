"""Pytest configuration for the pipeline benchmark's smoke test."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def bench_profile_artifact():
    """Overrides the experiments' session fixture of the same name, so
    the smoke test leaves ``benchmarks/results/`` alone."""
    yield
