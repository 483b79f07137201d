"""Shared helpers for the benchmark/experiment harness.

Each ``test_bench_*.py`` file regenerates one experiment (numbered in its
docstring; the README's *Paper mapping* names the paper artefacts): it
measures runtime with pytest-benchmark, asserts the paper's *shape* claims
(who wins, by roughly what factor, where the trend goes), and prints the
claimed-vs-measured rows.  Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_table


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2014)


@pytest.fixture
def emit():
    """Print an experiment table (shown with -s; kept in captured output)."""

    def _emit(title: str, header: list[str], rows: list[list[object]]) -> None:
        print()
        print(format_table(title, header, rows))

    return _emit
