import itertools
import threading

import pytest

import pmkit as pk
from pmkit import errors
from pmkit.natural import MultisetRankGrid, multiset_rank


def test_max_elements_env_override(monkeypatch):
    monkeypatch.setenv("PMKIT_MAX_ELEMENTS", "2")
    with pytest.raises(errors.TooManyElements):
        pk.validate(("e", "f", "g"), 1, (0,) * 8)
    monkeypatch.setenv("PMKIT_MAX_ELEMENTS", "3")
    pk.validate(("e", "f", "g"), 1, tuple(min(bin(m).count("1"), 1) for m in range(8)))


def test_max_k_env_override(monkeypatch):
    monkeypatch.setenv("PMKIT_MAX_K", "4")
    with pytest.raises(errors.TooLarge):
        pk.validate(("e",), 5, (0, 2))
    monkeypatch.setenv("PMKIT_MAX_K", "5")
    pk.validate(("e",), 5, (0, 2))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("PMKIT_BUDGET", "10")
    with pytest.raises(errors.SearchBudgetExceeded):
        pk.search_excluded(pk.ClassSpec(2, 4, 4), max_elements=2)


def test_bad_env_value_falls_back(monkeypatch):
    monkeypatch.setenv("PMKIT_MAX_ELEMENTS", "banana")
    pk.validate(("e", "f"), 1, (0, 1, 1, 2))


def test_grid_concurrent_readers_agree(example_rho):
    grid = MultisetRankGrid(example_rho)
    reference = {c: multiset_rank(example_rho, c)
                 for c in itertools.product(range(4), repeat=2)}
    failures = []

    def reader():
        for counts, expected in reference.items():
            if grid.value_at(counts) != expected:
                failures.append(counts)

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not failures
