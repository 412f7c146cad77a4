import itertools
import json
import random

import pytest

import pmkit as pk
from pmkit import errors
from pmkit.minors import ClassSpec
from pmkit.natural import multiset_rank
from pmkit.serialize import (
    catalog_to_dict,
    dumps_catalog,
    dumps_polymatroid,
    grid_csv,
    loads_polymatroid,
    points_csv,
    polymatroid_from_dict,
    polymatroid_to_dict,
)

from test_polytope import property_tables


def test_round_trip_random_tables(random_tables):
    for rho in random_tables(25):
        assert loads_polymatroid(dumps_polymatroid(rho)) == rho


def test_round_trip_empty():
    rho = pk.RankTable((), 2, (0,))
    assert loads_polymatroid(dumps_polymatroid(rho)) == rho


def test_dict_shape(example_rho):
    data = polymatroid_to_dict(example_rho)
    assert data == {
        "format": 1,
        "ground": ["e", "f"],
        "k": 3,
        "ranks": {"": 0, "e": 3, "f": 2, "e,f": 4},
    }


def test_missing_format_defaults_to_one(example_rho):
    data = polymatroid_to_dict(example_rho)
    del data["format"]
    assert polymatroid_from_dict(data) == example_rho


def test_rejections(example_rho):
    good = polymatroid_to_dict(example_rho)

    bad = dict(good)
    bad["format"] = 2
    with pytest.raises(errors.MalformedInput):
        polymatroid_from_dict(bad)

    bad = dict(good)
    del bad["k"]
    with pytest.raises(errors.MalformedInput):
        polymatroid_from_dict(bad)

    bad = dict(good)
    bad["ranks"] = {"": 0, "e": 3, "f": 2}  # missing subset key
    with pytest.raises(errors.MalformedInput):
        polymatroid_from_dict(bad)

    bad = dict(good)
    bad["ranks"] = dict(good["ranks"], **{"f,e": 4})  # wrong key order
    with pytest.raises(errors.MalformedInput):
        polymatroid_from_dict(bad)

    bad = dict(good)
    bad["ranks"] = dict(good["ranks"], **{"e,f": 4.0})  # non-integer
    with pytest.raises(errors.MalformedInput):
        polymatroid_from_dict(bad)

    bad = dict(good)
    bad["ranks"] = dict(good["ranks"], **{"e,f": True})  # bool is not a rank
    with pytest.raises(errors.MalformedInput):
        polymatroid_from_dict(bad)

    with pytest.raises(errors.MalformedInput):
        loads_polymatroid("{not json")

    with pytest.raises(errors.MalformedInput):
        polymatroid_from_dict([1, 2, 3])


def test_axiom_errors_surface_through_parsing():
    with pytest.raises(errors.NotSubmodular):
        loads_polymatroid(json.dumps({
            "ground": ["e", "f"], "k": 3,
            "ranks": {"": 0, "e": 1, "f": 1, "e,f": 3}}))


def test_catalog_deterministic():
    spec = ClassSpec(2, 4, 4)
    records = pk.search_excluded(spec, max_elements=2)
    first = dumps_catalog(spec, records, 2, 1000000)
    second = dumps_catalog(spec, pk.search_excluded(spec, max_elements=2),
                           2, 1000000)
    assert first == second
    data = json.loads(first)
    assert data["class"] == {"a": 2, "b": 4, "k": 4}
    assert len(data["records"]) == 6
    assert "generated_at" not in data


def test_catalog_stamp_included():
    spec = ClassSpec(2, 4, 4)
    data = catalog_to_dict(spec, [], 2, 10, stamp="2026-01-01T00:00:00+00:00")
    assert data["generated_at"] == "2026-01-01T00:00:00+00:00"


def test_grid_csv_golden(example_rho):
    lines = grid_csv(example_rho).splitlines()
    assert lines[0] == "e,f,rank"
    assert lines[1] == "0,0,0"
    assert lines[4] == "0,3,2"
    assert lines[-1] == "3,3,4"
    assert len(lines) == 17


def test_grid_csv_rows_are_multiset_ranks():
    rng = random.Random(2718)
    for n, k in ((0, 2), (1, 4), (2, 3), (3, 2), (4, 2), (3, 1)):
        labels = ("e", "fg", "h", "ij")[:n]
        rho = pk.random_rank_table(labels, k, rng)
        header, *rows = grid_csv(rho).splitlines()
        assert header == ",".join(labels + ("rank",))
        points = list(itertools.product(range(k + 1), repeat=n))
        assert len(rows) == len(points)
        for row, counts in zip(rows, points):
            *coords, value = map(int, row.split(","))
            assert tuple(coords) == counts
            assert value == multiset_rank(rho, counts)


def test_round_trip_is_byte_identical():
    rng = random.Random(3141)
    for labels in (("e", "f", "g"), ("alpha", "b2", "c_3", "\u03b3", "e f")):
        for k in (1, 3):
            rho = pk.random_rank_table(labels, k, rng)
            text = dumps_polymatroid(rho)
            back = loads_polymatroid(text)
            assert back == rho
            assert dumps_polymatroid(back) == text
            assert json.loads(text)["ranks"] == {
                pk.core.subset_name(labels, mask): value
                for mask, value in enumerate(rho.ranks)}


def test_dumps_is_the_indented_json_dumps():
    # dumps_polymatroid writes the json.dumps(indent=2) text by hand
    tables = property_tables() + [
        pk.RankTable((), 2, (0,)),
        pk.RankTable(("\u03b3", 'q"\\', "\u2603\t"), 1, (0, 1, 1, 1, 1, 1, 1, 1))]
    for rho in tables:
        expected = json.dumps(polymatroid_to_dict(rho), indent=2) + "\n"
        assert dumps_polymatroid(rho) == expected


def test_points_csv(example_rho):
    text = points_csv(example_rho.labels, [(3, 1), (2, 2)])
    assert text == "e,f\n3,1\n2,2\n"
