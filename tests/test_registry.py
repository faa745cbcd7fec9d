from collections import Counter
from fractions import Fraction

import pytest

from ifsfourier import (
    check_duality,
    find_w_cycles,
    generate_lambda,
    get_system,
)
from ifsfourier.registry import EXAMPLES, example_names
from test_spectrum import assert_labels_match_cycle_basin


def test_registry_names_fixed():
    assert example_names() == [
        "cantor3", "cantor4", "lambda15", "lambda63",
        "planar-shear", "riesz3", "twindragon",
    ]


def test_affine_entries_build_and_check():
    for name, entry in EXAMPLES.items():
        if entry.kind != "affine":
            continue
        sys = entry.system()
        rep = check_duality(sys)
        assert rep.passes == (name != "cantor3"), name


def test_circle_entry_refuses_affine_view():
    with pytest.raises(ValueError):
        EXAMPLES["riesz3"].system()
    with pytest.raises(KeyError):
        get_system("not-there")


def test_golden_w_cycles():
    for name, entry in EXAMPLES.items():
        golden = entry.golden.get("w_cycle_point_sets")
        if golden is None:
            continue
        sys = entry.system()
        got = {frozenset(c.points) for c in find_w_cycles(sys, entry.p_max)}
        expected = {
            frozenset(tuple(Fraction(c) for c in pt) for pt in cyc) for cyc in golden
        }
        assert got == expected, name


def test_golden_spectrum_prefix():
    entry = EXAMPLES["cantor4"]
    sys = entry.system()
    spec = generate_lambda(sys, find_w_cycles(sys, entry.p_max), 3)
    got = sorted(int(e) for (e,) in spec.elements)
    assert got == entry.golden["spectrum_level3"]


def test_golden_twindragon_census():
    entry = EXAMPLES["twindragon"]
    sys = entry.system()
    counts = Counter(c.period for c in find_w_cycles(sys, entry.p_max))
    assert dict(counts) == entry.golden["w_cycle_period_counts"]
    q = entry.golden["lattice_denominator"]
    for c in find_w_cycles(sys, entry.p_max):
        for pt in c.points:
            assert all((v * q).denominator == 1 for v in pt)


def test_golden_basin_examples():
    entry = EXAMPLES["planar-shear"]
    sys = entry.system()
    cycles = find_w_cycles(sys, entry.p_max)
    starts, targets = zip(*entry.golden["basin_examples"].items())
    labels = assert_labels_match_cycle_basin(sys, cycles, starts)
    assert [tuple(int(v) for v in cycles[i].points[0]) for i in labels] == list(targets)
