"""Float-cent screening: what the anytime searches rank on.

Three contracts:

* **Pinned selections.**  Beam and local search rank their move
  neighbourhoods on ``SelectionProblem.screener()``; the subsets they
  end on, the exact evaluations they spend and the bills they report
  are pinned here on two generated lattices, so a change to the screen
  that reorders any move shows up as a changed solve.
* **Screened hours are priced hours.**  A screen's hours come off the
  same row-min backend exact pricing uses, so they equal
  ``evaluate(s).processing_hours`` bit for bit, on either backend.
* **Screened cents are the exact bill, in float.**  The price book is
  converted to float cents without rounding any rate to whole cents,
  so a screen sits within float error of the Decimal bill.
"""

from __future__ import annotations

import random

import pytest

from repro.compat import HAVE_NUMPY
from repro.cube import generate_lattice_inputs
from repro.kernel import NumpyBackend, PurePythonBackend
from repro.kernel import world as kernel_world
from repro.optimizer import SelectionProblem, mv1, mv3, select_views

LATTICES = {
    "100-views": dict(n_views=100, seed=3, target_gb=100.0),
    "1000-views": dict(n_views=1_000, seed=0, target_gb=1_000.0),
}

#: (lattice, scenario, algorithm) -> (views, calls, priced, total cost).
PINNED = {
    ("100-views", "mv1", "beam"): (
        ("V1", "V16", "V20", "V31", "V39", "V56", "V59", "V6", "V62",
         "V65", "V68", "V7", "V9", "V92", "V96"),
        218, 217, "72587.6930035551915820",
    ),
    ("100-views", "mv1", "local"): (
        ("V1", "V13", "V16", "V20", "V3", "V31", "V36", "V39", "V42",
         "V56", "V59", "V6", "V62", "V65", "V68", "V7", "V9", "V92",
         "V96"),
        41, 40, "72607.6932846382511240",
    ),
    ("100-views", "mv3", "beam"): (
        ("V31", "V39", "V56", "V59", "V62", "V65", "V68", "V9", "V96"),
        146, 145, "72435.1796519549597740",
    ),
    ("100-views", "mv3", "local"): (
        ("V31", "V39", "V56", "V59", "V62", "V65", "V68", "V9", "V96"),
        92, 91, "72435.1796519549597740",
    ),
    ("1000-views", "mv1", "beam"): (
        ("V105", "V182", "V262", "V331", "V348", "V407", "V465", "V467",
         "V653", "V66", "V676", "V697", "V814", "V825", "V83", "V858",
         "V891", "V925", "V944", "V994"),
        241, 240, "269332.6623104920416250",
    ),
    ("1000-views", "mv1", "local"): (
        ("V105", "V120", "V14", "V180", "V182", "V202", "V225", "V262",
         "V294", "V302", "V320", "V331", "V334", "V336", "V348", "V397",
         "V407", "V465", "V467", "V507", "V535", "V574", "V653", "V66",
         "V676", "V691", "V697", "V710", "V759", "V814", "V825", "V83",
         "V858", "V891", "V918", "V925", "V944", "V994", "V998"),
        98, 97, "281869.084924749966250",
    ),
    ("1000-views", "mv3", "beam"): (
        ("V105", "V262", "V331", "V348", "V467", "V66", "V814", "V825",
         "V858", "V994"),
        170, 169, "263448.70546450879718750",
    ),
    ("1000-views", "mv3", "local"): (
        ("V105", "V262", "V331", "V348", "V467", "V66", "V814", "V825",
         "V858", "V994"),
        71, 70, "263448.70546450879718750",
    ),
}


@pytest.fixture(scope="module")
def lattices():
    return {name: generate_lattice_inputs(**kw) for name, kw in LATTICES.items()}


@pytest.mark.parametrize(
    "lattice, scenario, algorithm",
    sorted(PINNED),
    ids=["-".join(key) for key in sorted(PINNED)],
)
def test_search_selections_are_pinned(lattices, lattice, scenario, algorithm):
    inputs = lattices[lattice].inputs
    if scenario == "mv1":
        baseline = SelectionProblem(inputs).baseline()
        chosen = mv1(baseline.total_cost * 2)
    else:
        chosen = mv3(0.5)
    problem = SelectionProblem(inputs)
    result = select_views(problem, chosen, algorithm)
    views, calls, priced, total = PINNED[lattice, scenario, algorithm]
    assert tuple(sorted(result.outcome.subset)) == views
    assert (problem.stats.calls, problem.stats.priced) == (calls, priced)
    assert str(result.outcome.total_cost.amount) == total


def _subsets(world, rng):
    """The baseline, every singleton and five random subsets."""
    names = [c.name for c in world.candidates]
    subsets = [frozenset()] + [frozenset({n}) for n in names]
    for _ in range(5):
        k = rng.randint(0, len(names))
        subsets.append(frozenset(rng.sample(names, k)))
    return subsets


BACKENDS = [PurePythonBackend] + ([NumpyBackend] if HAVE_NUMPY else [])


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_screened_hours_are_priced_hours(
    backend, random_world_factory, monkeypatch
):
    monkeypatch.setattr(kernel_world, "make_backend", backend)
    for seed in range(300):
        world = random_world_factory(seed)
        problem = SelectionProblem(world.inputs)
        screener = problem.screener()
        assert problem._kernel_world.backend_name == backend.name
        for subset in _subsets(world, random.Random(seed)):
            hours = screener.screen(subset)[0]
            assert hours == problem.evaluate(subset).processing_hours, (seed, subset)


def test_screened_cents_are_the_exact_bill(random_world_factory):
    """No rate is rounded to whole cents on its way to the screen."""
    checked = 0
    misses = []
    for seed in range(300):
        world = random_world_factory(seed)
        problem = SelectionProblem(world.inputs)
        screener = problem.screener()
        assert screener is not None
        for subset in _subsets(world, random.Random(seed)):
            cents = screener.screen(subset)[1]
            exact = float(problem.evaluate(subset).total_cost.amount * 100)
            checked += 1
            if abs(cents - exact) > 1e-9 * max(1.0, exact):
                misses.append((seed, sorted(subset), cents, exact))
    assert checked > 3_000
    assert not misses, f"{len(misses)} of {checked} screens off the bill: {misses[:3]}"
