"""The full `verify` suite on every fixture map, and the record contract.

Every check is timed and recorded by one decorator, which turns a
HenonError raised inside the check into a failed record (defect inf, note
"ExceptionName: message"); the suite therefore returns all 19 records,
always in the order pinned here, even where a check raises: the d >= 8
charts overflow in the deck relations.  A check that samples nothing fails
too, and its note counts what it sampled.

href passes every check.  The other two fixtures fail known checks: deck
additivity on htwo and hcubic, where the shift cancels monomials far
larger than the result in double precision, and the htwo covering
projection, whose worst sample needs three model steps to absorb: at the
absorbed point a 1e-15 relative perturbation moves the projected point by
about 1e-3, so no double-precision evaluation reaches the tolerance.  The
test pins the exact failing set, so a fix or a new failure both show up;
run with -s to see every defect.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from henoncover import make_henon
from henoncover.verification import (
    check_boettcher,
    check_green_basics,
    check_iterate_roundtrip,
    print_results,
    run_suite,
)

from strategies import henon_maps, spec_map, unit_box_maps

KNOWN_FAILURES = {
    "href": set(),
    "htwo": {"cover.deck_additivity", "cover.projection"},
    "hcubic": {"cover.deck_additivity"},
}
BOUNDED_SAMPLES = {"href": 15, "htwo": 34, "hcubic": 40}

SUITE_NAMES = [
    "core.inverse_roundtrip",
    "core.iterate_roundtrip",
    "filtration.invariance",
    "green.functorial",
    "green.functorial_minus",
    "green.zero_on_bounded",
    "boettcher.semiconjugacy",
    "symmetry.d0",
    "symmetry.group_structure",
    "shortc2.equivariance",
    "shortc2.sublevel_band",
    "cover.q_structure",
    "cover.semiconjugacy",
    "cover.deck_relation",
    "cover.deck_additivity",
    "cover.projection",
    "cover.series_identity",
    "shortc2.modulus_law",
    "cli.render_determinism",
]


@pytest.mark.parametrize("name", sorted(KNOWN_FAILURES))
def test_full_suite_fails_only_known_checks(name, request):
    results = run_suite(request.getfixturevalue(name), level="full")
    print(f"\n{name}:")
    print_results(results)
    assert [r["name"] for r in results] == SUITE_NAMES
    assert {r["name"] for r in results if not r["passed"]} == KNOWN_FAILURES[name]
    notes = {r["name"]: r["note"] for r in results}
    assert notes["core.iterate_roundtrip"] == "50 orbits"
    assert notes["green.zero_on_bounded"] == f"{BOUNDED_SAMPLES[name]} bounded samples"


@pytest.mark.parametrize(
    "H",
    [unit_box_maps()[5], spec_map("three")],
    ids=["unit-box-5", "quadratic-cubed"],
)
def test_full_suite_records_an_overflowing_deck_check(H):
    # at d >= 8 a surviving deck monomial passes 1e150 on |zeta| <= 2.5
    assert H.d >= 8
    results = run_suite(H, level="full")
    assert [r["name"] for r in results] == SUITE_NAMES
    deck = results[SUITE_NAMES.index("cover.deck_relation")]
    assert not deck["passed"] and deck["defect"] == np.inf
    assert deck["note"].startswith("Overflow: ")
    assert deck["seconds"] > 0.0


def test_checks_that_sample_nothing_fail():
    # no orbit of the sampled box stays bounded, so neither check has a sample
    H = make_henon([([100, 0, 1], 1.0)])
    roundtrip, zero = check_iterate_roundtrip(H), check_green_basics(H)
    assert roundtrip["note"] == "0 orbits" and zero["note"] == "0 bounded samples"
    for record in (roundtrip, zero):
        assert not record["passed"] and record["defect"] == np.inf


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(henon_maps)
def test_boettcher_semiconjugacy_holds_on_random_maps(H):
    # phi(H(z)) = phi(z)^d and log|phi| = G+ on W+_M are exact identities
    # of every map, so the check's verdict is a planted answer
    record = check_boettcher(H, n=20)
    assert record["passed"], record


def test_fast_suite_records_a_map_beyond_double_range():
    # y^3 + 1e110 y^2: R is 1e110, so H(z) of a region point overflows, the
    # normal form's tau^3 is 3.7e328 and every equivariance sample is
    # ambiguous; each check still returns its record, although the test
    # configuration makes a RuntimeWarning an error
    H = spec_map("huge")
    results = run_suite(H, level="fast")
    assert [r["name"] for r in results] == SUITE_NAMES[:11]
    notes = {r["name"]: r["note"] for r in results if not r["passed"]}
    assert notes["boettcher.semiconjugacy"].startswith("NonFinite: ")
    assert notes["symmetry.group_structure"].startswith("ChainOverflow: ")
    assert notes["shortc2.equivariance"] == "0 of 50 points unambiguous in 2500 draws"


def test_full_suite_records_the_chart_build_of_a_map_beyond_double_range():
    # Q_0 of y^3 + 1e110 y^2 is of order 1e330: the build fails as a record
    results = run_suite(spec_map("huge"), level="full")
    assert [r["name"] for r in results] == SUITE_NAMES[:11] + ["cover.build"]
    assert results[-1]["note"] == "Overflow: a coefficient of Q exceeds the double range"
