"""The full `verify` suite on every fixture map.

href passes every check.  The other two fixtures fail known checks: deck
additivity on htwo and hcubic, where the shift cancels monomials far
larger than the result in double precision, and the htwo covering
projection, whose worst sample needs three model steps to absorb: at the
absorbed point a 1e-15 relative perturbation moves the projected point by
about 1e-3, so no double-precision evaluation reaches the tolerance.  The
test pins the exact failing set, so a fix or a new failure both show up;
run with -s to see every defect.
"""

import pytest

from henoncover.verification import print_results, run_suite

KNOWN_FAILURES = {
    "href": set(),
    "htwo": {"cover.deck_additivity", "cover.projection"},
    "hcubic": {"cover.deck_additivity"},
}


@pytest.mark.parametrize("name", sorted(KNOWN_FAILURES))
def test_full_suite_fails_only_known_checks(name, request):
    results = run_suite(request.getfixturevalue(name), level="full")
    print(f"\n{name}:")
    print_results(results)
    assert len(results) == 19
    assert {r["name"] for r in results if not r["passed"]} == KNOWN_FAILURES[name]
