"""How each seeded verify check's verdict depends on its seed, on the fixtures.

    python3 tests/seed_sweep.py [--start 40] [--count 20] [--maps href htwo hcubic]

For each fixture map (``perfbench/fixtures.json``, the maps of
``tests/conftest.py``) and each check of ``henoncover.verification`` that
takes a ``seed``, runs the check at its default sample sizes over seeds
start ... start + count - 1 and prints how many passed and the median
defect.  Checks that take a chart share one chart per map.  pytest does
not collect this file (its name does not match ``test_*.py``).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from henoncover import build_chart, cli, verification  # noqa: E402


def seeded_checks():
    """(name, function, takes a chart) for each public check with a seed argument."""
    for name, fn in vars(verification).items():
        if not name.startswith("check_") or not callable(fn):
            continue
        params = inspect.signature(fn).parameters
        if "seed" in params:
            yield name, fn, next(iter(params)) == "chart"


def sweep(H, seeds):
    """(record name, tol, passes, runs, median defect) per seeded check on H."""
    chart = None
    for _, fn, wants_chart in seeded_checks():
        if wants_chart and chart is None:
            chart = build_chart(H)
        records = [fn(chart if wants_chart else H, seed=s) for s in seeds]
        passes = sum(r["passed"] for r in records)
        median = float(np.median([r["defect"] for r in records]))
        yield records[0]["name"], records[0]["tol"], passes, len(records), median


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--start", type=int, default=40)
    ap.add_argument("--count", type=int, default=20)
    ap.add_argument("--maps", nargs="*", default=("href", "htwo", "hcubic"))
    args = ap.parse_args(argv)

    specs = json.loads((ROOT / "perfbench" / "fixtures.json").read_text())["maps"]
    seeds = range(args.start, args.start + args.count)
    print(f"# seeds {seeds.start}..{seeds.stop - 1}")
    for name in args.maps:
        H = cli.parse_spec(specs[name]["spec"]).henon
        for check, tol, passes, runs, median in sweep(H, seeds):
            print(f"{name:<7} {check:<26} {passes:>2} of {runs}  median defect {median:.3e}  tol {tol:.1e}")


if __name__ == "__main__":
    main()
