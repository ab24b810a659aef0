"""Self-test of the benchmark at a tiny size (one map, 64x64 renders).

    python3 perfbench/selftest.py

Checks that the fixture specs match tests/conftest.py, that every workload
prints the metric set BENCHMARK.json declares with its units, that traced
and untraced passes give identical outputs, that two traced runs give
identical counts, that no tracer wrapper outlives its run, that a map's
known defects are checked outside the timed stream, and that the
benchmark refuses to run without the package sources.  Exits 1 on the
first failed check.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import spans

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def conftest_maps():
    """make_henon factor lists of the fixture maps in tests/conftest.py."""
    tree = ast.parse((run.ROOT / "tests" / "conftest.py").read_text())
    out = {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "make_henon"
            ):
                out[fn.name] = ast.literal_eval(node.args[0])
    return out


def check_fixtures():
    specs = json.loads((run.HERE / "fixtures.json").read_text())["maps"]
    ref = conftest_maps()
    for name, f in specs.items():
        got = [
            ([complex(*c) for c in fac["p"]], complex(*fac["a"]))
            for fac in f["spec"]["factors"]
        ]
        want = [([complex(c) for c in p], complex(a)) for p, a in ref.get(name, [])]
        check(got == want, f"fixture {name} matches tests/conftest.py")


def check_line(res, names):
    line = {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": run._metrics(res),
    }
    json.loads(json.dumps(line, allow_nan=False))
    check(isinstance(line["attempted"], int) and line["attempted"] >= 1, "attempted >= 1")
    check(isinstance(line["failed"], int), "failed is an int")
    check(line["correct"] and line["failed"] == 0, f"{res['workload']}: no op failed")
    declared = {m["name"]: m["unit"] for m in names}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    check(got == declared, f"{res['workload']} trace={res['trace']}: metric names and units match BENCHMARK.json")
    check(
        all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]) for v in line["metrics"].values()),
        "metric values are finite numbers",
    )
    return line


def check_workload(name):
    plain = run.run_workload(name, 7, 0, 0, run.TINY)
    check_line(plain, BENCH["end_to_end"])
    traced = [run.run_workload(name, 7, 0, 1, run.TINY) for _ in range(2)]
    for res in traced:
        check_line(res, BENCH["per_layer"])
        check(res["outputs"] == plain["outputs"], f"{name}: traced outputs equal untraced outputs")
    check(not spans.installed_wrappers(), f"{name}: no tracer wrapper left installed")
    counts = [
        {k: v for k, v in res["layers"].items() if not k.endswith(("_s", "_frac"))}
        for res in traced
    ]
    check(counts[0] == counts[1], f"{name}: counts repeat across traced runs")
    return traced[0]["layers"]


def check_known_defects():
    """Known defects leave the timed stream and are still checked."""
    scale = dataclasses.replace(run.TINY, maps=("htwo",))
    res = run.run_workload("query", 7, 0, 0, scale)
    known = set(json.loads((run.HERE / "fixtures.json").read_text())["maps"]["htwo"]["known_defects"])
    check({check for _, check in res["known"]} == known, "query: every known htwo defect is checked untimed")
    check(not known & {check for _, check in res["worst"]}, "query: no known defect is in the timed stream")
    check_line(res, BENCH["end_to_end"])


def check_refuses_without_sources():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        root = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", root)
        shutil.copytree(run.HERE, root / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "cover", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=180,
        )
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    check(proc.returncode != 0 and not last.startswith("{"), "refuses to run without src/henoncover")


def main():
    check_fixtures()
    check_refuses_without_sources()
    layers = {name: check_workload(name) for name in run.WORKLOADS}
    check_known_defects()
    check(layers["render"]["boettcher.dphi_dy_vec.calls"] == 0, "render: no Cauchy derivative calls")
    check(layers["cover"]["green.green_plus_grid.calls"] == 0, "cover: no grid kernel calls")
    selfs = {k: v for k, v in layers["cover"].items() if k.endswith(".self_s")}
    check(max(selfs, key=selfs.get) == "boettcher.phi_series.self_s", "cover: phi_series has the largest self time")
    print("selftest passed")


if __name__ == "__main__":
    main()
