import json
import math
import warnings

import numpy as np
import pytest

from henoncover import (
    CoverPoint,
    DeckLabel,
    Point,
    bottcher_phi,
    deck,
    green,
    lift_H,
    load_chart,
    make_henon,
)
from henoncover import cli
from henoncover.cli import (
    GridJob,
    SpecError,
    main,
    parse_grid_job,
    parse_spec,
    quantize,
    render_grid,
    write_pgm,
)
from henoncover.green import escape_time_grid, green_plus_grid
from henoncover.henon import _factors_json, apply_xy
from henoncover.verification import check_q_structure

from strategies import spec_doc, spec_file, spec_map

QUADRATIC = spec_doc("ref")

TWO_DEGREES = {
    "name": "degrees 2 and 3",
    "factors": [
        {"p": [[0, 0], [0, 0], [1, 0]], "a": [1, 0]},
        {"p": [[0, 0], [0, 0], [0, 0], [1, 0]], "a": [1, 0]},
    ],
}

JOB = {
    "plane": {"kind": "real_slice"},
    "window": {"center": [0.0, 0.0], "width": 5.0, "height": 5.0},
    "resolution": [48, 48],
    "quantity": {"kind": "green_plus"},
    "clamp": 3.0,
}


def write_json(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def test_parse_spec_round_trip():
    spec = parse_spec(QUADRATIC)
    assert spec.henon.d == 2 and spec.henon.d_prime == 1
    factors = _factors_json(spec.henon)
    again = parse_spec({"name": spec.name, "factors": factors})
    assert again.henon == spec.henon and again.name == spec.name
    assert _factors_json(again.henon) == factors  # stable canonical form


@pytest.mark.parametrize("name, fixture", [("ref", "href"), ("htwo", "htwo"), ("cubic", "hcubic")])
def test_corpus_specs_are_the_conftest_fixtures(request, name, fixture):
    # conftest writes its three maps as make_henon calls, which perfbench's
    # self-test reads as literals; their corpus files must be the same maps
    assert spec_map(name) == request.getfixturevalue(fixture)


def test_parse_spec_errors():
    with pytest.raises(SpecError):
        parse_spec({"factors": []})
    with pytest.raises(SpecError) as exc:
        parse_spec({"factors": [{"p": [[0, 0], [1, 0]], "a": [1, 0]}]})
    assert "factors[0].p" in str(exc.value)
    with pytest.raises(SpecError):
        parse_spec({"factors": [{"p": [[0, 0], [0, 0], [1, 0]], "a": [0, 0]}]})


@pytest.mark.parametrize(
    "factor, message",
    [
        ({"p": [[0, 0], [0, 0], [1, 0]]}, "factors[0].a: expected a number or an [re, im] pair"),
        ({"p": [[1, 0], [0, 0], [0, 0]], "a": [1, 0]}, "factors: zero leading coefficient"),
    ],
    ids=["no-a", "zero-leading-coefficient"],
)
def test_cli_factor_error_names_its_field(tmp_path, capsys, factor, message):
    spec = write_json(tmp_path / "m.json", {"factors": [factor]})
    assert main(["info", "--spec", spec]) == 2
    assert f"input error: {message}" in capsys.readouterr().err


def test_cli_info(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    assert main(["info", "--spec", spec]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d"] == 2 and out["d_prime"] == 1
    assert out["d0"] == 3
    assert out["symmetry_order_bound"] == 3
    assert out["filtration_radius"] > 1


def test_cli_info_lists_attracting_traps(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    assert main(["info", "--spec", spec]) == 0
    (trap,) = json.loads(capsys.readouterr().out)["attracting_traps"]
    assert trap["r"] >= 0.0625 and trap["spectral_radius"] < 1.0
    assert np.allclose(trap["fixed_point"], [[-0.482, 0.0], [-0.482, 0.0]], atol=1e-3)
    # (y, y^3 - y - x) has Jacobian 1: no fixed point attracts, no trap
    spec = write_json(
        tmp_path / "m.json", {"factors": [{"p": [[0, 0], [-1, 0], [0, 0], [1, 0]], "a": [1, 0]}]}
    )
    assert main(["info", "--spec", spec]) == 0
    assert json.loads(capsys.readouterr().out)["attracting_traps"] == []


def test_cli_info_and_render_with_an_overflowing_fixed_point(tmp_path, capsys):
    # the fixed point near y = -1e110 of (y, y^3 + 1e110 y^2 - x/2) overflows H
    spec = str(spec_file("huge"))
    assert main(["info", "--spec", spec]) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["attracting_traps"], list)
    jobp = str(spec_file("tiny"))  # a 1e-200 window about the origin
    assert main(["render", "--spec", spec, "--job", jobp, "--out", str(tmp_path / "t.pgm")]) == 0


@pytest.mark.parametrize("job", ["gp", "sub", "fy_gp", "fy_sub"])
def test_cli_renders_a_map_beyond_double_range_without_warnings(tmp_path, job):
    # huge's orbits overflow and its escape band is infinite: those pixels
    # are given up on or left undecided, in the values, without a warning
    argv = ["render", "--spec", str(spec_file("huge")), "--job", str(spec_file(job))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, "--out", str(tmp_path / "g.pgm"), "--csv", str(tmp_path / "g.csv")]) == 0


def test_cli_info_traps_four_fixed_points_of_three_factors(capsys):
    # three's fixed points come from one eigenproblem; four attract, and
    # the one at (-1/2, -1/2) gets a trap of radius 1/4
    assert main(["info", "--spec", str(spec_file("three"))]) == 0
    traps = json.loads(capsys.readouterr().out)["attracting_traps"]
    assert len(traps) == 4
    assert any(
        np.abs(np.subtract(t["fixed_point"], [[-0.5, 0], [-0.5, 0]])).max() <= 1e-12
        and t["r"] == 0.25
        for t in traps
    ), traps


def test_cli_info_composed_degrees(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", TWO_DEGREES)
    assert main(["info", "--spec", spec]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["d"] == 6 and out["d_prime"] == 2
    assert out["symmetry_order_bound"] == (6 + 2) * (6 - 1)


def test_cli_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["info", "--spec", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_cli_zero_jacobian_exit_2(tmp_path, capsys):
    spec = write_json(
        tmp_path / "m.json",
        {"factors": [{"p": [[0, 0], [0, 0], [1, 0]], "a": [0, 0]}]},
    )
    assert main(["info", "--spec", spec]) == 2
    err = capsys.readouterr().err
    assert "a = 0" in err


def test_cli_classify_nonpositive_c_exit_2(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    for c in ("0", "-1", "nan"):
        assert main(["classify", "--spec", spec, "--point", "0,0,100,0", "--c", c]) == 2
        assert "--c" in capsys.readouterr().err


def test_cli_negative_budget_exit_2(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    jobp = write_json(tmp_path / "j.json", JOB)
    out = tmp_path / "img.pgm"
    for argv in (
        ["green", "--point", "0,0,100,0"],
        ["classify", "--point", "0,0,100,0", "--c", "1.0"],
        ["render", "--job", jobp, "--out", str(out)],
    ):
        assert main(argv + ["--spec", spec, "--budget", "-3"]) == 2, argv
        assert "--budget" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_cli_render_threads_below_one_exit_2(tmp_path, capsys, threads):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    jobp = write_json(tmp_path / "j.json", JOB)
    out = tmp_path / "img.pgm"
    argv = ["render", "--spec", spec, "--job", jobp, "--out", str(out), "--threads", threads]
    assert main(argv) == 2
    assert "input error: --threads: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_render_starts_at_most_one_worker_per_tile(monkeypatch):
    # a stand-in pool records the worker count and runs the tiles in turn,
    # so no thread is started however many are asked for
    import concurrent.futures

    started = []

    class RecordingPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli, "TILE_POINTS", 48 * 16)
    H = parse_spec(QUADRATIC).henon
    job = parse_grid_job(JOB)  # 48 rows of 48 pixels: three tiles of 16 rows
    serial = render_grid(H, job, budget=32)
    for threads, workers in ((1, None), (2, 2), (3, 3), (10**6, 3)):
        started.clear()
        assert render_grid(H, job, budget=32, threads=threads).tobytes() == serial.tobytes()
        assert started == ([] if workers is None else [workers]), threads
    # a one-tile job runs in turn whatever the thread count
    monkeypatch.setattr(cli, "TILE_POINTS", 48 * 48)
    started.clear()
    assert render_grid(H, job, budget=32, threads=8).tobytes() == serial.tobytes()
    assert started == []


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_cli_bad_tol_exit_2(tmp_path, capsys, tol):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    jobp = write_json(tmp_path / "j.json", JOB)
    out = tmp_path / "out"
    for argv in (
        ["green", "--point", "0,0,100,0"],
        ["render", "--job", jobp, "--out", str(out)],
    ):
        assert main(argv + ["--spec", spec, "--tol", tol]) == 2, argv
        assert "input error: --tol" in capsys.readouterr().err
    # a chart is its map alone: cover takes no tolerance
    with pytest.raises(SystemExit) as exc:
        main(["cover", "--out", str(out), "--spec", spec, "--tol", tol])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [("resolution", ["a", 8]), ("window", {"center": [0, 0], "width": "wide", "height": 5}),
     ("clamp", 0), ("clamp", -3)],
)
def test_cli_non_numeric_job_exit_2(tmp_path, capsys, field, value):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    jobp = write_json(tmp_path / "j.json", {**JOB, field: value})
    assert main(["render", "--spec", spec, "--job", jobp, "--out", str(tmp_path / "g.pgm")]) == 2
    assert f"input error: {field}" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, change",
    [
        ("window.center", {"window": {"center": [NAN, 0.0], "width": 5.0, "height": 5.0}}),
        ("window.width", {"window": {"center": [0.0, 0.0], "width": INF, "height": 5.0}}),
        ("window.width", {"window": {"center": [0.0, 0.0], "width": 10**400, "height": 5.0}}),
        ("window.height", {"window": {"center": [0.0, 0.0], "width": 5.0, "height": NAN}}),
        ("plane.value", {"plane": {"kind": "fix_x", "value": NAN}}),
        ("plane.value", {"plane": {"kind": "fix_y", "value": [0.0, -INF]}}),
        ("quantity.c", {"quantity": {"kind": "sublevel", "c": INF}}),
        ("clamp", {"clamp": NAN}),
    ],
    ids=["center", "width", "width-int", "height", "fix_x-value", "fix_y-value", "sublevel-c", "clamp"],
)
def test_cli_non_finite_job_exit_2(tmp_path, capsys, field, change):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    jobp = write_json(tmp_path / "j.json", {**JOB, **change})
    out = tmp_path / "g.pgm"
    assert main(["render", "--spec", spec, "--job", jobp, "--out", str(out)]) == 2
    assert f"input error: {field}: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, factor",
    [
        ("factors[0].p[0]", {"p": [[NAN, 0], [0, 0], [1, 0]], "a": [0.8, 0]}),
        ("factors[0].a", {"p": [[-1.1, 0], [0, 0], [1, 0]], "a": [INF, 0]}),
        ("factors[0].a", {"p": [[-1.1, 0], [0, 0], [1, 0]], "a": 10**400}),
    ],
    ids=["p-nan", "a-inf", "a-int"],
)
def test_cli_non_finite_spec_exit_2(tmp_path, capsys, field, factor):
    spec = write_json(tmp_path / "m.json", {"name": "bad", "factors": [factor]})
    for argv in (["info"], ["green", "--point", "0,0,100,0"]):
        assert main(argv + ["--spec", spec]) == 2, argv
        assert f"input error: {field}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("point", ["nan,0,0,0", "0,0,inf,0"])
def test_cli_non_finite_point_exit_2(tmp_path, capsys, point):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    for argv in (["green"], ["classify", "--c", "1.0"]):
        assert main(argv + ["--spec", spec, "--point", point]) == 2, argv
        assert "input error: --point: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("resolution", [[16.9, 8.5], [True, "8"], [16.0, 8]])
def test_cli_non_integer_resolution_exit_2(tmp_path, capsys, resolution):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    jobp = write_json(tmp_path / "j.json", {**JOB, "resolution": resolution})
    out = tmp_path / "g.pgm"
    assert main(["render", "--spec", spec, "--job", jobp, "--out", str(out)]) == 2
    assert "input error: resolution: expected an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture()
def pools(monkeypatch):
    """max_workers of each pool render_grid starts; each is a real ThreadPoolExecutor."""
    import concurrent.futures

    real, started = concurrent.futures.ThreadPoolExecutor, []

    def recording(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    return started


def test_render_deterministic_across_runs_and_threads(monkeypatch, pools):
    # 48 rows in three tiles of 16: the 8-thread render runs a real pool of
    # three workers, one per tile, and the serial ones start none
    monkeypatch.setattr(cli, "TILE_POINTS", 48 * 16)
    spec = parse_spec(QUADRATIC)
    job = parse_grid_job(JOB)
    a = quantize(job, render_grid(spec.henon, job, budget=48, threads=1)).tobytes()
    b = quantize(job, render_grid(spec.henon, job, budget=48, threads=1)).tobytes()
    assert pools == []
    c = quantize(job, render_grid(spec.henon, job, budget=48, threads=8)).tobytes()
    assert pools == [3]
    assert a == b == c


def test_render_determinism_check_runs_a_pool_of_two(monkeypatch, pools):
    # the check's job is one and a half tiles high, so its 8-thread render
    # starts two workers whatever the tile size
    from henoncover.verification import check_render_determinism

    H = parse_spec(QUADRATIC).henon
    monkeypatch.setattr(cli, "TILE_POINTS", 48 * 16)
    record = check_render_determinism(H, size=48)
    assert record["passed"] and pools == [2], (record, pools)
    assert record["note"] == "48x24 in 2 tiles, 1 vs 8 threads"


@pytest.mark.parametrize("plane", ["fix_x", "fix_y", "real_slice"])
def test_render_tiles_match_one_kernel_call(request, monkeypatch, plane):
    # 600 rows of 64 pixels: two full 256-row tiles and a ragged 88-row one,
    # each cut into several escape blocks and a ragged one
    monkeypatch.setattr(cli, "TILE_POINTS", 16384)
    monkeypatch.setattr(green, "BLOCK_POINTS", 1001)
    nx, ny, budget = 64, 600, 32
    rows = cli.TILE_POINTS // nx
    assert ny > rows and ny % rows != 0
    assert rows * nx > green.BLOCK_POINTS and rows * nx % green.BLOCK_POINTS != 0
    center, width, height, anchor = (0.1, -0.2), 5.0, 4.0, 0.3 + 0.2j
    u = center[0] - 0.5 * width + (np.arange(nx) + 0.5) * (width / nx)
    v = center[1] + 0.5 * height - (np.arange(ny) + 0.5) * (height / ny)
    uv = u[None, :] + 1j * v[:, None]
    xs, ys = {
        "fix_x": (np.full(uv.shape, anchor), uv),
        "fix_y": (uv, np.full(uv.shape, anchor)),
        "real_slice": (uv.real + 0j, uv.imag + 0j),
    }[plane]
    # the real slice renders in float64: against the complex kernels also
    # on htwo (two factors, |y| not reused) and hcubic (points retired in traps)
    names = ["href", "htwo", "hcubic"] if plane == "real_slice" else ["href"]
    for name in names:
        H = request.getfixturevalue(name)
        vals, _, depths = green_plus_grid(H, xs, ys, budget)
        c = 0.5
        want = {
            "green_plus": vals,
            "escape_time": escape_time_grid(H, xs, ys, budget).astype(float),
            "sublevel": np.select(
                [(vals == 0.0) & (depths == budget), vals < c], [0.0, 32768.0], 65535.0
            ),
        }
        assert 0 < np.count_nonzero(depths == budget) < depths.size, name
        for quantity, expected in want.items():
            job = GridJob(plane, anchor, center, width, height, nx, ny, quantity, c, 3.0)
            for threads in (1, 3):
                got = render_grid(H, job, budget=budget, threads=threads)
                assert got.tobytes() == expected.tobytes(), (name, quantity, threads)


def test_render_steps_real_slices_of_real_maps_in_float(monkeypatch, href):
    # the dtype the map step sees inside the grid kernels, per render
    seen = []

    def recording(H, x, y):
        seen.append((x.dtype, y.dtype))
        return apply_xy(H, x, y)

    monkeypatch.setattr(green, "apply_xy", recording)
    rotated = make_henon([([-1.1, 0, 1], 0.8j)])
    for H, plane, dtype in [
        (href, "real_slice", np.float64),
        (rotated, "real_slice", np.complex128),
        (href, "fix_y", np.complex128),
    ]:
        seen.clear()
        for quantity in ("green_plus", "escape_time", "sublevel"):
            job = GridJob(plane, 0.3, (0.0, 0.0), 5.0, 5.0, 32, 32, quantity, 1.0, 3.0)
            render_grid(H, job, budget=32)
        assert seen and set(seen) == {(np.dtype(dtype), np.dtype(dtype))}, (plane, seen[:1])


def test_render_cli_writes_pgm_and_csv(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    jobp = write_json(tmp_path / "j.json", JOB)
    out = tmp_path / "img.pgm"
    csv = tmp_path / "img.csv"
    rc = main(
        ["render", "--spec", spec, "--job", jobp, "--out", str(out), "--csv", str(csv)]
    )
    assert rc == 0
    data = out.read_bytes()
    assert data.startswith(b"P5\n48 48\n65535\n")
    assert len(data) == len(b"P5\n48 48\n65535\n") + 48 * 48 * 2
    rows = csv.read_text().strip().split("\n")
    assert len(rows) == 48 and len(rows[0].split(",")) == 48
    float(rows[0].split(",")[0])  # parses as a double


def test_render_green_matches_log_abs_y_on_deep_points(href):
    # a 2x2 grid of deep V+ points, each with G+ close to log|y|
    job = GridJob(
        plane="fix_x",
        anchor=0j,
        center=(0.0, 60.0),
        width=1.0,
        height=1.0,
        nx=2,
        ny=2,
        quantity="green_plus",
        c=0.0,
        clamp=10.0,
    )
    vals = render_grid(href, job, budget=48)
    for j in range(2):
        for i in range(2):
            u = 0.0 - 0.5 + (i + 0.5) * 0.5
            v = 60.0 + 0.5 - (j + 0.5) * 0.5
            y = abs(u + 1j * v)
            assert abs(vals[j, i] - np.log(y)) <= 1e-3


def test_render_sublevel_three_levels(href):
    job = GridJob(
        plane="real_slice",
        anchor=0j,
        center=(0.0, 0.0),
        width=8.0,
        height=8.0,
        nx=32,
        ny=32,
        quantity="sublevel",
        c=0.5,
        clamp=1.0,
    )
    pix = quantize(job, render_grid(href, job, budget=96))
    levels = set(np.unique(pix).tolist())
    assert levels <= {0, 32768, 65535}
    assert len(levels) >= 2  # the window straddles the boundary


@pytest.mark.parametrize("budget", [3, 9])
@pytest.mark.parametrize(
    "name, gp, sub", [("htwo", "gp", "sub"), ("cubic", "fy_gp", "fy_sub")],
    ids=["htwo-real-slice", "cubic-fix_y"],
)
def test_cli_render_at_small_budgets(tmp_path, budget, name, gp, sub):
    # sub-level classes and G+ finish in the escape loop, also for points
    # that escape near the budget: the CSVs are the kernel's values and
    # the bands of those values
    csv = {job: tmp_path / f"{job}.csv" for job in (gp, sub)}
    for job, path in csv.items():
        argv = ["render", "--spec", str(spec_file(name)), "--job", str(spec_file(job)),
                "--out", str(tmp_path / "g.pgm"), "--csv", str(path), "--budget", str(budget)]
        assert main(argv) == 0
    g, s = (np.loadtxt(csv[job], delimiter=",") for job in (gp, sub))
    shade = cli.SUBLEVEL_SHADES
    c = parse_grid_job(spec_doc(sub)).c
    bands = np.select([g == 0, g < c], [shade["k_plus"], shade["omega_prime"]], shade["outside"])
    assert np.array_equal(s, bands) and len(np.unique(s)) == 3, np.unique(s)
    job = parse_grid_job(spec_doc(gp))
    xs, ys = cli._tile_points(job, 0, job.ny)
    assert np.array_equal(g, green_plus_grid(spec_map(name), xs + 0j, ys + 0j, budget)[0])


def test_resolution_cap():
    bad = dict(JOB)
    bad["resolution"] = [20000, 20000]
    with pytest.raises(SpecError):
        parse_grid_job(bad)


def test_cli_cover_round_trip(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    out = tmp_path / "chart.json"
    assert main(["cover", "--spec", spec, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    chart = load_chart(out)
    assert printed == (f"wrote {out} (deg Q = 3, Mtilde = {chart.Mtilde:g}, "
                       f"series tail = {chart.series_tail:.1e})\n")
    assert 0.0 <= chart.series_tail <= 1e-12 and "meta" not in json.loads(out.read_text())
    # loading reproduces evaluations exactly
    w = CoverPoint(0.3 + 0.1j, 1.9)
    chart2 = load_chart(out)
    assert lift_H(chart, w) == lift_H(chart2, w)
    assert deck(chart, DeckLabel.reduced(1, 1, 2), w) == deck(
        chart2, DeckLabel.reduced(1, 1, 2), w
    )
    # identical inputs and tolerances give byte-identical artifacts
    out2 = tmp_path / "chart2.json"
    assert main(["cover", "--spec", spec, "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


# (Mtilde, M, number of Q's coefficients) of the cover documents
COVER_PINS = {"cubic": (10.0, 2.0, 5), "htwo": (12.4, 2.0, 7)}


@pytest.mark.parametrize("name", ["htwo", "htwo_near", "cubic", "three", "six", "cplx"])
def test_cli_cover_writes_a_chart_of_its_map(tmp_path, capsys, name):
    # real maps, a near-real and a complex one that solve every torus node,
    # and a two-factor d = 6 chart: each document loads to the spec's map,
    # and its Q passes the circle check
    out = tmp_path / "chart.json"
    assert main(["cover", "--spec", str(spec_file(name)), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert not {"meta", "qminus_rho", "qminus_samples", "series_tol"} & set(doc), sorted(doc)
    chart = load_chart(out)
    assert chart.H == spec_map(name) and chart.series_tail <= 1e-12
    assert check_q_structure(chart)["passed"]
    if name in COVER_PINS:
        assert (chart.Mtilde, chart.region.M, len(chart.Q.coeffs)) == COVER_PINS[name]
        assert chart.meta["two_radius_agreement"] <= 1e-7


def test_cli_symmetries_cubic(tmp_path, capsys):
    out = tmp_path / "sym.json"
    assert main(["symmetries", "--spec", str(spec_file("cubic")), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # (w^3 x, w y) with w = e^(2 pi i / 8) commutes with H^2, so the group
    # has order 8 and holds (-x, -y)
    assert doc["order"] == 8
    gens = [g for g in doc["generators"]]
    assert any(
        abs(g["e"][0] + 1) < 1e-9 and abs(g["e_prime"][0] + 1) < 1e-9 for g in gens
    )


def test_cli_classify_and_green(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    assert (
        main(["classify", "--spec", spec, "--point", "0,0,100,0", "--c", "1.0"]) == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["tag"] == "OutsideOmega"
    assert main(["green", "--spec", spec, "--point", "0,0,100,0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - np.log(100.0)) < 1e-2


def test_cli_classify_one_point_per_sublevel_class(capsys):
    spec = str(spec_file("cubic"))
    got = []
    for y in ("0", "1.2", "100"):
        assert main(["classify", "--spec", spec, "--c", "1.0", "--point", f"0,0,{y},0"]) == 0
        got.append(json.loads(capsys.readouterr().out))
    kplus, omega, outside = got
    assert [r["tag"] for r in got] == ["InKPlusUpToBudget", "InOmegaPrime", "OutsideOmega"]
    assert abs(omega["green_value"] - 0.168) <= 1e-3
    assert abs(outside["green_value"] - math.log(100)) <= 1e-9


def test_cli_green_and_classify_agree_with_the_bottcher_coordinate(capsys):
    # at (0, 40) on htwo, G+ = log|phi| and the point lies outside Omega
    spec = str(spec_file("htwo"))
    assert main(["green", "--spec", spec, "--point", "0,0,40,0"]) == 0
    g = json.loads(capsys.readouterr().out)
    assert main(["classify", "--spec", spec, "--c", "1.0", "--point", "0,0,40,0"]) == 0
    c = json.loads(capsys.readouterr().out)
    want = math.log(abs(bottcher_phi(spec_map("htwo"), Point(0, 40))))
    assert abs(g["value"] - want) <= g["error_bound"] + 1e-12
    assert c["tag"] == "OutsideOmega" and c["green_value"] == g["value"]


def test_cli_green_minus_deep_point_has_a_positive_bound(tmp_path, capsys):
    # the CI console-script point: on the axis x = 0 of a monomial factor
    # the first Bottcher product term is exactly 0, and the product's stop
    # rule once reported error_bound 0 there although its tail is not 0
    argv = ["green", "--spec", str(spec_file("cubic")), "--direction", "minus", "--point", "1e8,0,0,0"]
    assert main(argv) == 0
    g = json.loads(capsys.readouterr().out)
    assert abs(g["value"] - (np.log(1e8) - np.log(0.5) / 2)) <= 1e-9
    assert g["depth"] == 1 and 0 < g["error_bound"] <= 1e-10


def test_cli_verify_fast(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    assert main(["verify", "--spec", spec, "--level", "fast"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and "PASS" in out


def test_cli_verify_full(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    assert main(["verify", "--spec", spec, "--level", "full"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "cover.semiconjugacy" in out and "cover.deck_relation" in out


def test_cli_verify_full_reports_a_failed_chart_build(capsys):
    # d + d' = 27 needs more orders than the series table holds
    assert main(["verify", "--spec", str(spec_file("beyond")), "--level", "full"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13  # 11 fast records, cover.build, the summary
    assert lines[-2].startswith("FAIL  cover.build") and "DecayFailed: Q needs" in lines[-2]
    assert lines[-1].endswith("/12 checks passed")


def test_cli_cover_refuses_a_map_beyond_double_range(tmp_path, capsys):
    # y^3 + 1e110 y^2: the region is proved, but Q_0 is of order 1e330, so
    # cover exits 1 with one error line and writes nothing
    out = tmp_path / "chart.json"
    assert main(["cover", "--spec", str(spec_file("huge")), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == "error: a coefficient of Q exceeds the double range\n"


def test_cli_verify_records_a_map_beyond_double_range(capsys):
    # the same map through verify: every fast check is recorded, none raises
    assert main(["verify", "--spec", str(spec_file("huge"))]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1].endswith("/11 checks passed")
    assert "Traceback" not in captured.out + captured.err


def test_cli_verify_full_records_an_overflowing_deck_check(capsys):
    assert main(["verify", "--spec", str(spec_file("three")), "--level", "full"]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 20 and lines[-1].endswith("/19 checks passed")  # 19 records, the summary
    deck_lines = [line for line in lines if line.startswith("FAIL  cover.deck_relation")]
    assert len(deck_lines) == 1 and "Overflow: " in deck_lines[0]
    assert "Traceback" not in captured.out + captured.err


def test_cli_verify_full_on_a_two_factor_degree_six_map(capsys):
    # d = 6 end to end: green.zero_on_bounded (no bounded sample),
    # deck_additivity and projection fail, and the chart's identities pass
    assert main(["verify", "--spec", str(spec_file("six")), "--level", "full"]) == 1
    captured = capsys.readouterr()
    passed = {line.split()[1] for line in captured.out.splitlines() if line.startswith("PASS ")}
    want = {"cover.q_structure", "cover.semiconjugacy", "cover.series_identity", "shortc2.modulus_law"}
    assert want <= passed and "Traceback" not in captured.out + captured.err, captured.out


def test_cli_builds_only_the_invoked_subcommand(tmp_path, monkeypatch):
    built = []
    parser = cli._parser

    def recording_parser(commands):
        built.append(list(commands))
        return parser(commands)

    monkeypatch.setattr(cli, "_parser", recording_parser)
    assert main(["info", "--spec", write_json(tmp_path / "m.json", QUADRATIC)]) == 0
    assert built == [["info"]]


@pytest.mark.parametrize(
    "argv, code", [([], 2), (["bogus"], 2), (["--help"], 0)], ids=["bare", "unknown", "help"]
)
def test_cli_without_a_subcommand_lists_all_seven(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert "{info,render,verify,cover,symmetries,classify,green}" in captured.out + captured.err


@pytest.mark.parametrize(
    "command, field, change",
    [
        ("info", "factors[0].a", {"factors": [{**QUADRATIC["factors"][0], "a": True}]}),
        ("info", "factors[0].p[1]", {"factors": [{"p": [[-1.1, 0], [False, 0], [1, 0]]}]}),
        ("render", "window.width", {"window": {**JOB["window"], "width": "5"}}),
        ("render", "window.center", {"window": {**JOB["window"], "center": [True, "0"]}}),
        ("render", "clamp", {"clamp": "3"}),
    ],
    ids=["a-true", "p-false", "width-string", "center", "clamp-string"],
)
def test_cli_booleans_and_strings_are_not_numbers(tmp_path, capsys, command, field, change):
    if command == "info":
        argv = ["info", "--spec", write_json(tmp_path / "m.json", {**QUADRATIC, **change})]
    else:
        spec = write_json(tmp_path / "m.json", QUADRATIC)
        jobp = write_json(tmp_path / "j.json", {**JOB, **change})
        argv = ["render", "--spec", spec, "--job", jobp, "--out", str(tmp_path / "g.pgm")]
    assert main(argv) == 2
    assert f"input error: {field}: expected a number" in capsys.readouterr().err
    assert not (tmp_path / "g.pgm").exists()


def test_write_pgm_format(tmp_path):
    pix = np.arange(6, dtype=">u2").reshape(2, 3)
    path = tmp_path / "t.pgm"
    write_pgm(path, pix)
    data = path.read_bytes()
    assert data == b"P5\n3 2\n65535\n" + pix.tobytes()


def test_quantize_and_write_pgm_keep_their_bytes(tmp_path):
    # in-place scaling leaves the caller's values (the CSV) as they were,
    # and write_pgm takes any layout and byte order of 16-bit pixels
    job = parse_grid_job({**JOB, "clamp": 2.0})
    values = np.random.default_rng(113).uniform(-1.0, 3.0, (5, 7))
    values[0, :4] = [0.5 / 65535.0 * 2.0, 1.5 / 65535.0 * 2.0, 2.0, 0.0]  # ties
    given = values.copy()
    pix = quantize(job, values)
    assert np.array_equal(values, given)
    want = np.rint(np.clip(given, 0.0, 2.0) * (65535.0 / 2.0)).astype(">u2")
    assert pix.dtype == np.dtype(">u2") and pix.tobytes() == want.tobytes()
    path = tmp_path / "t.pgm"
    write_pgm(path, pix.astype(np.uint16).T)
    assert path.read_bytes() == b"P5\n5 7\n65535\n" + pix.T.astype(">u2").tobytes()


@pytest.mark.parametrize("field", ["<file>", "<job>"])
def test_cli_input_that_is_not_utf8_exit_2(tmp_path, capsys, field):
    files = {
        "<file>": write_json(tmp_path / "m.json", QUADRATIC),
        "<job>": write_json(tmp_path / "j.json", JOB),
    }
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    files[field] = str(bad)
    argv = ["render", "--spec", files["<file>"], "--job", files["<job>"]]
    assert main([*argv, "--out", str(tmp_path / "g.pgm")]) == 2
    assert capsys.readouterr().err.startswith(f"input error: {field}: ")


@pytest.mark.parametrize("target", ["missing/out", "", "."], ids=["missing-dir", "empty", "dir"])
@pytest.mark.parametrize(
    "command, flag",
    [("info", "--out"), ("render", "--out"), ("render", "--csv"), ("cover", "--out"),
     ("symmetries", "--out")],
)
def test_cli_unwritable_output_path_exit_2(tmp_path, capsys, monkeypatch, command, flag, target):
    def no_render(*args, **kwargs):
        raise AssertionError("rendered before checking the output paths")

    monkeypatch.setattr(cli, "render_grid", no_render)
    monkeypatch.chdir(tmp_path)
    outputs = {"--out": "out", "--csv": "out.csv", flag: target}
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    argv = [command, "--spec", spec, "--out", outputs["--out"]]
    if command == "render":
        argv += ["--job", write_json(tmp_path / "j.json", JOB), "--csv", outputs["--csv"]]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"input error: {flag}: ")
    written = {"m.json", "j.json"} if command == "render" else {"m.json"}
    assert {p.name for p in tmp_path.iterdir()} == written


# ---------------------------------------------------------------------------
# start-up: each command loads only the modules it runs

NOT_AT_START_UP = (
    "henoncover.cover",
    "henoncover.boettcher",
    "henoncover.verification",
    "henoncover.shortc2",
    "concurrent.futures",
    "fractions",
)


def test_cli_import_loads_only_what_render_runs(fresh_python):
    run = fresh_python("-c", (
        "import json, sys, henoncover.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('henoncover'))))"
    ))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [
        "henoncover", "henoncover.cli", "henoncover.filtration", "henoncover.green",
        "henoncover.henon", "henoncover.symmetry",
    ]


def test_light_commands_load_no_chart_or_verification_module(tmp_path, fresh_python):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    jobp = write_json(tmp_path / "j.json", JOB)
    commands = [
        ["render", "--spec", spec, "--job", jobp, "--out", "g.pgm", "--threads", "1"],
        ["info", "--spec", spec],
        ["green", "--spec", spec, "--point", "0,0,100,0"],
        ["symmetries", "--spec", spec, "--out", "s.json"],
    ]
    run = fresh_python("-c", (
        "import contextlib, io, json, sys; from henoncover import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    loaded = [m for m in json.loads(sys.argv[2]) if m in sys.modules]\n"
        "    print(json.dumps([argv[0], code, loaded]))"
    ), json.dumps(commands), json.dumps(NOT_AT_START_UP))
    assert run.returncode == 0, run.stderr
    assert [json.loads(line) for line in run.stdout.splitlines()] == [
        [argv[0], 0, []] for argv in commands
    ]


def test_classify_loads_no_chart_or_verification_module(tmp_path, fresh_python):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    run = fresh_python("-c", (
        "import contextlib, io, json, sys; from henoncover import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, 'henoncover.cover' in sys.modules,"
        " 'henoncover.verification' in sys.modules]))"
    ), "classify", "--spec", spec, "--c", "0.5", "--point", "0,0,100,0")
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [0, False, False]


@pytest.mark.parametrize(
    "argv",
    [
        ["cover", "--out", "c.json"],
        ["verify"],
        ["classify", "--point", "0,0,100,0", "--c", "0.5"],
        ["render", "--job", "j.json", "--out", "g.pgm", "--threads", "2"],
    ],
    ids=["cover", "verify", "classify", "render-threads-2"],
)
def test_deferred_imports_run_in_a_fresh_process(tmp_path, fresh_python, argv):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    # two tiles of cli.TILE_POINTS, so two threads start the pool
    write_json(tmp_path / "j.json", {**JOB, "resolution": [512, 257]})
    run = fresh_python("-m", "henoncover.cli", argv[0], "--spec", spec, *argv[1:])
    assert run.returncode == 0, run.stderr
