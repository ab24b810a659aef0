import json

import numpy as np
import pytest

from henoncover import CoverPoint, DeckLabel, deck, lift_H, load_chart
from henoncover.cli import (
    TILE_POINTS,
    GridJob,
    SpecError,
    canonical_spec,
    main,
    parse_grid_job,
    parse_spec,
    quantize,
    render_grid,
    write_pgm,
)
from henoncover.green import escape_time_grid, green_plus_grid

QUADRATIC = {
    "name": "reference quadratic",
    "factors": [{"p": [[-1.1, 0], [0, 0], [1, 0]], "a": [0.8, 0]}],
}

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
    canon = canonical_spec(spec)
    assert canon == canonical_spec(parse_spec(canon))  # stable canonical form


def test_parse_spec_errors():
    with pytest.raises(SpecError):
        parse_spec({"factors": []})
    with pytest.raises(SpecError) as exc:
        parse_spec({"factors": [{"p": [[0, 0], [1, 0]], "a": [1, 0]}]})
    assert "factors[0].p" in str(exc.value)
    with pytest.raises(SpecError):
        parse_spec({"factors": [{"p": [[0, 0], [0, 0], [1, 0]], "a": [0, 0]}]})


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


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_cli_bad_tol_exit_2(tmp_path, capsys, tol):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    jobp = write_json(tmp_path / "j.json", JOB)
    out = tmp_path / "out"
    for argv in (
        ["green", "--point", "0,0,100,0"],
        ["render", "--job", jobp, "--out", str(out)],
        ["cover", "--out", str(out)],
    ):
        assert main(argv + ["--spec", spec, "--tol", tol]) == 2, argv
        assert "input error: --tol" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [("resolution", ["a", 8]), ("window", {"center": [0, 0], "width": "wide", "height": 5})],
)
def test_cli_non_numeric_job_exit_2(tmp_path, capsys, field, value):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    jobp = write_json(tmp_path / "j.json", {**JOB, field: value})
    assert main(["render", "--spec", spec, "--job", jobp, "--out", str(tmp_path / "g.pgm")]) == 2
    assert f"input error: {field}" in capsys.readouterr().err


def test_render_deterministic_across_runs_and_threads(tmp_path):
    spec = parse_spec(QUADRATIC)
    job = parse_grid_job(JOB)
    a = quantize(job, render_grid(spec.henon, job, budget=48, threads=1)).tobytes()
    b = quantize(job, render_grid(spec.henon, job, budget=48, threads=1)).tobytes()
    c = quantize(job, render_grid(spec.henon, job, budget=48, threads=8)).tobytes()
    assert a == b == c


@pytest.mark.parametrize("plane", ["fix_x", "fix_y", "real_slice"])
def test_render_tiles_match_one_kernel_call(href, href_radius, plane):
    # 600 rows of 64 pixels: two full 256-row tiles and a ragged 88-row one
    nx, ny, budget = 64, 600, 32
    rows = TILE_POINTS // nx
    assert ny > rows and ny % rows != 0
    center, width, height, anchor = (0.1, -0.2), 5.0, 4.0, 0.3 + 0.2j
    u = center[0] - 0.5 * width + (np.arange(nx) + 0.5) * (width / nx)
    v = center[1] + 0.5 * height - (np.arange(ny) + 0.5) * (height / ny)
    uv = u[None, :] + 1j * v[:, None]
    xs, ys = {
        "fix_x": (np.full(uv.shape, anchor), uv),
        "fix_y": (uv, np.full(uv.shape, anchor)),
        "real_slice": (uv.real + 0j, uv.imag + 0j),
    }[plane]
    R = href_radius.R
    vals, _, depths = green_plus_grid(href, xs, ys, R, budget)
    c = 0.5
    want = {
        "green_plus": vals,
        "escape_time": escape_time_grid(href, xs, ys, R, budget).astype(float),
        "sublevel": np.select(
            [(vals == 0.0) & (depths == budget), vals < c], [0.0, 32768.0], 65535.0
        ),
    }
    assert 0 < np.count_nonzero(depths == budget) < depths.size
    for quantity, expected in want.items():
        job = GridJob(plane, anchor, center, width, height, nx, ny, quantity, c, 3.0)
        for threads in (1, 3):
            got = render_grid(href, job, budget=budget, threads=threads)
            assert got.tobytes() == expected.tobytes(), (quantity, threads)


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


def test_resolution_cap():
    bad = dict(JOB)
    bad["resolution"] = [20000, 20000]
    with pytest.raises(SpecError):
        parse_grid_job(bad)


def test_cli_cover_round_trip(tmp_path, capsys):
    spec = write_json(tmp_path / "m.json", QUADRATIC)
    out = tmp_path / "chart.json"
    assert main(["cover", "--spec", spec, "--out", str(out)]) == 0
    assert "psi panels = 1)" in capsys.readouterr().out
    chart = load_chart(out)
    assert chart.Q.degree == 3 and chart.meta["psi_max_panels"] == 1
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


def test_cli_symmetries_cubic(tmp_path, capsys):
    spec = write_json(
        tmp_path / "m.json",
        {
            "name": "odd cubic",
            "factors": [
                {"p": [[0, 0], [0, 0], [0, 0], [1, 0]], "a": [0.5, 0]}
            ],
        },
    )
    out = tmp_path / "sym.json"
    assert main(["symmetries", "--spec", spec, "--out", str(out)]) == 0
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


def test_cli_green_minus_deep_point_has_a_positive_bound(tmp_path, capsys):
    # the CI console-script point: on the axis x = 0 of a monomial factor
    # the first Bottcher product term is exactly 0, and the product's stop
    # rule once reported error_bound 0 there although its tail is not 0
    cubic = {"name": "odd cubic", "factors": [{"p": [[0, 0], [0, 0], [0, 0], [1, 0]], "a": [0.5, 0]}]}
    spec = write_json(tmp_path / "cubic.json", cubic)
    argv = ["green", "--spec", spec, "--direction", "minus", "--point", "1e8,0,0,0"]
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


def test_write_pgm_format(tmp_path):
    pix = np.arange(6, dtype=">u2").reshape(2, 3)
    path = tmp_path / "t.pgm"
    write_pgm(path, pix)
    data = path.read_bytes()
    assert data == b"P5\n3 2\n65535\n" + pix.tobytes()
