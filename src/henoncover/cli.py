"""Command-line surface: map specs, rendering, persistence, verification.

Subcommands: info, render, verify, cover, symmetries, classify, green.
All persisted artifacts are JSON (complex numbers as [re, im] pairs);
images are binary PGM (P5, maxval 65535) built row by row into a
preallocated buffer so bytes are independent of the worker count.
Exit codes: 0 ok, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import verification
from .cover import build_chart, save_chart
from .filtration import filtration_radius
from .green import escape_time_grid, green_minus, green_plus, green_plus_grid
from .henon import HenonError, HenonMap, Point, _c2l, make_henon
from .shortc2 import classify_sublevel
from .symmetry import compute_d0, find_affine_symmetries, save_report

__all__ = [
    "SpecError",
    "MapSpec",
    "GridJob",
    "parse_spec",
    "parse_spec_file",
    "canonical_spec",
    "parse_grid_job",
    "render_grid",
    "write_pgm",
    "main",
]

MAX_PIXELS = 16384 * 16384
SUBLEVEL_SHADES = {"k_plus": 0, "omega_prime": 32768, "outside": 65535}


class SpecError(HenonError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


@dataclass(frozen=True)
class MapSpec:
    name: str
    henon: HenonMap


@dataclass(frozen=True)
class GridJob:
    plane: str            # fix_x | fix_y | real_slice
    anchor: complex       # the fixed coordinate (ignored for real_slice)
    center: tuple         # (cx, cy) of the varying window
    width: float
    height: float
    nx: int
    ny: int
    quantity: str         # green_plus | escape_time | sublevel
    c: float              # sublevel threshold (unused otherwise)
    clamp: float

    def __post_init__(self):
        if self.plane not in ("fix_x", "fix_y", "real_slice"):
            raise SpecError("plane", f"unknown plane {self.plane!r}")
        if self.quantity not in ("green_plus", "escape_time", "sublevel"):
            raise SpecError("quantity", f"unknown quantity {self.quantity!r}")
        if self.nx <= 0 or self.ny <= 0 or self.nx * self.ny > MAX_PIXELS:
            raise SpecError("resolution", "must be positive and <= 16384^2 pixels")
        if not (self.width > 0 and self.height > 0):
            raise SpecError("window", "width and height must be positive")
        if self.quantity == "sublevel" and not self.c > 0:
            raise SpecError("quantity", "sublevel needs c > 0")


def _complex_from(v, field: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(t, (int, float)) for t in v)
    ):
        return complex(v[0], v[1])
    raise SpecError(field, "expected a number or an [re, im] pair")


def parse_spec(data) -> MapSpec:
    if not isinstance(data, dict):
        raise SpecError("<root>", "spec must be a JSON object")
    factors = data.get("factors")
    if not isinstance(factors, list) or not factors:
        raise SpecError("factors", "need a nonempty list of factors")
    built = []
    for i, fac in enumerate(factors):
        if not isinstance(fac, dict):
            raise SpecError(f"factors[{i}]", "factor must be an object")
        p = fac.get("p")
        if not isinstance(p, list) or len(p) < 3:
            raise SpecError(
                f"factors[{i}].p", "need coefficients, constant first, degree >= 2"
            )
        coeffs = [_complex_from(cc, f"factors[{i}].p[{j}]") for j, cc in enumerate(p)]
        a = _complex_from(fac.get("a", 0.0), f"factors[{i}].a")
        built.append((coeffs, a))
    try:
        H = make_henon(built)
    except HenonError as exc:
        raise SpecError("factors", str(exc)) from exc
    name = data.get("name", "")
    if not isinstance(name, str):
        raise SpecError("name", "must be a string")
    return MapSpec(name, H)


def parse_spec_file(path) -> MapSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError("<file>", str(exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("<json>", f"line {exc.lineno}: {exc.msg}") from exc
    return parse_spec(data)


def canonical_spec(spec: MapSpec) -> dict:
    return {
        "name": spec.name,
        "factors": [
            {"p": [_c2l(c) for c in f.p.coeffs], "a": _c2l(f.a)}
            for f in spec.henon.factors
        ],
    }


def parse_grid_job(data) -> GridJob:
    if not isinstance(data, dict):
        raise SpecError("<job>", "grid job must be a JSON object")
    plane = data.get("plane", {})
    kind = plane.get("kind") if isinstance(plane, dict) else None
    if kind not in ("fix_x", "fix_y", "real_slice"):
        raise SpecError("plane.kind", "expected fix_x, fix_y or real_slice")
    anchor = (
        _complex_from(plane.get("value", 0.0), "plane.value")
        if kind != "real_slice"
        else 0j
    )
    window = data.get("window")
    if not isinstance(window, dict):
        raise SpecError("window", "missing window object")
    center = window.get("center", [0.0, 0.0])
    if not (isinstance(center, list) and len(center) == 2):
        raise SpecError("window.center", "expected [cx, cy]")
    res = data.get("resolution")
    if not (isinstance(res, list) and len(res) == 2):
        raise SpecError("resolution", "expected [nx, ny]")
    quantity = data.get("quantity", {})
    qkind = quantity.get("kind") if isinstance(quantity, dict) else None
    if qkind not in ("green_plus", "escape_time", "sublevel"):
        raise SpecError("quantity.kind", "expected green_plus, escape_time or sublevel")
    return GridJob(
        plane=kind,
        anchor=anchor,
        center=(float(center[0]), float(center[1])),
        width=float(window.get("width", 0.0)),
        height=float(window.get("height", 0.0)),
        nx=int(res[0]),
        ny=int(res[1]),
        quantity=qkind,
        c=float(quantity.get("c", 0.0)) if qkind == "sublevel" else 0.0,
        clamp=float(data.get("clamp", 4.0)),
    )


def _row_points(job: GridJob, j: int):
    i = np.arange(job.nx)
    u = job.center[0] - 0.5 * job.width + (i + 0.5) * (job.width / job.nx)
    v = job.center[1] + 0.5 * job.height - (j + 0.5) * (job.height / job.ny)
    if job.plane == "fix_x":
        return np.full(job.nx, job.anchor, dtype=complex), u + 1j * v
    if job.plane == "fix_y":
        return u + 1j * v, np.full(job.nx, job.anchor, dtype=complex)
    return u.astype(complex), np.full(job.nx, complex(v), dtype=complex)


def render_grid(
    H: HenonMap, job: GridJob, budget: int = 64, threads: int = 1, tol: float = 1e-10
):
    """Raw quantity values, row-major float array of shape (ny, nx).

    Rows are computed independently (vectorized over columns) so the
    result does not depend on how rows are distributed over workers.
    """
    R = filtration_radius(H).R
    out = np.empty((job.ny, job.nx), dtype=float)

    def fill_row(j: int):
        xs, ys = _row_points(job, j)
        if job.quantity == "escape_time":
            out[j, :] = escape_time_grid(H, xs, ys, R, budget).astype(float)
        else:
            vals, errs, depths = green_plus_grid(H, xs, ys, R, budget, tol)
            if job.quantity == "green_plus":
                out[j, :] = vals
            else:
                bounded = (vals == 0.0) & (depths == budget)
                shades = np.where(
                    bounded,
                    float(SUBLEVEL_SHADES["k_plus"]),
                    np.where(
                        vals < job.c,
                        float(SUBLEVEL_SHADES["omega_prime"]),
                        float(SUBLEVEL_SHADES["outside"]),
                    ),
                )
                out[j, :] = shades

    rows = range(job.ny)
    if threads <= 1:
        for j in rows:
            fill_row(j)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill_row, rows))
    return out


def quantize(job: GridJob, values) -> np.ndarray:
    """Clamp and linearly scale to 16-bit gray levels."""
    if job.quantity == "sublevel":
        return values.astype(">u2")
    clamp = job.clamp if job.clamp > 0 else 1.0
    scaled = np.clip(values, 0.0, clamp) * (65535.0 / clamp)
    return np.rint(scaled).astype(">u2")


def write_pgm(path, pixels: np.ndarray):
    h, w = pixels.shape
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + pixels.astype(">u2").tobytes())


def write_csv(path, values: np.ndarray):
    lines = [
        ",".join("%.17g" % v for v in row) for row in np.asarray(values, dtype=float)
    ]
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_info(args) -> int:
    spec = parse_spec_file(args.spec)
    H = spec.henon
    info = {
        "name": spec.name,
        "d": H.d,
        "d_prime": H.d_prime,
        "jacobian": _c2l(H.jacobian),
        "filtration_radius": filtration_radius(H).R,
        "d0": compute_d0(H.d, H.d_prime),
        "symmetry_order_bound": (H.d + H.d_prime) * (H.d - 1),
    }
    text = json.dumps(info, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _cmd_render(args) -> int:
    spec = parse_spec_file(args.spec)
    try:
        job = parse_grid_job(json.loads(Path(args.job).read_text()))
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError("<job>", str(exc)) from exc
    values = render_grid(
        spec.henon, job, budget=args.budget, threads=args.threads, tol=args.tol
    )
    write_pgm(args.out, quantize(job, values))
    if args.csv:
        write_csv(args.csv, values)
    print(f"wrote {args.out} ({job.nx}x{job.ny}, {job.quantity})")
    return 0


def _cmd_verify(args) -> int:
    spec = parse_spec_file(args.spec)
    results = verification.run_suite(spec.henon, level=args.level)
    failed = verification.print_results(results)
    return 0 if failed == 0 else 1


def _cmd_cover(args) -> int:
    spec = parse_spec_file(args.spec)
    chart = build_chart(spec.henon, series_tol=args.tol)
    save_chart(chart, args.out)
    print(
        f"wrote {args.out} (deg Q = {chart.Q.degree}, rho = {chart.rho:g}, "
        f"Mtilde = {chart.Mtilde:g})"
    )
    return 0


def _cmd_symmetries(args) -> int:
    spec = parse_spec_file(args.spec)
    report = find_affine_symmetries(spec.henon, budget=args.budget)
    save_report(report, args.out)
    print(
        f"wrote {args.out} (order {report.order}, "
        f"max Green defect {report.max_green_defect:.3e})"
    )
    return 0


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 4:
        raise SpecError("--point", "expected re(x),im(x),re(y),im(y)")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise SpecError("--point", str(exc)) from exc
    return Point(complex(vals[0], vals[1]), complex(vals[2], vals[3]))


def _cmd_classify(args) -> int:
    spec = parse_spec_file(args.spec)
    z = _parse_point(args.point)
    cls = classify_sublevel(spec.henon, args.c, z, budget=args.budget)
    print(
        json.dumps(
            {
                "tag": cls.tag.value,
                "green_value": cls.green_value.value,
                "error_bound": cls.green_value.error_bound,
                "depth": cls.green_value.depth,
                "ambiguous": cls.ambiguous,
            },
            indent=1,
        )
    )
    return 0


def _cmd_green(args) -> int:
    spec = parse_spec_file(args.spec)
    z = _parse_point(args.point)
    fn = green_minus if args.direction == "minus" else green_plus
    g = fn(spec.henon, z, tol=args.tol, N_max=args.budget)
    print(
        json.dumps(
            {
                "direction": args.direction,
                "value": g.value,
                "error_bound": g.error_bound,
                "depth": g.depth,
            },
            indent=1,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="henoncover",
        description="Escaping-set machinery for generalized complex Henon maps",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--spec", required=True, help="map spec JSON path")
        p.set_defaults(func=func)
        return p

    p = command("info", _cmd_info, "degrees, Jacobian, radii, order bounds")
    p.add_argument("--out", help="output path")

    p = command("render", _cmd_render, "render a grid quantity to PGM")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--job", required=True, help="grid job JSON path")
    p.add_argument("--csv", help="optional raw CSV dump path")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--threads", type=int, default=1)

    p = command("verify", _cmd_verify, "run the invariant suite")
    p.add_argument(
        "--level", choices=("fast", "full"), default="fast", help="sample scale"
    )

    p = command("cover", _cmd_cover, "build and persist a covering chart")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--tol", type=float, default=1e-12)

    p = command("symmetries", _cmd_symmetries, "search affine symmetries")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--budget", type=int, default=200)

    p = command("classify", _cmd_classify, "sub-level classification of one point")
    p.add_argument("--point", required=True, help="re(x),im(x),re(y),im(y)")
    p.add_argument("--c", type=float, required=True, help="sub-level threshold")
    p.add_argument("--budget", type=int, default=256)

    p = command("green", _cmd_green, "Green's function at one point")
    p.add_argument("--point", required=True, help="re(x),im(x),re(y),im(y)")
    p.add_argument("--direction", choices=("plus", "minus"), default="plus")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--budget", type=int, default=256)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HenonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
