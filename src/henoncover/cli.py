"""Command-line surface: map specs, rendering, persistence, verification.

Subcommands: info, render, verify, cover, symmetries, classify, green.
All persisted artifacts are JSON, read by henon's one reader (a complex
is a finite number or an [re, im] pair of them); images are binary PGM
(P5, maxval 65535) built tile by tile (whole rows,
about TILE_POINTS pixels, one grid-kernel call each; the kernels read a
tile's coordinates in place, work through a call in blocks of
green.BLOCK_POINTS, pool the escape loop's long tail and finish each
pixel inside that loop, at its escape or at the stop modulus of G+) into
a preallocated buffer, so bytes are independent of the worker count.
quantize scales one copy of the values in place, and write_pgm writes
the header and then that buffer.
Exit codes: 0 ok, 1 verification failure, 2 input error.

The module imports only what info, render, green and symmetries run
(henon, filtration, green, symmetry); verify, cover and classify import
verification, cover and shortc2 when they run, and render imports its
thread pool only where --threads > 1 and the job has more than one tile.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .filtration import filtration_radius
from .green import (
    SUBLEVEL_ABOVE,
    SUBLEVEL_BELOW,
    SUBLEVEL_K_PLUS,
    attracting_traps,
    escape_time_grid,
    green_minus,
    green_plus,
    green_plus_grid,
    sublevel_grid,
)
from .henon import (
    HenonError, HenonMap, Point, SpecError, _c2l, _complex_from, _count_from, _number_from,
    map_from_json,
)
from .symmetry import compute_d0, find_affine_symmetries, save_report, symmetry_order_bound

__all__ = [
    "SpecError",
    "MapSpec",
    "GridJob",
    "parse_spec",
    "parse_spec_file",
    "parse_grid_job",
    "render_grid",
    "write_pgm",
    "main",
]

MAX_PIXELS = 16384 * 16384
# pixels per render tile: one grid-kernel call covers this many points,
# 8 escape blocks of green.BLOCK_POINTS whose survivors are iterated as one pool
TILE_POINTS = 131072
SUBLEVEL_SHADES = {"k_plus": 0, "omega_prime": 32768, "outside": 65535}
# the shade of each green.sublevel_grid class code
_CLASS_SHADES = np.zeros(3)
_CLASS_SHADES[[SUBLEVEL_K_PLUS, SUBLEVEL_BELOW, SUBLEVEL_ABOVE]] = [
    SUBLEVEL_SHADES[k] for k in ("k_plus", "omega_prime", "outside")
]


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
        if not self.clamp > 0:
            raise SpecError("clamp", "must be positive")


def parse_spec(data) -> MapSpec:
    if not isinstance(data, dict):
        raise SpecError("<root>", "spec must be a JSON object")
    H = map_from_json(data.get("factors"))
    name = data.get("name", "")
    if not isinstance(name, str):
        raise SpecError("name", "must be a string")
    return MapSpec(name, H)


def parse_spec_file(path) -> MapSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("<file>", str(exc)) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError("<json>", f"line {exc.lineno}: {exc.msg}") from exc
    return parse_spec(data)


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
        center=tuple(_number_from(v, "window.center") for v in center),
        width=_number_from(window.get("width", 0.0), "window.width"),
        height=_number_from(window.get("height", 0.0), "window.height"),
        nx=_count_from(res[0], "resolution"),
        ny=_count_from(res[1], "resolution"),
        quantity=qkind,
        c=_number_from(quantity.get("c", 0.0), "quantity.c") if qkind == "sublevel" else 0.0,
        clamp=_number_from(data.get("clamp", 4.0), "clamp"),
    )


def _tile_points(job: GridJob, j0: int, j1: int):
    """Pixel centres of rows j0..j1-1 as two (j1 - j0, nx) arrays.

    Complex on fix_x and fix_y, float on real_slice (the grid kernels run
    a real map's real slice in float64, with the same results).  A
    coordinate that does not vary along a row or column is a read-only
    broadcast view, not a filled array.
    """
    i = np.arange(job.nx)
    j = np.arange(j0, j1)
    u = job.center[0] - 0.5 * job.width + (i + 0.5) * (job.width / job.nx)
    v = job.center[1] + 0.5 * job.height - (j + 0.5) * (job.height / job.ny)
    shape = (j1 - j0, job.nx)
    anchor = np.broadcast_to(np.complex128(job.anchor), shape)
    if job.plane == "fix_x":
        return anchor, u + 1j * v[:, None]
    if job.plane == "fix_y":
        return u + 1j * v[:, None], anchor
    return np.broadcast_to(u, shape), np.broadcast_to(v[:, None], shape)


def render_grid(
    H: HenonMap, job: GridJob, budget: int = 64, threads: int = 1, tol: float = 1e-10
):
    """Raw quantity values, row-major float array of shape (ny, nx).

    The rows are cut into tiles of TILE_POINTS // nx whole rows (at least
    one), and each tile is one call of the elementwise grid kernels: a
    512^2 job is two calls, so two threads still share it.  Within a call
    the kernels run the first escape steps in blocks of green.BLOCK_POINTS
    and the rest of the escape loop on the pooled points still in play,
    and each pixel finishes in that loop: at its escape, at its sub-level
    band, or at the stop modulus of G+ (green._escape_steps); a pixel
    meets the same operations in either phase.  A pixel's value depends
    only on its own coordinates, and the tiles are fixed by the job alone,
    so the result is the same for any number of worker threads.  At most
    one worker runs per tile, and threads <= 1 runs the tiles in turn.
    """
    out = np.empty((job.ny, job.nx), dtype=float)
    rows = max(1, TILE_POINTS // job.nx)

    def fill_tile(j0: int):
        j1 = min(j0 + rows, job.ny)
        xs, ys = _tile_points(job, j0, j1)
        if job.quantity == "escape_time":
            out[j0:j1] = escape_time_grid(H, xs, ys, budget)
            return
        if job.quantity == "sublevel":
            out[j0:j1] = _CLASS_SHADES[sublevel_grid(H, xs, ys, budget, job.c, tol)]
            return
        out[j0:j1] = green_plus_grid(H, xs, ys, budget, tol)[0]

    tiles = range(0, job.ny, rows)
    workers = min(threads, len(tiles))
    if workers <= 1:
        for j0 in tiles:
            fill_tile(j0)
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill_tile, tiles))
    return out


def quantize(job: GridJob, values) -> np.ndarray:
    """Clamp and linearly scale to 16-bit gray levels (values is left as given)."""
    if job.quantity == "sublevel":
        return values.astype(">u2")
    scaled = np.clip(values, 0.0, job.clamp)
    scaled *= 65535.0 / job.clamp
    return np.rint(scaled, out=scaled).astype(">u2")


def write_pgm(path, pixels: np.ndarray):
    """Binary PGM: the header, then the big-endian 16-bit pixel buffer."""
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(np.ascontiguousarray(pixels, dtype=">u2"))


def write_csv(path, values: np.ndarray):
    np.savetxt(path, values, fmt="%.17g", delimiter=",")


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
        "symmetry_order_bound": symmetry_order_bound(H.d, H.d_prime),
        "attracting_traps": [
            {
                "fixed_point": [_c2l(t.point.x), _c2l(t.point.y)],
                "spectral_radius": t.spectral_radius,
                "r": t.r,
            }
            for t in attracting_traps(H)
        ],
    }
    text = json.dumps(info, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


def _budget(args) -> int:
    if args.budget < 0:
        raise SpecError("--budget", "must be nonnegative")
    return args.budget


def _threads(args) -> int:
    if args.threads < 1:
        raise SpecError("--threads", "must be at least 1")
    return args.threads


def _tol(args) -> float:
    if not 0.0 < args.tol < np.inf:
        raise SpecError("--tol", "must be positive and finite")
    return args.tol


def _cmd_render(args) -> int:
    spec = parse_spec_file(args.spec)
    try:
        job = parse_grid_job(json.loads(Path(args.job).read_text(encoding="utf-8")))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError("<job>", str(exc)) from exc
    values = render_grid(
        spec.henon, job, budget=_budget(args), threads=_threads(args), tol=_tol(args)
    )
    write_pgm(args.out, quantize(job, values))
    if args.csv:
        write_csv(args.csv, values)
    print(f"wrote {args.out} ({job.nx}x{job.ny}, {job.quantity})")
    return 0


def _cmd_verify(args) -> int:
    from . import verification

    spec = parse_spec_file(args.spec)
    results = verification.run_suite(spec.henon, level=args.level)
    failed = verification.print_results(results)
    return 0 if failed == 0 else 1


def _cmd_cover(args) -> int:
    from .cover import build_chart, save_chart

    spec = parse_spec_file(args.spec)
    chart = build_chart(spec.henon)
    save_chart(chart, args.out)
    print(
        f"wrote {args.out} (deg Q = {chart.Q.degree}, Mtilde = {chart.Mtilde:g}, "
        f"series tail = {chart.series_tail:.1e})"
    )
    return 0


def _cmd_symmetries(args) -> int:
    spec = parse_spec_file(args.spec)
    report = find_affine_symmetries(spec.henon)
    save_report(report, args.out)
    print(
        f"wrote {args.out} (order {report.order}, "
        f"max commutation defect {report.max_commutation_defect:.3e})"
    )
    return 0


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 4:
        raise SpecError("--point", "expected re(x),im(x),re(y),im(y)")
    try:
        vals = [_number_from(float(p), "--point") for p in parts]
    except ValueError as exc:
        raise SpecError("--point", str(exc)) from exc
    return Point(complex(vals[0], vals[1]), complex(vals[2], vals[3]))


def _cmd_classify(args) -> int:
    from .shortc2 import classify_sublevel

    spec = parse_spec_file(args.spec)
    z = _parse_point(args.point)
    if not args.c > 0:
        raise SpecError("--c", "must be positive")
    cls = classify_sublevel(spec.henon, args.c, z, budget=_budget(args))
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
    g = fn(spec.henon, z, tol=_tol(args), N_max=_budget(args))
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


_OUT = ("--out", dict(required=True, help="output path"))
_POINT = ("--point", dict(required=True, help="re(x),im(x),re(y),im(y)"))

# subcommand -> (handler, help, its arguments after --spec as (flag, keywords))
_COMMANDS = {
    "info": (_cmd_info, "degrees, Jacobian, radii, order bounds", [
        ("--out", dict(help="output path")),
    ]),
    "render": (_cmd_render, "render a grid quantity to PGM", [
        _OUT,
        ("--job", dict(required=True, help="grid job JSON path")),
        ("--csv", dict(help="optional raw CSV dump path")),
        ("--tol", dict(type=float, default=1e-10)),
        ("--budget", dict(type=int, default=64)),
        ("--threads", dict(type=int, default=1)),
    ]),
    "verify": (_cmd_verify, "run the invariant suite", [
        ("--level", dict(choices=("fast", "full"), default="fast", help="sample scale")),
    ]),
    "cover": (_cmd_cover, "build and persist a covering chart", [_OUT]),
    "symmetries": (_cmd_symmetries, "search affine symmetries", [_OUT]),
    "classify": (_cmd_classify, "sub-level classification of one point", [
        _POINT,
        ("--c", dict(type=float, required=True, help="sub-level threshold")),
        ("--budget", dict(type=int, default=256)),
    ]),
    "green": (_cmd_green, "Green's function at one point", [
        _POINT,
        ("--direction", dict(choices=("plus", "minus"), default="plus")),
        ("--tol", dict(type=float, default=1e-10)),
        ("--budget", dict(type=int, default=256)),
    ]),
}


def _parser(commands) -> argparse.ArgumentParser:
    """The henoncover parser with only the named subcommands."""
    ap = argparse.ArgumentParser(
        prog="henoncover",
        description="Escaping-set machinery for generalized complex Henon maps",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in commands:
        func, help, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.add_argument("--spec", required=True, help="map spec JSON path")
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return ap


def _check_outputs(args):
    """A SpecError naming --out or --csv unless it is a file path in an existing directory.

    Checked before any work, so a render does not compute an image it cannot write.
    """
    for flag in ("--out", "--csv"):
        path = getattr(args, flag[2:], None)
        if path is None:
            continue
        if not Path(path).parent.is_dir():
            raise SpecError(flag, f"no such directory: {str(Path(path).parent)!r}")
        if Path(path).is_dir():
            raise SpecError(flag, f"is a directory: {path!r}")


def main(argv=None) -> int:
    """Run one subcommand; its parser alone is built when argv names one."""
    argv = sys.argv[1:] if argv is None else list(argv)
    ap = _parser([argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS)
    args = ap.parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HenonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
