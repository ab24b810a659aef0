"""henoncover benchmark: the cover, render and query workloads.

    python3 perfbench/run.py --workload cover|render|query|all \
        --seed N --seconds S --trace 0|1

Run from a source checkout; the package is imported from ``src/``.  Each
run sets its workload up several times (setup_s is the median, rescaled
by the speed probe), then
repeats the workload's pass until ``--seconds`` elapse.  The pass time sums,
over the ops of a pass, each op's median time across the passes;
pass_norm divides it by the speed probe's rate: the geometric mean of the
median times of two fixed kernels run between the ops.
Every timed output is checked.  With ``--trace 1`` one more pass runs under the
span tracer and the metrics are its per-layer table.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it name every workload-specific metric with its unit and sample
count.  README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("cover", "render", "query")


def _import_package():
    if not (SRC / "henoncover" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no henoncover sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import henoncover
    import henoncover.cli
    import henoncover.verification  # noqa: F401  (traced module list)

    if Path(henoncover.__file__).resolve().parent != SRC / "henoncover":
        raise SystemExit(f"perfbench: imported henoncover from {henoncover.__file__}")
    return henoncover


hc = _import_package()
sys.path.insert(0, str(HERE))
import spans  # noqa: E402

# every lru_cache in the package, taken before any wrapper is installed
CACHES = {
    id(obj): obj
    for name in spans.MODULES
    for obj in vars(sys.modules[name]).values()
    if callable(getattr(obj, "cache_clear", None))
}.values()


def clear_caches():
    for fn in CACHES:
        fn.cache_clear()


@dataclass(frozen=True)
class Scale:
    maps: tuple
    resolution: int
    setup_repeats: int     # upper bound; each workload sets its own
    green_points: int      # accepted points per Green/annulus identity
    phi_points: int
    psi_pairs: int
    covering_points: int   # four covering_map calls each
    deck_levels: int       # deck labels k/d^n swept up to this n


FULL = Scale(("href", "htwo", "hcubic"), 512, 7, 40, 30, 30, 16, 3)
TINY = Scale(("href",), 64, 1, 6, 4, 3, 2, 1)


@dataclass
class Fixture:
    name: str
    H: object
    known: dict
    spec_path: Path


class Ledger:
    """Checked ops: each is (map, check, defect, tol, error)."""

    def __init__(self):
        self.ops = []

    def add(self, fx, check, defect, tol, error=None):
        self.ops.append((fx.name, check, float(defect), float(tol), error))

    def failures(self):
        return [op for op in self.ops if op[4] is not None or not op[2] <= op[3]]

    def worst(self):
        """(map, check) -> (worst defect, tol, ops, misses)."""
        out = {}
        for name, check, defect, tol, error in self.ops:
            d = np.inf if error is not None else defect
            worst, _, n, misses = out.get((name, check), (-np.inf, tol, 0, 0))
            miss = error is not None or not defect <= tol
            out[(name, check)] = (max(worst, d), tol, n + 1, misses + miss)
        return out


def load_fixtures(names, workdir):
    data = json.loads((HERE / "fixtures.json").read_text())["maps"]
    out = {}
    for name in names:
        f = data[name]
        H = hc.cli.parse_spec(f["spec"]).henon
        jac = complex(*f["jacobian"])
        if (H.d, H.d_prime) != (f["d"], f["d_prime"]) or abs(H.jacobian - jac) > 1e-14:
            raise SystemExit(
                f"perfbench: fixture {name} parsed to d={H.d}, d'={H.d_prime}, "
                f"a={H.jacobian}; expected {f['d']}, {f['d_prime']}, {jac}"
            )
        path = workdir / f"{name}.spec.json"
        path.write_text(json.dumps(f["spec"]))
        out[name] = Fixture(name, H, f["known_defects"], path)
    return out


def cli(*argv):
    """Run one CLI command in-process, as `henoncover ...` would."""
    with contextlib.redirect_stdout(io.StringIO()):
        return hc.cli.main([str(a) for a in argv])


def timed(samples, key, fn, *args, **kwargs):
    """Call fn and append its wall time to samples[key]."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    samples.setdefault(key, []).append(time.perf_counter() - t0)
    return out


_PROBE = np.array([1.0, 1j]) @ np.random.default_rng(0).normal(size=(2, 1 << 20))


def probe_compute():
    """About 10 ms of complex arithmetic and logs on 16k-point arrays."""
    a = _PROBE[: 1 << 14].copy()
    total = 0.0
    for _ in range(4):
        a = a * 0.999 + 0.001j
        total += float(np.abs(a).max()) + float(np.log(1.0 + 0.1 * a).real.sum())
    return total


def probe_memory():
    """5-17 ms of complex arithmetic on a 1M-point (16 MB) array."""
    a = _PROBE * 0.999 + 0.001j
    return float(np.abs(a).max())


# setup_s is set-up wall time rescaled to the machine speed at which the
# probe rate is this; on 2 shared cores at their fastest it was 7-8 ms
REFERENCE_PROBE_S = 0.008


class SpeedProbe:
    """Rates the machine over a run with kernels timed between its ops.

    The shared cores run the same code up to a third faster or slower for
    tens of seconds at a time, and compute-bound and memory-bound code do
    not slow alike.  Each kernel runs three times before an op once
    `every` seconds have passed since they last ran, and around each pass.
    The rate is the geometric mean of the kernels' median times.
    """

    kernels = (probe_compute, probe_memory)

    def __init__(self, every=0.5):
        self.every = every
        self.times = {k.__name__: [] for k in self.kernels}
        self.last = -np.inf

    def probe(self):
        for _ in range(3):
            for kernel in self.kernels:
                t = time.perf_counter()
                kernel()
                self.times[kernel.__name__].append(time.perf_counter() - t)
        self.last = time.perf_counter()

    def before_op(self):
        if time.perf_counter() - self.last >= self.every:
            self.probe()

    def seconds(self):
        return float(np.exp(np.mean([np.log(statistics.median(ts)) for ts in self.times.values()])))


def unit(samples, fn, *args, **kwargs):
    """Call fn as one op of the current pass and record its wall time."""
    if "probe" in samples:
        samples["probe"].before_op()
    t0 = time.perf_counter()
    try:
        return fn(*args, **kwargs)
    finally:
        samples["units"][-1].append(time.perf_counter() - t0)


def pass_seconds(units):
    """Sum over a pass's ops of each op's median time across passes."""
    if len({len(u) for u in units}) != 1:
        raise RuntimeError("passes of one run made different numbers of ops")
    return sum(statistics.median(ts) for ts in zip(*units))


def import_seconds():
    """Wall time of a fresh interpreter importing the CLI module."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import henoncover.cli"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def _rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def _strata(rng, n, lo=0.0, hi=1.0):
    """n draws from U(lo, hi), one per equal-width stratum, in random order.

    Same distribution as iid uniforms, with less seed-to-seed variation in
    the total cost of the calls they feed.
    """
    return lo + (hi - lo) * rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def _phases(rng, n):
    return np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def _box(rng, half, m):
    u = rng.uniform(-1.0, 1.0, (m, 4))
    return half * (u[:, 0] + 1j * u[:, 1]), half * (u[:, 2] + 1j * u[:, 3])


# ---------------------------------------------------------------------------
# cover: one `henoncover cover` per fixture, each from the cold caches a
# fresh process has.


class CoverWorkload:
    name = "cover"
    setup_repeats = 7

    def __init__(self, seed, scale, workdir):
        self.workdir = workdir
        self.fixtures = load_fixtures(scale.maps, workdir)
        self.agreement = 0.0

    def run_pass(self, ledger, samples, tracer=None):
        outputs = []
        for fx in self.fixtures.values():
            clear_caches()
            out = self.workdir / f"{fx.name}.chart.json"
            if tracer is not None:
                tracer.op = f"cover:{fx.name}"
            rc = unit(samples, cli, "cover", "--spec", fx.spec_path, "--out", out)
            if rc != 0:
                ledger.add(fx, "cover.q_structure", np.inf, 1.0, f"exit {rc}")
                continue
            outputs.append(hashlib.sha256(out.read_bytes()).hexdigest())
            chart = hc.load_chart(out)
            H = fx.H
            monic = abs(chart.Q.coeffs[-1] - 1.0)
            agree = chart.meta.get("two_radius_agreement", np.inf)
            self.agreement = max(self.agreement, agree)
            bad_degree = chart.Q.degree != H.d + H.d_prime
            # the normalisation of verification.check_q_structure
            ledger.add(fx, "cover.q_structure", max(float(bad_degree), monic / 1e-6, agree / 1e-7), 1.0)
        return outputs

    def report(self, pass_s, samples, out):
        units = samples["units"]
        out.append(("cover_s", pass_s, "s", len(units), "passes"))
        for fx, col in zip(self.fixtures.values(), zip(*units)):
            out.append((f"cover_s.{fx.name}", statistics.median(col), "s", len(col), "ops"))
        out.append(("chart_agreement", self.agreement, "1", len(self.fixtures), "charts"))


# ---------------------------------------------------------------------------
# render: `henoncover render` over planes x quantities x fixtures at 1
# thread, then once more at 2; checked for byte identity across repeats and
# thread counts, and against scalar green_plus at seeded pixels.


class RenderWorkload:
    name = "render"
    setup_repeats = 7

    def __init__(self, seed, scale, workdir):
        self.workdir = workdir
        self.fixtures = load_fixtures(scale.maps, workdir)
        cfg = self.cfg = json.loads((HERE / "render_jobs.json").read_text())
        rng = np.random.default_rng([seed, 2])
        self.jobs = []  # (fixture, job dict, job path)
        for fx in self.fixtures.values():
            for plane in cfg["planes"]:
                jitter = rng.uniform(-cfg["jitter"], cfg["jitter"], 2)
                for q in cfg["quantities"]:
                    job = {
                        "plane": {k: plane[k] for k in ("kind", "value") if k in plane},
                        "window": {
                            "center": [plane["center"][0] + jitter[0], plane["center"][1] + jitter[1]],
                            "width": plane["width"],
                            "height": plane["height"],
                        },
                        "resolution": [scale.resolution, scale.resolution],
                        "quantity": q,
                        "clamp": cfg["clamp"],
                    }
                    path = workdir / f"{fx.name}-{plane['kind']}-{q['kind']}.job.json"
                    path.write_text(json.dumps(job))
                    self.jobs.append((fx, job, path))
        self.mpix = len(self.jobs) * scale.resolution**2 / 1e6
        self.digests = {}  # job index -> set of PGM digests
        self.pixel_seed = [seed, 3]
        self.pixels_checked = False

    def run_pass(self, ledger, samples, tracer=None, threads=None):
        """The job list at one thread count (the first one by default)."""
        threads = threads or self.cfg["threads"][0]
        outputs = []
        for i, (fx, job, path) in enumerate(self.jobs):
            pgm = self.workdir / f"job{i}-t{threads}.pgm"
            if tracer is not None:
                tracer.op = f"render:{i}:t{threads}"
            rc = unit(
                samples, cli, "render", "--spec", fx.spec_path, "--job", path,
                "--out", pgm, "--threads", threads, "--budget", self.cfg["budget"],
            )
            if rc != 0:
                ledger.add(fx, "render.exit", np.inf, 0.0, f"exit {rc}")
                continue
            data = pgm.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            outputs.append(digest)
            self.digests.setdefault(i, set()).add(digest)
            if not self.pixels_checked and job["quantity"]["kind"] == "green_plus":
                self._check_pixels(i, fx, job, data, ledger)
        self.pixels_checked = True
        return outputs

    def _check_pixels(self, i_job, fx, job, data, ledger):
        """Seeded pixels of a green_plus image against scalar green_plus."""
        head = data.split(b"\n", 3)
        nx, ny = (int(v) for v in head[1].split())
        pix = np.frombuffer(head[3], dtype=">u2").reshape(ny, nx)
        rng = np.random.default_rng(self.pixel_seed + [i_job])
        clamp = job["clamp"]
        scale = 65535.0 / clamp
        (cx, cy), w, h = job["window"]["center"], job["window"]["width"], job["window"]["height"]
        for _ in range(self.cfg["pixel_checks_per_job"]):
            i, j = int(rng.integers(nx)), int(rng.integers(ny))
            # pixel centres as cli.render_grid lays them out
            u = cx - 0.5 * w + (i + 0.5) * (w / nx)
            v = cy + 0.5 * h - (j + 0.5) * (h / ny)
            if job["plane"]["kind"] == "fix_y":
                z = hc.Point(complex(u, v), complex(*job["plane"]["value"]))
            else:
                z = hc.Point(complex(u), complex(v))
            g = hc.green_plus(fx.H, z, tol=1e-10, N_max=self.cfg["budget"])
            expect = min(g.value, clamp) * scale
            # rounding to a gray level moves a pixel by at most half a level
            defect = abs(float(pix[j, i]) - expect) - 0.5 - g.error_bound * scale
            ledger.add(fx, "render.pixel_vs_scalar", max(defect, 0.0), 1e-6)

    def finish(self, ledger, samples):
        """Repeat the job list at the other thread counts; compare bytes."""
        for threads in self.cfg["threads"][1:]:
            extra = {"units": [[]]}
            self.run_pass(ledger, extra, None, threads)
            samples[f"t{threads}"] = [sum(extra["units"][0])]
        for i, (fx, _, _) in enumerate(self.jobs):
            ledger.add(fx, "render.bytes_identical", float(len(self.digests.get(i, ())) != 1), 0.0)

    def report(self, pass_s, samples, out):
        out.append(("render_mpix_s", self.mpix / pass_s, "Mpix/s", len(samples["units"]), "passes"))
        for threads in self.cfg["threads"][1:]:
            times = samples[f"t{threads}"]
            out.append((f"render_{threads}t_mpix_s", self.mpix / _median(times), "Mpix/s", len(times), "passes"))
        out.append(("render_mpix", self.mpix, "Mpix", len(self.jobs), "jobs"))


# ---------------------------------------------------------------------------
# query: single-point calls on prebuilt charts, drawn from the sample
# domains of verification.py and checked at its contract tolerances.


class QueryWorkload:
    name = "query"
    setup_repeats = 3

    def __init__(self, seed, scale, workdir):
        self.fixtures = load_fixtures(scale.maps, workdir)
        self.scale = scale
        clear_caches()
        self.charts = {name: hc.build_chart(fx.H) for name, fx in self.fixtures.items()}
        self.agreement = max(c.meta["two_radius_agreement"] for c in self.charts.values())
        self.streams = {
            name: self._stream(np.random.default_rng([seed, 1, k]), fx, self.charts[name])
            for k, (name, fx) in enumerate(self.fixtures.items())
        }

    def _stream(self, rng, fx, chart):
        s, H = self.scale, fx.H
        R = hc.filtration_radius(H).R
        M = chart.region.M
        d = H.d
        n_cand = 4 * s.green_points
        st = {
            "green_plus": _box(rng, 2.0 * R, n_cand),
            "green_minus": _box(rng, 2.0 * R, n_cand),
            "sublevel": _box(rng, 1.5 * R, n_cand),
            "annulus": _box(rng, 2.0 * R, n_cand),
        }
        # the domains of verification.check_boettcher, check_chart_semiconjugacy,
        # check_covering_map, check_deck and check_deck_additivity
        n = s.phi_points
        ys = M * R * np.exp(_strata(rng, n, np.log(1.5), np.log(8.0))) * _phases(rng, n)
        xs = _strata(rng, n) * np.abs(ys) / (2.0 * M) * _phases(rng, n)
        st["phi"] = (xs, ys)
        n = s.psi_pairs
        ys = 2.0 * M * R * _strata(rng, n, 1.0, 4.0) * _phases(rng, n)
        xs = _strata(rng, n) * np.abs(ys) / (3.0 * M) * _phases(rng, n)
        st["psi"] = (xs, ys)

        def cover_points(m, lo, hi, zscale):
            zeta = _strata(rng, m, lo, hi) * _phases(rng, m)
            z = zscale * (rng.normal(size=m) + 1j * rng.normal(size=m))
            return [hc.CoverPoint(complex(a), complex(b)) for a, b in zip(z, zeta)]

        st["covering"] = cover_points(s.covering_points, 1.15, 2.0, 0.4)
        # every label verification sweeps, one seeded point each
        labels = [(n, k) for n in range(1, s.deck_levels + 1) for k in range(1, d**n)]
        st["deck"] = list(zip(labels, cover_points(len(labels), 1.2, 2.5, 1.0)))
        pairs = [(n, k1, k2) for n in (1, 2)[: s.deck_levels] for k1 in range(d**n) for k2 in range(d**n)]
        st["additivity"] = list(zip(pairs, cover_points(len(pairs), 1.2, 2.2, 1.0)))
        return st

    def run_pass(self, ledger, samples, tracer=None):
        outputs = []
        for name, fx in self.fixtures.items():
            if tracer is not None:
                tracer.op = f"query:{name}"
            outputs += self._run_map(fx, self.charts[name], self.streams[name], ledger, samples)
        return outputs

    def check_known(self, ledger):
        """Run, untimed, the identities each map is known to fail.

        The timed stream leaves them out, so none of its ops fails; here
        they run on the same seeded points at the same tolerances, and
        every miss is counted.
        """
        for name, fx in self.fixtures.items():
            self._run_map(fx, self.charts[name], self.streams[name], ledger, {"units": [[]]}, known=True)

    def _run_map(self, fx, chart, st, ledger, samples, known=False):
        """The map's identities: those not in fx.known, or with known=True only those."""
        H, d = fx.H, fx.H.d
        apply = hc.henon.apply
        outs = []

        def wanted(check):
            return (check in fx.known) == known

        def call(key, fn, *args, **kwargs):
            return timed(samples, key, fn, *args, **kwargs)

        def op(check, tol, fn, *args):
            if not wanted(check):
                return
            try:
                defect = unit(samples, fn, *args)
            except hc.HenonError as exc:
                ledger.add(fx, check, np.inf, tol, type(exc).__name__)
                return
            outs.append(defect)
            ledger.add(fx, check, defect, tol)

        def escaping(fn, cand):
            """Rejection-sample escaping points as verification does."""
            pts = []
            for x, y in zip(*cand):
                if len(pts) == self.scale.green_points:
                    break
                z = hc.Point(complex(x), complex(y))
                g = unit(samples, call, "green", fn, H, z, N_max=96)
                if g.value > 0.01:
                    pts.append((z, g.value))
            return pts

        for z, g in escaping(hc.green_plus, st["green_plus"]) if wanted("green.functorial") else ():
            op("green.functorial", 1e-6, lambda z, g: _rel(
                call("green", hc.green_plus, H, apply(H, z), N_max=96).value, d * g), z, g)
        for z, g in escaping(hc.green_minus, st["green_minus"]) if wanted("green.functorial_minus") else ():
            op("green.functorial_minus", 1e-6, lambda z, g: _rel(
                call("green", hc.green_minus, H, hc.apply_inverse(H, z), N_max=96).value, d * g), z, g)

        def classify_pair(z, c=0.8):
            return (
                call("classify", hc.classify_sublevel, H, c, z, budget=128),
                call("classify", hc.classify_sublevel, H, d * c, apply(H, z), budget=128),
            )

        for x, y in zip(*st["sublevel"]) if wanted("shortc2.equivariance") else ():
            c1, c2 = unit(samples, classify_pair, hc.Point(complex(x), complex(y)))
            if not (c1.ambiguous or c2.ambiguous):
                ledger.add(fx, "shortc2.equivariance", float(c1.tag is not c2.tag), 0.0)

        def phi_defect(x, y):
            z = hc.Point(complex(x), complex(y))
            p = call("bottcher_phi", hc.bottcher_phi, H, z)
            p2 = call("bottcher_phi", hc.bottcher_phi, H, apply(H, z))
            g = call("green", hc.green_plus, H, z, N_max=96)
            return max(abs(p2 - p**d) / abs(p) ** d, abs(np.log(abs(p)) - g.value))

        for x, y in zip(*st["phi"]):
            op("boettcher.semiconjugacy", 1e-8, phi_defect, x, y)

        def psi_defect(x, y):
            z = hc.Point(complex(x), complex(y))
            w1 = call("psi_tilde", hc.psi_tilde, chart, apply(H, z))
            w2 = hc.lift_H(chart, call("psi_tilde", hc.psi_tilde, chart, z))
            return max(_rel(w1.z, w2.z), _rel(w1.zeta, w2.zeta))

        for x, y in zip(*st["psi"]):
            op("cover.semiconjugacy", 1e-6, psi_defect, x, y)

        def cm(w):
            return call("covering_map", hc.covering_map, chart, w, 20)

        def point_defect(p, q):
            return max(abs(p.x - q.x), abs(p.y - q.y)) / max(1.0, abs(q.x), abs(q.y))

        one = hc.DeckLabel.reduced(1, 1, d)
        for w in st["covering"]:
            op("cover.projection", 1e-6, lambda w: point_defect(cm(hc.lift_H(chart, w)), apply(H, cm(w))), w)
            op("cover.projection", 1e-6, lambda w: point_defect(cm(hc.deck(chart, one, w)), cm(w)), w)

        def cover_defect(a, b):
            return max(_rel(a.z, b.z), _rel(a.zeta, b.zeta))

        def deck(k, n, w):
            return hc.deck(chart, hc.DeckLabel.reduced(k, n, d), w)

        for (n, k), w in st["deck"]:
            op("cover.deck_relation", 1e-10, lambda n, k, w: cover_defect(
                hc.lift_H(chart, deck(k, n, w)), deck(k, n - 1, hc.lift_H(chart, w))), n, k, w)
        for (n, k1, k2), w in st["additivity"]:
            op("cover.deck_additivity", 1e-10, lambda n, k1, k2, w: cover_defect(
                deck(k1, n, deck(k2, n, w)), deck(k1 + k2, n, w)), n, k1, k2, w)

        def modulus_defect(z):
            z1 = call("annulus", hc.annulus_coordinate, chart, z)
            z2 = call("annulus", hc.annulus_coordinate, chart, apply(H, z))
            return abs(abs(z2) - abs(z1) ** d) / abs(z1) ** d

        for z, _ in escaping(hc.green_plus, st["annulus"]) if wanted("shortc2.modulus_law") else ():
            op("shortc2.modulus_law", 1e-8, modulus_defect, z)

        def symmetry_defect():
            rep = call("symmetry", hc.find_affine_symmetries, H)
            cyclic, order = hc.verify_cyclic(rep)
            bound = (H.d + H.d_prime) * (H.d - 1)
            return float(not cyclic or order < 1 or bound % order != 0)

        op("symmetry.group_structure", 0.0, symmetry_defect)
        return outs

    def report(self, pass_s, samples, out):
        out.append(("query_s", pass_s, "s", len(samples["units"]), "passes"))
        for key in ("green", "psi_tilde", "covering_map"):
            ms = [1e3 * t for t in samples.get(key, [])]
            p50, p90 = _p50_p90(ms)
            out.append((f"{key}_p50_ms", p50, "ms", len(ms), "calls"))
            out.append((f"{key}_p90_ms", p90, "ms", len(ms), "calls"))
        sym = samples.get("symmetry", [])
        k = len(self.fixtures)
        sums = [sum(sym[i : i + k]) for i in range(0, len(sym), k)]
        out.append(("symmetry_s", _median(sums), "s", len(sums), "passes"))
        out.append(("chart_agreement", self.agreement, "1", len(self.charts), "charts"))


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _p50_p90(xs):
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (float("nan"), float("nan"))
    return statistics.median(xs), statistics.quantiles(xs, n=10, method="inclusive")[8]


CLASSES = {w.name: w for w in (CoverWorkload, RenderWorkload, QueryWorkload)}


# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, scale=FULL):
    """One benchmark run of a workload; returns a result dict."""
    if spans.installed_wrappers():
        raise RuntimeError(f"tracer wrappers installed: {spans.installed_wrappers()}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        probe = SpeedProbe()
        setups = []
        for _ in range(min(scale.setup_repeats, CLASSES[name].setup_repeats)):
            probe.probe()
            t_import = import_seconds()
            t0 = time.perf_counter()
            wl = CLASSES[name](seed, scale, workdir)
            setups.append(t_import + time.perf_counter() - t0)

        ledger = Ledger()
        samples = {"units": [], "probe": probe}
        t_start = time.perf_counter()
        while not samples["units"] or time.perf_counter() - t_start < seconds:
            if spans.installed_wrappers():
                raise RuntimeError("tracer wrappers installed during an untraced pass")
            samples["units"].append([])
            samples["probe"].probe()
            outputs = timed(samples, "pass", wl.run_pass, ledger, samples)
        probe.probe()
        pass_s = pass_seconds(samples["units"])
        probe_s = probe.seconds()
        pass_norm = pass_s / probe_s
        setup_s = _median(setups) * REFERENCE_PROBE_S / probe_s
        result = {"workload": name, "seed": seed, "trace": trace}
        if trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced_outputs = wl.run_pass(ledger, {"units": [[]]}, tracer)
                traced_pass = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            if traced_outputs != outputs:
                ledger.add(next(iter(wl.fixtures.values())), "trace.outputs_identical", 1.0, 0.0)
            layers = tracer.layer_metrics()
            layers["trace_overhead_frac"] = traced_pass / _median(samples["pass"]) - 1.0
            tracer.dump(OUT / f"trace-{name}-{seed}.json")
            result["layers"] = layers
        if hasattr(wl, "finish"):
            wl.finish(ledger, samples)
        known = Ledger()
        if hasattr(wl, "check_known"):
            wl.check_known(known)

        rows = [
            ("setup_s", setup_s, "s", len(setups), "setups"),
            ("setup_wall_s", _median(setups), "s", len(setups), "setups"),
            ("pass_norm", pass_norm, "probe", len(samples["units"]), "passes"),
        ]
        for kernel, ts in probe.times.items():
            rows.append((f"{kernel}_ms", 1e3 * statistics.median(ts), "ms", len(ts), "runs"))
        wl.report(pass_s, samples, rows)
        fails = ledger.failures()
        rows.append(("failed_frac", len(fails) / max(len(ledger.ops), 1), "1", len(ledger.ops), "ops"))
        if known.ops:
            rows.append(("known_defect_frac", len(known.failures()) / len(known.ops), "1", len(known.ops), "checks"))
        result.update(
            rows=rows,
            pass_norm=pass_norm,
            setup_s=setup_s,
            attempted=len(ledger.ops),
            failed=len(fails),
            failures=fails,
            worst=ledger.worst(),
            known=known.worst(),
            outputs=outputs,
        )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _print_human(res):
    print(f"# workload={res['workload']} seed={res['seed']} trace={res['trace']}")
    for key, value, unit_, n, what in res["rows"]:
        print(f"{res['workload']}.{key:<24} {value:12.6g} {unit_:<7} (n={n} {what})")
    for key, value in res.get("layers", {}).items():
        print(f"{res['workload']}.layer.{key:<44} {value:.6g}")
    for (mapname, check), (defect, tol, n, misses) in sorted(res["worst"].items()):
        if misses:
            print(f"  FAIL {mapname}.{check}: {misses} of {n} ops, worst defect {defect:.3e} > tol {tol:.1e}")
    for mapname, check, defect, tol, error in res["failures"][:20]:
        print(f"  FAILED OP {mapname}.{check}: defect {defect:.3e} tol {tol:.1e} {error or ''}")
    for (mapname, check), (defect, tol, n, misses) in sorted(res["known"].items()):
        if misses:
            print(f"  KNOWN DEFECT {mapname}.{check}: {misses} of {n} checks, worst defect {defect:.3e} > tol {tol:.1e}")
        else:
            print(f"  KNOWN DEFECT FIXED {mapname}.{check}: {n} of {n} checks within tol {tol:.1e};"
                  " drop it from known_defects in fixtures.json")


def _metrics(res):
    if res["trace"]:
        return {
            k: {"value": v, "unit": "ratio" if k == "trace_overhead_frac" else ("s" if k.endswith("_s") else "count")}
            for k, v in res["layers"].items()
        }
    return {
        "pass_norm": {"value": res["pass_norm"], "unit": "probe"},
        "setup_s": {"value": res["setup_s"], "unit": "s"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    for res in results:
        _print_human(res)
    line = {
        "correct": not any(res["failures"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
    }
    if len(results) == 1:
        line["metrics"] = _metrics(results[0])
    else:
        line["metrics"] = {
            f"{res['workload']}.{k}": v for res in results for k, v in _metrics(res).items()
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
