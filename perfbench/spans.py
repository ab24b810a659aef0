"""Span tracer for the benchmark's traced run.

Wraps the public function of each henoncover layer at every module
attribute that binds it (``phi_series`` lives in both ``boettcher`` and
``green``; ``cover`` and ``cli`` import by name), records one span per
call in memory, and restores the originals on ``uninstall``.  A span is
``(name, start, end, parent, op, points)``; its self time is its duration
minus the union of its children's intervals.

A span opened on a thread with no open span of its own (a render worker)
is parented to the innermost open span of the thread that installed the
tracer, which is the thread waiting on the pool.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

import numpy as np

MODULES = (
    "henoncover",
    "henoncover.henon",
    "henoncover.filtration",
    "henoncover.green",
    "henoncover.boettcher",
    "henoncover.cover",
    "henoncover.symmetry",
    "henoncover.shortc2",
    "henoncover.cli",
    "henoncover.verification",
)

# (defining module, function, reports points = size of its second argument)
WRAPPED = (
    ("filtration", "filtration_radius", False),
    ("green", "green_plus", False),
    ("green", "green_minus", False),
    ("green", "green_plus_grid", True),
    ("green", "escape_time_grid", True),
    ("boettcher", "phi_series", True),
    ("boettcher", "dphi_dy_vec", True),
    ("boettcher", "lambda_vec", True),
    ("boettcher", "dlambda_dy_vec", True),
    ("boettcher", "certify_region", False),
    ("boettcher", "bottcher_phi", False),
    ("cover", "build_chart", False),
    ("cover", "r_series", False),
    ("cover", "save_chart", False),
    ("cover", "psi_integral", False),
    ("cover", "psi_tilde", False),
    ("cover", "psi_tilde_inverse", False),
    ("cover", "covering_map", False),
    ("cover", "deck", False),
    ("cover", "lift_H", False),
    ("symmetry", "find_affine_symmetries", False),
    ("symmetry", "fixed_points", False),
    ("symmetry", "commutes_with_power", False),
    ("shortc2", "classify_sublevel", False),
    ("shortc2", "annulus_coordinate", False),
    ("cli", "render_grid", False),
    ("cli", "quantize", False),
    ("cli", "write_pgm", False),
)

# derived counts: metric -> (span, child span, children skipped per span)
CHILD_COUNTS = {
    "boettcher.lambda_vec.newton_rounds": ("boettcher.lambda_vec", "boettcher.phi_series", 0),
    "boettcher.lambda_vec.slope_refreshes": ("boettcher.lambda_vec", "boettcher.dphi_dy_vec", 1),
    "boettcher.certify_region.m_tries": ("boettcher.certify_region", "boettcher.phi_series", 0),
    "cover.build_chart.quad_levels": ("cover.build_chart", "boettcher.dlambda_dy_vec", 0),
    "cover.psi_tilde_inverse.newton_steps": ("cover.psi_tilde_inverse", "cover.psi_integral", 0),
    "cover.covering_map.lifts": ("cover.covering_map", "cover.lift_H", 0),
    "green.green_plus.pushes": ("green.green_plus", "boettcher.phi_series", 1),
    "green.green_plus_grid.push_rounds": ("green.green_plus_grid", "boettcher.phi_series", 1),
}

# per-span aggregates reported for each layer (calls, points, self_s)
LAYER_FIELDS = {
    "boettcher.phi_series": ("calls", "points", "self_s"),
    "boettcher.dphi_dy_vec": ("calls", "points", "self_s"),
    "boettcher.lambda_vec": ("calls", "points", "self_s"),
    "boettcher.dlambda_dy_vec": ("calls", "points", "self_s"),
    "boettcher.certify_region": ("self_s",),
    "boettcher.bottcher_phi": ("calls", "self_s"),
    "cover.build_chart": ("self_s",),
    "cover.r_series": ("calls", "self_s"),
    "cover.save_chart": ("self_s",),
    "cover.psi_integral": ("calls", "self_s"),
    "cover.psi_tilde": ("calls", "self_s"),
    "cover.psi_tilde_inverse": ("calls", "self_s"),
    "cover.covering_map": ("calls", "self_s"),
    "cover.deck": ("calls", "self_s"),
    "filtration.filtration_radius": ("calls", "self_s"),
    "green.green_plus": ("calls", "self_s"),
    "green.green_minus": ("calls", "self_s"),
    "green.green_plus_grid": ("calls", "points", "self_s"),
    "green.escape_time_grid": ("calls", "points", "self_s"),
    "cli.render_grid": ("self_s",),
    "cli.quantize": ("self_s",),
    "cli.write_pgm": ("self_s",),
    "symmetry.find_affine_symmetries": ("self_s",),
    "symmetry.fixed_points": ("self_s",),
    "symmetry.commutes_with_power": ("calls", "self_s"),
    "shortc2.classify_sublevel": ("calls", "self_s"),
    "shortc2.annulus_coordinate": ("calls", "self_s"),
}


def _modules():
    return [importlib.import_module(m) for m in MODULES]


def installed_wrappers():
    """Names of henoncover module attributes that are tracer wrappers."""
    found = []
    for mod in _modules():
        for attr, obj in vars(mod).items():
            if getattr(obj, "__perfbench_span__", None) is not None:
                found.append(f"{mod.__name__}.{attr}")
    return found


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op, points]
        self.op = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = None
        self._restore = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name, fn, with_points):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._home_stack:
                parent = tracer._home_stack[-1]
            else:
                parent = -1
            points = int(np.size(args[1])) if with_points else 0
            with tracer._lock:
                sid = len(tracer.spans)
                rec = [name, 0.0, 0.0, parent, tracer.op, points]
                tracer.spans.append(rec)
            stack.append(sid)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()

        wrapper.__perfbench_span__ = name
        return wrapper

    def install(self):
        if installed_wrappers():
            raise RuntimeError("tracer wrappers are already installed")
        mods = _modules()
        self._home_stack = self._stack()
        for modname, fname, with_points in WRAPPED:
            orig = getattr(importlib.import_module("henoncover." + modname), fname)
            wrapper = self._wrap(f"{modname}.{fname}", orig, with_points)
            for mod in mods:
                for attr, obj in list(vars(mod).items()):
                    if obj is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore = []
        self._home_stack = None

    # -----------------------------------------------------------------

    def _children(self):
        kids = [[] for _ in self.spans]
        for sid, rec in enumerate(self.spans):
            if rec[3] >= 0:
                kids[rec[3]].append(sid)
        return kids

    def self_times(self, kids=None):
        """Duration minus the union of child intervals, per span."""
        if kids is None:
            kids = self._children()
        out = []
        for sid, (_, t0, t1, *_rest) in enumerate(self.spans):
            covered = 0.0
            cur_a = cur_b = None
            for a, b in sorted((self.spans[c][1], self.spans[c][2]) for c in kids[sid]):
                a, b = max(a, t0), min(b, t1)
                if b <= a:
                    continue
                if cur_b is None or a > cur_b:
                    if cur_b is not None:
                        covered += cur_b - cur_a
                    cur_a, cur_b = a, b
                else:
                    cur_b = max(cur_b, b)
            if cur_b is not None:
                covered += cur_b - cur_a
            out.append(max(t1 - t0 - covered, 0.0))
        return out

    def layer_metrics(self):
        """Per-layer calls, points, self time and derived child counts."""
        kids = self._children()
        selfs = self.self_times(kids)
        agg = {}
        for sid, rec in enumerate(self.spans):
            a = agg.setdefault(rec[0], [0, 0, 0.0])
            a[0] += 1
            a[1] += rec[5]
            a[2] += selfs[sid]
        out = {}
        for layer, fields in LAYER_FIELDS.items():
            calls, points, self_s = agg.get(layer, (0, 0, 0.0))
            vals = {"calls": calls, "points": points, "self_s": self_s}
            for f in fields:
                out[f"{layer}.{f}"] = vals[f]
        for metric, (parent, child, skip) in CHILD_COUNTS.items():
            total = 0
            for sid, rec in enumerate(self.spans):
                if rec[0] == parent:
                    n = sum(1 for c in kids[sid] if self.spans[c][0] == child)
                    total += max(n - skip, 0)
            out[metric] = total
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "points"],
                    "spans": self.spans,
                },
                fh,
            )
