"""Which package statements the benchmark workloads and the CLI never run.

    python3 tests/traffic_probe.py [--modules boettcher henon ...]

Line-traces every function of ``src/henoncover`` (``sys.settrace``, and
``threading.settrace`` for render workers) while it runs

- ``perfbench/run.py``'s ``run_workload`` at ``TINY`` scale for each
  workload, untraced and then with the span tracer (the module is imported
  as it is, nothing under ``perfbench/`` is edited), and
- every CLI subcommand on every map spec of the corpus ``tests/specs``,
  and ``render`` on every grid job there, once with two threads.

Then it prints, for each module, the functions that were never called and
the statements of called functions that never ran.  Module and class bodies
run at import, before tracing starts, and are not reported.  pytest does not
collect this file (its name does not match ``test_*.py``).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import inspect
import io
import json
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "henoncover"
SPECS = ROOT / "tests" / "specs"

# CO_OPTIMIZED: set on function, lambda and comprehension code, not on
# module or class bodies
_CO_OPTIMIZED = inspect.CO_OPTIMIZED


def _key(path: str, code):
    """A code object's identity that survives recompiling its file."""
    return path, code.co_firstlineno, code.co_name


class LineTracer:
    """The lines that ran in each package code object, on any thread."""

    def __init__(self, package: Path):
        self.package = str(package)
        self.hits = defaultdict(set)
        self._paths = {}  # co_filename -> its resolved path, or "" outside the package

    def _path(self, filename):
        path = self._paths.get(filename)
        if path is None:
            path = str(Path(filename).resolve())
            path = self._paths[filename] = path if path.startswith(self.package) else ""
        return path

    def _global(self, frame, event, arg):
        code = frame.f_code
        path = self._path(code.co_filename)
        if not path:
            return None
        lines = self.hits[_key(path, code)]
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    @contextlib.contextmanager
    def tracing(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)
            threading.settrace(None)


def _functions(code):
    """Every function code object nested in code, depth first."""
    for const in code.co_consts:
        if inspect.iscode(const):
            if const.co_flags & _CO_OPTIMIZED:
                yield const
            yield from _functions(const)


def _lines(code):
    """The lines that a call of code can report: its first line and every line start."""
    lines = {code.co_firstlineno}
    lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


def _statement_heads(tree):
    """line -> first line of the innermost statement owning it.

    A compound statement owns its header, up to its first body statement.
    """
    owner = {}

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                body = [s for f in ("body", "orelse", "finalbody", "handlers")
                        for s in getattr(child, f, []) if isinstance(s, (ast.stmt, ast.excepthandler))]
                last = min((s.lineno for s in body), default=child.end_lineno + 1) - 1
                for line in range(child.lineno, max(last, child.lineno) + 1):
                    owner[line] = child.lineno
            visit(child)

    visit(tree)
    return owner


def report(path: Path, hits: dict) -> list[str]:
    """The lines of the report for one module."""
    source = path.read_text()
    text = source.splitlines()
    code = compile(source, str(path), "exec")
    owner = _statement_heads(ast.parse(source))
    out, uncalled = [], []
    for fn in _functions(code):
        name = getattr(fn, "co_qualname", fn.co_name)
        if any(name.startswith(u + ".") for u in uncalled):
            continue  # nested in a function already reported
        lines = _lines(fn)
        ran = hits.get(_key(str(path), fn), set())
        if not ran:
            uncalled.append(name)
            last = max(lines)
            out.append(f"  never called: {name} (lines {fn.co_firstlineno}-{last})")
            continue
        missed = sorted(lines - ran)
        seen = set()
        for line in missed:
            first = owner.get(line, line)
            if first in seen:
                continue
            seen.add(first)
            out.append(f"  {name}, line {first}: {text[first - 1].strip()}")
    return out


def _corpus():
    """The corpus's map specs and grid jobs: a spec is a file with factors."""
    specs, jobs = [], []
    for path in sorted(SPECS.glob("*.json")):
        (specs if "factors" in json.loads(path.read_text()) else jobs).append(path)
    return specs, jobs


def _pixels(job: Path) -> int:
    nx, ny = json.loads(job.read_text())["resolution"]
    return nx * ny


def run_cli(workdir: Path):
    from henoncover import cli

    def main(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main([str(a) for a in argv])

    specs, jobs = _corpus()
    out = workdir / "out"
    for spec in specs:
        main("info", "--spec", spec, "--out", out)
        main("symmetries", "--spec", spec, "--out", out)
        main("cover", "--spec", spec, "--out", out)
        for level in ("fast", "full"):
            main("verify", "--spec", spec, "--level", level)
        for direction in ("plus", "minus"):
            main("green", "--spec", spec, "--direction", direction, "--point", "0.3,0,40,0")
        for y in ("0", "1.2", "100"):
            main("classify", "--spec", spec, "--c", "1.0", "--point", f"0,0,{y},0")
        for job in jobs:
            main("render", "--spec", spec, "--job", job, "--out", out, "--csv", workdir / "out.csv")
        main("render", "--spec", spec, "--job", max(jobs, key=_pixels), "--out", out, "--threads", 2)


def run_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for name in run.WORKLOADS:
        for trace in (0, 1):
            with contextlib.redirect_stdout(io.StringIO()):
                res = run.run_workload(name, seed=5, seconds=0.0, trace=trace, scale=run.TINY)
            print(f"# {name} trace={trace}: {res['attempted']} ops, {res['failed']} failed",
                  file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--modules", nargs="*", help="module names to report (default: all)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    tracer = LineTracer(PACKAGE)
    with tempfile.TemporaryDirectory() as tmp, tracer.tracing():
        run_workloads()
        run_cli(Path(tmp))

    for path in sorted(PACKAGE.glob("*.py")):
        if args.modules and path.stem not in args.modules:
            continue
        lines = report(path, tracer.hits)
        print(f"{path.name}: {len(lines)} never ran")
        print("\n".join(lines))


if __name__ == "__main__":
    main()
