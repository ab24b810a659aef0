"""The lazy package surface: each public name comes from its defining submodule on first access."""

import importlib
import json

import pytest

import henoncover


def test_table_agrees_with_all():
    names = [name for names in henoncover._EXPORTS.values() for name in names]
    assert len(names) == len(set(names))
    assert henoncover.__all__ == [*names, "__version__"]


@pytest.mark.parametrize("name", [n for n in henoncover.__all__ if n != "__version__"])
def test_public_name_is_the_defining_modules_object(name):
    module = importlib.import_module(f"henoncover.{henoncover._MODULE_OF[name]}")
    obj = getattr(henoncover, name)
    assert obj is getattr(module, name)
    assert obj.__module__ == module.__name__
    assert vars(henoncover)[name] is obj  # bound, so the next lookup is a dict hit


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from henoncover import *", namespace)
    assert {n: namespace[n] for n in henoncover.__all__} == {
        n: getattr(henoncover, n) for n in henoncover.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'henoncover' has no attribute 'nope'$"):
        henoncover.nope
    assert not hasattr(henoncover, "nope")
    with pytest.raises(ImportError):
        exec("from henoncover import nope", {})


def test_dir_lists_public_names_and_submodules():
    listed = dir(henoncover)
    assert set(henoncover.__all__) <= set(listed)
    assert set(henoncover._EXPORTS) <= set(listed)


def test_fresh_import_loads_submodules_on_first_access(fresh_python):
    code = (
        "import json, sys, henoncover\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('henoncover'))\n"
        "steps = [loaded()]\n"
        "henoncover.cover.build_chart\n"
        "steps.append(loaded())\n"
        "henoncover.classify_sublevel\n"
        "steps.append(loaded())\n"
        "print(json.dumps(steps))"
    )
    run = fresh_python("-c", code)
    assert run.returncode == 0, run.stderr
    bare, chart, short = json.loads(run.stdout)
    chart_modules = ["henoncover.boettcher", "henoncover.cover", "henoncover.filtration",
                     "henoncover.henon"]
    assert bare == ["henoncover"]
    assert chart == ["henoncover", *chart_modules]
    assert short == sorted([*chart, "henoncover.green", "henoncover.shortc2",
                            "henoncover.symmetry"])
