"""Every site the benchmark tracer wraps still exists in the package.

`perfbench/tracer.py` replaces functions at the module attributes
through which the package's callers look them up, and skips a site the
package no longer has, so a refactor that drops or moves one leaves a
layer's metrics reading 0 without any error.  This test reads the
tracer's site tables (it changes nothing) and fails on every site that
does not resolve, except those listed in GONE."""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Sites the tracer still lists that the package no longer has, each
# with what replaced it.
GONE = {
    "bcopt.driver.residual": "residuals are solved in place by residual_tail",
    "bcopt.driver.non_profitable_solve": "the driver calls residual_tail",
    "bcopt.repset.non_profitable_solve": "two_approx calls residual_tail",
    "bcopt.lagrangian.brute_force_opt": "exhaustive residuals run exhaustive_search",
}


def _tables():
    """The tracer's literal site tables, parsed from its source without
    running it."""
    tables = {}
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("SPANS", "CACHED", "GENERATORS", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def _sites():
    t = _tables()
    assert set(t) == {"SPANS", "CACHED", "GENERATORS", "COUNTED"}
    sites = [(row[0], row[1]) for rows in t.values() for row in rows]
    # the two class attributes `Tracer.open` counts
    sites += [("bcopt.matroids.Matroid", "independent_mask"),
              ("bcopt.model.BCInstance", "__init__")]
    return sites


def _owner(path):
    """The module, or the class inside a module, at a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        mod, _, name = path.rpartition(".")
        return getattr(importlib.import_module(mod), name)


def _resolves(mod, attr):
    # as `Tracer._install` looks it up: in the owner's own namespace
    return getattr(_owner(mod), "__dict__", {}).get(attr) is not None


SITES = _sites()


@pytest.mark.parametrize("mod,attr", SITES, ids=[f"{m}.{a}" for m, a in SITES])
def test_trace_site_resolves(mod, attr):
    name = f"{mod}.{attr}"
    if name in GONE:
        assert not _resolves(mod, attr), f"{name} is back: drop it from GONE"
    else:
        assert _resolves(mod, attr), f"the tracer's site {name} is not in the package"


def test_gone_sites_are_tracer_sites():
    assert set(GONE) <= {f"{m}.{a}" for m, a in SITES}
