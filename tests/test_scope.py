"""The residual scope (`model.Scope`) the walk builds and both
non-profitable solvers take: `BCInstance.residual` from the state and
integer cost `iter_solutions` yields equals the scope built from the
pinned ids, on every prefix of the walks `two_approx` and `eptas_run`
make; and the one exhaustive gate, `oracles.MAX_EXHAUSTIVE`, is every
default that names one."""

import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import bcopt as B
import bcopt.cli as cli
from bcopt.model import Scope, whole
from bcopt.oracles import MAX_EXHAUSTIVE
from util import bi_pairs, scope_of


def tight(inst):
    """inst at a sixth of its total cost, where most prefixes cut deep
    into the budget."""
    total = sum(e.cost for e in inst.elements)
    return B.BCInstance(inst.elements, inst.constraint, total / 6)


CASES = [
    ("bm9", B.random_bm(61, n_vertices=9)),
    ("bm11", B.random_bm(62, n_vertices=11)),
    ("bi12", bi_pairs(63, 12)),
    ("bi_gp10", B.random_bi(64, n=10, kinds=("graphic", "partition"))),
]
CASES += [(f"{name}_tight", tight(inst)) for name, inst in CASES]


@pytest.mark.parametrize("name,inst", CASES, ids=[n for n, _ in CASES])
def test_residual_is_the_scope_of_the_pinned_ids(name, inst):
    P = inst.int_profit
    # two_approx: every prefix of at most four elements over its
    # threshold pool, the empty one over every element
    walked = 0
    for pinned, state, cost, _ in B.iter_solutions(inst, max_size=4):
        pool = [e for e in inst.ids if not pinned or P[e] <= min(P[x] for x in pinned)]
        assert inst.residual(state, cost, pool) == scope_of(inst, pinned, pool), pinned
        walked += 1
    assert walked > 1
    # eptas_run: every prefix of R over E(α)
    eps = Fraction(1, 4)
    rep = B.repset(inst, eps)
    low = B.low_profit_ids(inst, eps, rep.alpha)
    for pinned, state, cost, _ in B.iter_solutions(inst, candidates=sorted(rep.union),
                                                   max_size=4):
        got = inst.residual(state, cost, low)
        assert got == scope_of(inst, pinned, low), pinned
        assert isinstance(got, Scope) and type(got.ids) is tuple
    assert inst.residual(0, 0, inst.ids) == whole(inst)


def test_key_of_orders_as_solution_key():
    inst = B.random_bm(65, n_vertices=8, profit_range=(1, 3))
    sets = [pinned for pinned, *_ in B.iter_solutions(inst, max_size=3)]
    by_key = sorted(sets, key=inst.key_of)
    assert by_key == sorted(sets, key=lambda s: B.Solution.of(inst, s).key())
    assert inst.key_of((3, 1)) == (-(inst.int_profit[1] + inst.int_profit[3]), (1, 3))


def _gated_defaults():
    """(where, default) of every `max_exhaustive` and `max_n` parameter
    default in the package."""
    pkg = importlib.import_module("bcopt")
    for info in pkgutil.iter_modules(pkg.__path__):
        mod = importlib.import_module(f"bcopt.{info.name}")
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ != mod.__name__:
                continue
            for p in inspect.signature(fn).parameters.values():
                if p.name in ("max_exhaustive", "max_n") and p.default is not p.empty:
                    yield f"{mod.__name__}.{name}({p.name})", p.default


def test_every_gate_default_is_max_exhaustive():
    gated = dict(_gated_defaults())
    assert sorted(gated) == [
        "bcopt.driver.eptas_run(max_exhaustive)",
        "bcopt.lagrangian.non_profitable_solve(max_exhaustive)",
        "bcopt.lagrangian.residual_tail(max_exhaustive)",
        "bcopt.oracles.brute_force_opt(max_n)",
        "bcopt.oracles.check_exchange_set(max_n)",
        "bcopt.oracles.check_representative(max_n)",
    ]
    assert all(v == MAX_EXHAUSTIVE for v in gated.values()), gated
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    defaults = {
        name: a.default
        for name, p in sub.choices.items()
        for a in p._actions if a.dest == "max_exhaustive"
    }
    assert sorted(defaults) == ["bench", "exact", "nps", "solve", "verify"]
    assert set(defaults.values()) == {MAX_EXHAUSTIVE}


def test_solver_signatures():
    assert list(inspect.signature(B.approximate).parameters) == ["inst", "eps"]
    from bcopt.oracles import exhaustive_search

    assert list(inspect.signature(exhaustive_search).parameters) == ["inst", "scope"]
    assert list(inspect.signature(B.residual_tail).parameters) == [
        "inst", "scope", "strategy", "max_exhaustive"]
