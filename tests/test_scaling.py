"""The integer core scales profits and costs once per instance.  Every
fixture has integer profits and costs, so these tests supply the
non-trivial scales: a common rescaling must rescale every answer exactly,
and per-element denominators must keep the guarantees."""

import itertools
import math
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcopt as B

EPS = F(1, 2)
FIG1 = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "fig1.json"


def _instances():
    out = [(f"bm{i}", lambda i=i: B.corpus_bm(i)) for i in range(8)]
    out += [(f"bi{i}", lambda i=i: B.corpus_bi(i)) for i in range(8)]
    out.append(("fig1", lambda: B.load_instance(str(FIG1))))
    return out


INSTANCES = _instances()


def rescaled(inst, profit, cost, budget):
    """inst with element e's profit and cost mapped by profit(e, p) and
    cost(e, c), and the budget by budget(β); same constraint."""
    els = [
        B.Element(e.id, profit(e.id, e.profit), cost(e.id, e.cost))
        for e in inst.elements
    ]
    return B.BCInstance(els, inst.constraint, budget(inst.budget))


def fraction_opt(inst):
    """max p(S) over solutions S, by plain combinations and Fraction sums
    of the public element fields, independent of the integer tables."""
    best = F(0)
    for k in range(inst.n + 1):
        for combo in itertools.combinations(inst.elements, k):
            ids = [e.id for e in combo]
            cost = sum((e.cost for e in combo), F(0))
            if cost <= inst.budget and inst.constraint_ok(ids):
                best = max(best, sum((e.profit for e in combo), F(0)))
    return best


@pytest.mark.parametrize("name,make", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_common_scaling_rescales_every_answer(name, make):
    fp, fc = F(2, 3), F(5, 7)
    inst = make()
    scaled = rescaled(inst, lambda e, p: p * fp, lambda e, c: c * fc, lambda b: b * fc)
    solvers = {
        "approximate": lambda i: B.approximate(i, EPS),
        "brute_force_opt": B.brute_force_opt,
        "two_approx": lambda i: B.two_approx(i)[0],
        "nps lagrangian": lambda i: B.non_profitable_solve(i, "lagrangian"),
    }
    for label, solve in solvers.items():
        a, b = solve(inst), solve(scaled)
        assert b.ids == a.ids, label
        assert b.profit == a.profit * fp, label
        assert b.cost == a.cost * fc, label
        assert b.feasible and a.feasible, label


@pytest.mark.parametrize("name,make", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_per_element_denominators_keep_the_guarantee(name, make):
    # the budget shrinks with the costs, and becomes fractional too
    inst = rescaled(
        make(),
        lambda e, p: p / (e % 4 + 1),
        lambda e, c: c / (e % 3 + 2),
        lambda b: b / 3,
    )
    opt = B.brute_force_opt(inst)
    assert opt.feasible and opt.profit == fraction_opt(inst)
    sol = B.approximate(inst, EPS)
    assert sol.feasible and B.feasible(inst, sol.ids)
    assert sol.profit >= (1 - EPS) * opt.profit
    assert sol.profit == inst.profit_of(sol.ids)
    assert sol.cost == inst.cost_of(sol.ids)


rationals = st.fractions(min_value=0, max_value=50, max_denominator=60)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    profits=st.lists(rationals, min_size=1, max_size=8),
    costs=st.lists(rationals, min_size=8, max_size=8),
    budget=rationals,
    as_int=st.booleans(),
)
def test_integer_tables_are_the_fraction_products(profits, costs, budget, as_int):
    """The tables are p(e)·sp, c(e)·sc and β·sc computed in Fractions,
    for sp and sc the lcm of the denominators; the kept elements are
    equal to the given ones, whether given as Fractions or ints."""
    n = len(profits)
    elements = [
        B.Element(i, p, c)
        if not (as_int and p.denominator == 1 == c.denominator)
        else B.Element(i, p.numerator, c.numerator)
        for i, (p, c) in enumerate(zip(profits, costs))
    ]
    m = B.UniformMatroid(range(n), 2)
    inst = B.BCInstance(elements, B.MatroidIntersectionConstraint(m, m), budget)
    sp = math.lcm(1, *(p.denominator for p in profits))
    sc = math.lcm(budget.denominator, *(c.denominator for c in costs[:n]))
    assert inst.int_profit == tuple(int(p * sp) for p in profits)
    assert inst.int_cost == tuple(int(c * sc) for c in costs[:n])
    assert inst.int_budget == int(budget * sc)
    assert inst.elements == tuple(elements)
    for e in inst.elements:
        assert type(e.profit) is F and type(e.cost) is F
