"""What the scheme's integer loops read instead of recomputing:
each item of `iter_solutions` hands over its set's walk state, integer
cost and integer profit next to its ids, `profit_classes` bisects
integer band edges, and `check_representative` reads the walk's integer
profit.  Each is checked against the definition it replaced."""

import pathlib
import random
from fractions import Fraction as F

import pytest

import bcopt as B
from util import bi_pairs, reference_profit_classes

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "corpus"
FILES = sorted(CORPUS.glob("*.json"))
SCALE = [
    ("bm10", lambda: B.random_bm(3, n_vertices=10)),
    ("bm12", lambda: B.random_bm(4, n_vertices=12)),
    ("bi_pairs16", lambda: bi_pairs(5, 16)),
    ("bi_pu12", lambda: B.random_bi(6, n=12, kinds=("partition", "uniform"))),
]


def instances():
    out = [(f.stem, lambda f=f: B.load_instance(str(f))) for f in FILES]
    return out + SCALE


INSTANCES = instances()


def definition(inst, f):
    return (
        inst.constraint.state_of(f),
        sum(inst.int_cost[e] for e in f),
        sum(inst.int_profit[e] for e in f),
    )


def seeded_cut(seed):
    """A cut that drops the children of about a third of the sets, the
    same ones on every walk with the same seed."""

    def cut(state, cost, profit):
        return random.Random(hash((seed, state, cost, profit))).random() < 1 / 3

    return cut


@pytest.mark.parametrize("name,make", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_walk_hands_over_state_cost_and_profit(name, make):
    inst = make()
    odd = [e for e in inst.ids if e % 2]
    for kwargs in (
        {"max_size": 4},
        {"max_size": 3, "cut": seeded_cut(1)},
        {"candidates": odd},
        {"candidates": odd, "cut": seeded_cut(2)},
    ):
        for f, state, cost, profit in B.iter_solutions(inst, **kwargs):
            assert (state, cost, profit) == definition(inst, f), f


def test_cut_reads_the_handed_over_values(fig1):
    """The cut is asked with the same (state, cost, profit) the walk
    hands over for the set."""
    asked = []
    items = []
    for item in B.iter_solutions(fig1, cut=lambda *a: asked.append(a) or False):
        items.append(item)
    assert set(asked) <= {item[1:] for item in items}
    assert len(asked) >= 1


def band_instance(eps, alpha):
    """BM over disjoint edges whose profits sit exactly on every band
    edge 2α(1−ε)^r, one unit of 1/1000 either side of each, and exactly
    at εα and at 2α."""
    count = B.class_count_of(eps)
    tiny = F(1, 1000)
    profits = [eps * alpha, eps * alpha + tiny, 2 * alpha, 2 * alpha + tiny]
    for r in range(count + 1):
        edge = 2 * alpha * (1 - eps) ** r
        profits += [edge, edge - tiny, edge + tiny]
    profits = [p for p in profits if p >= 0]
    ends = {i: (2 * i, 2 * i + 1) for i in range(len(profits))}
    els = [B.Element(i, p, F(1)) for i, p in enumerate(profits)]
    return B.BCInstance(els, B.MatchingConstraint(B.Graph(2 * len(profits), ends)), F(1))


@pytest.mark.parametrize("eps", [F(1, 2), F(1, 3), F(2, 5), F(1, 16), F(1, 24)])
@pytest.mark.parametrize("alpha", [F(1), F(7, 3), F(40)])
def test_profit_classes_on_band_edges(eps, alpha):
    inst = band_instance(eps, alpha)
    got = B.profit_classes(inst, eps, alpha)
    assert got.classes == reference_profit_classes(inst, eps, alpha)
    # a profit exactly at εα is cut and one exactly at 2α is in class 1
    assert got.class_of(0) is None
    assert got.class_of(2) == 1


@pytest.mark.parametrize("name,make", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_profit_classes_match_the_fraction_definition(name, make):
    inst = make()
    _, alpha = B.two_approx(inst)
    alphas = [a for a in (alpha, alpha / 3, F(7, 2), inst.max_profit) if a > 0]
    for eps in (F(1, 2), F(1, 3), F(1, 5), F(1, 16)):
        for a in alphas:
            got = B.profit_classes(inst, eps, a).classes
            assert got == reference_profit_classes(inst, eps, a), (eps, a)


def reference_check(inst, eps, rep):
    """`check_representative`'s walk as it was, on `Fraction` profits:
    (ok, best profit found)."""
    opt = B.brute_force_opt(inst)
    target = (1 - 4 * eps) * opt.profit
    heavy = {e.id for e in inst.elements if e.profit > eps * opt.profit}
    allowed = sorted((inst.id_set - heavy) | (set(rep) & heavy))
    best = F(0)
    for prefix, *_ in B.iter_solutions(inst, candidates=allowed):
        p = inst.profit_of(prefix)
        best = max(best, p)
        if p >= target:
            return True, best
    return False, best


@pytest.mark.parametrize("eps", [F(1, 5), F(1, 8), F(1, 10)])
def test_check_representative_reads_the_walk_profit(eps):
    """On every corpus file, with the heavy elements kept, dropped or
    halved, the verdict and the best profit found are the old walk's."""
    checked = 0
    for f in FILES:
        inst = B.load_instance(str(f))
        opt = B.brute_force_opt(inst)
        heavy = sorted(e.id for e in inst.elements if e.profit > eps * opt.profit)
        for rep in (heavy, [], heavy[::2]):
            report = B.check_representative(inst, eps, rep)
            if "best_found" not in report.stats:
                continue
            checked += 1
            ok, best = reference_check(inst, eps, rep)
            assert report.ok == ok
            assert report.stats["best_found"] == str(best)
    assert checked > 0
