"""The in-place residual tail (`lagrangian.residual_tail`) against the
reference path it replaces: a residual instance built by
`reference_residual` and solved by `non_profitable_solve`, at the sizes
of the `scale` benchmark (BM with 10-12 vertices, BI pairs ∩ uniform
with n 12-16), and on instances with zero-cost elements; and the two
loops that skip residual solves against reference loops that solve
every prefix, on planted instances whose residuals pass the gate."""

import itertools
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

import bcopt as B
import bcopt.driver as D
from bcopt.errors import CapacityError
from bcopt.graphs import Graph
from bcopt.lagrangian import residual_tail
from bcopt.matroids import Matroid
from bcopt.model import BCInstance
from util import bi_pairs, reference_residual, walk_ids

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "corpus"

STRATEGIES = ("auto", "exhaustive", "lagrangian")
EPS = Fraction(1, 16)


INSTANCES = [
    ("bm10", B.random_bm(11, n_vertices=10)),
    ("bm12", B.random_bm(12, n_vertices=12)),
    ("bi12", bi_pairs(13, 12)),
    ("bi16", bi_pairs(14, 16)),
]


def outcome(solve):
    try:
        return tuple(solve())
    except CapacityError as exc:
        return ("capacity", str(exc))


def reference(inst, pinned, pool, strategy, max_exhaustive):
    sub = reference_residual(inst, pinned, pool)
    return B.non_profitable_solve(sub, strategy, max_exhaustive).ids


def counting_builds(monkeypatch):
    """Count every Graph, Matroid and BCInstance built from now on."""
    counts = Counter()

    def counting(key, fn):
        def wrapper(self, *a, **k):
            counts[key] += 1
            return fn(self, *a, **k)

        return wrapper

    for cls, key in ((Graph, "graph"), (Matroid, "matroid"), (BCInstance, "instance")):
        monkeypatch.setattr(cls, "__init__", counting(key, cls.__init__))
    return counts


def every(it, step):
    return list(itertools.islice(it, 0, None, step))


def cases(inst):
    """(pinned, pool) pairs: prefixes of R over E(α) as `eptas_run`
    walks them, prefixes of two_approx over its threshold pools, and
    small prefixes over the whole ground set."""
    rep = B.repset(inst, EPS)
    low = B.low_profit_ids(inst, EPS, rep.alpha)
    walk = walk_ids(inst, candidates=sorted(rep.union), max_size=16)
    out = [(f, low) for f in every(walk, 17)]
    P = inst.int_profit
    for f in every(walk_ids(inst, max_size=4), 23):
        if f:
            t = min(P[e] for e in f)
            out.append((f, [e for e in inst.ids if P[e] <= t]))
    out += [(f, inst.ids) for f in walk_ids(inst, max_size=1)]
    return out


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_residual_tail_matches_reference(name, inst, monkeypatch):
    todo = cases(inst)
    counts = counting_builds(monkeypatch)
    large = dependent = 0
    for pinned, pool in todo:
        n = reference_residual(inst, pinned, pool).n
        large += n > 24
        if inst.constraint.kind == "matroid_intersection":
            f = inst.mask_of(pinned)
            dependent += any(
                not inst.constraint.feasible_mask(f | 1 << e)
                for e in pool if e not in pinned
            )
        for strategy, cap in [(s, 24) for s in STRATEGIES] + [("exhaustive", 6)]:
            built = sum(counts.values())
            got = outcome(lambda: residual_tail(inst, pinned, pool, strategy, cap))
            # no branch builds a residual: every solve runs in place
            assert sum(counts.values()) == built
            want = outcome(lambda: reference(inst, pinned, pool, strategy, cap))
            assert got == want, (pinned, strategy, cap)
    if name == "bm12":
        assert large, "no residual past the exhaustive gate"
    if name.startswith("bi"):
        assert dependent, "no pool element dependent with its prefix"


def zero_cost_bm(seed):
    """A random BM on 10 vertices with about a third of its costs 0."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(10) for v in range(u + 1, 10) if rng.random() < 0.4]
    els = [B.Element(i, rng.randint(1, 20), rng.choice([0, 0, *range(1, 13)]))
           for i in range(len(pairs))]
    graph = B.Graph(10, dict(enumerate(pairs)))
    total = sum(e.cost for e in els)
    return B.BCInstance(els, B.MatchingConstraint(graph), Fraction(total, 3))


def zero_cost_bi(seed, n):
    """bi_pairs with about a third of its costs 0."""
    inst = bi_pairs(seed, n)
    rng = random.Random(seed)
    els = [B.Element(e.id, e.profit, rng.choice([0, 0, *range(1, 13)]))
           for e in inst.elements]
    total = sum(e.cost for e in els)
    return B.BCInstance(els, inst.constraint, Fraction(total, 3))


ZERO_COST = [
    ("bm_a", zero_cost_bm(21)),
    ("bm_b", zero_cost_bm(22)),
    ("bi12", zero_cost_bi(23, 12)),
    ("bi16", zero_cost_bi(24, 16)),
]


@pytest.mark.parametrize("name,inst", ZERO_COST, ids=[n for n, _ in ZERO_COST])
def test_lagrangian_tail_with_zero_cost_elements(name, inst):
    """F ≠ ∅ and zero-cost pool elements dependent on F: the relaxation's
    zero-cost completion must run from F's state, or it adds an element
    that F ∪ tail cannot hold."""
    c = inst.constraint
    C = inst.int_cost
    dependent_zero = 0
    for pinned in list(walk_ids(inst, max_size=2))[1::3]:
        state = c.state_of(pinned)
        pool = [e for e in inst.ids if e not in pinned]
        dependent_zero += any(C[e] == 0 and c.extend(state, e) is None for e in pool)
        got = residual_tail(inst, pinned, pool, "lagrangian")
        assert got == reference(inst, pinned, pool, "lagrangian", 24), pinned
        assert B.feasible(inst, set(pinned) | set(got))
    assert dependent_zero, "no zero-cost element dependent on its prefix"


def reference_eptas(inst, strategy, max_exhaustive, eps=EPS):
    rep = B.repset(inst, eps)
    low = B.low_profit_ids(inst, eps, rep.alpha)
    best = B.Solution.of(inst, ())
    fallbacks = 0
    records = []
    for pinned in walk_ids(inst, candidates=sorted(rep.union), max_size=16):
        sub = reference_residual(inst, pinned, low)
        try:
            tail = B.non_profitable_solve(sub, strategy, max_exhaustive)
            fallback = False
        except CapacityError:
            tail = B.non_profitable_solve(sub, "lagrangian", max_exhaustive)
            fallback = True
            fallbacks += 1
        combined = B.Solution.of(inst, set(pinned) | set(tail.ids))
        best = min(best, combined, key=B.Solution.key)
        records.append((pinned, tail.ids, combined, fallback))
    return best, fallbacks, records


@pytest.mark.parametrize("strategy,cap", [("auto", 24), ("exhaustive", 6)])
def test_eptas_run_matches_reference(strategy, cap):
    inst = B.random_bm(11, n_vertices=10)
    run = B.eptas_run(inst, EPS, strategy=strategy, max_exhaustive=cap)
    best, fallbacks, records = reference_eptas(inst, strategy, cap)
    assert run.solution == best
    assert run.enumerated == len(records)
    assert run.fallbacks == fallbacks
    if strategy == "exhaustive":
        assert fallbacks > 0
    # each prefix's tail, as eptas_run asks residual_tail for it
    c = inst.constraint
    low = B.low_profit_ids(inst, EPS, run.alpha)
    for pinned, want, combined, fallback in records:
        assert fallback == (strategy == "exhaustive"
                            and len(c.survivors(c.state_of(pinned), low)) > cap)
        tail = residual_tail(inst, pinned, low, "auto" if fallback else strategy, cap)
        assert tail == want, pinned
        assert B.Solution.of(inst, set(pinned) | set(tail)) == combined


def reference_two_approx(inst):
    best = None
    P = inst.int_profit
    for pinned in walk_ids(inst, max_size=4):
        if pinned:
            t = min(P[e] for e in pinned)
            sub = reference_residual(inst, pinned, [e for e in inst.ids if P[e] <= t])
            tail = B.non_profitable_solve(sub).ids
        else:
            tail = B.non_profitable_solve(inst).ids
        sol = B.Solution.of(inst, set(pinned) | set(tail))
        best = sol if best is None else min(best, sol, key=B.Solution.key)
    return best


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_two_approx_matches_reference(name, inst):
    # a fresh copy: two_approx caches its result on the instance
    copy = B.BCInstance(inst.elements, inst.constraint, inst.budget)
    sol, alpha = B.two_approx(copy)
    assert sol == reference_two_approx(copy)
    assert alpha == sol.profit


def planted_bm(seed, nv=14, edges=40):
    """A BM with four high-profit edges among many low-profit ones: R
    stays small while E(α) holds more than 24 edges, so residuals take
    the Lagrangian path."""
    rng = random.Random(seed)
    pairs = rng.sample([(u, v) for u in range(nv) for v in range(u + 1, nv)], edges)
    top = set(rng.sample(range(edges), 4))
    els = [B.Element(i, rng.randint(30, 40) if i in top else rng.randint(1, 5),
                     rng.randint(1, 12)) for i in range(edges)]
    graph = B.Graph(nv, dict(enumerate(pairs)))
    total = sum(e.cost for e in els)
    return B.BCInstance(els, B.MatchingConstraint(graph), Fraction(total, 2))


def planted_bi(seed, n=32):
    """Pairs ∩ U(3, n) with four high-profit elements among many
    low-profit ones, for the same reason."""
    rng = random.Random(seed)
    top = set(rng.sample(range(n), 4))
    els = [B.Element(i, rng.randint(30, 40) if i in top else rng.randint(1, 5),
                     rng.randint(1, 12)) for i in range(n)]
    m1 = B.PartitionMatroid(range(n), [[2 * i, 2 * i + 1] for i in range(n // 2)],
                            [1] * (n // 2))
    m2 = B.UniformMatroid(range(n), 3)
    total = sum(e.cost for e in els)
    return B.BCInstance(els, B.MatroidIntersectionConstraint(m1, m2), Fraction(total, 2))


PLANTED = [("bm", planted_bm(31)), ("bi", planted_bi(32))]


@pytest.mark.parametrize("strategy,cap", [("auto", 24), ("exhaustive", 4)])
@pytest.mark.parametrize("eps", [EPS, Fraction(1, 24)], ids=["1/16", "1/24"])
@pytest.mark.parametrize("name,inst", PLANTED, ids=[n for n, _ in PLANTED])
def test_skipping_eptas_run_matches_reference(name, inst, eps, strategy, cap):
    """eptas_run skips the residuals its constraint's bound rules out,
    past the exhaustive gate too; the solution, `enumerated` and
    `fallbacks` are those of the loop that solves every prefix."""
    run = B.eptas_run(inst, eps, strategy=strategy, max_exhaustive=cap)
    best, fallbacks, records = reference_eptas(inst, strategy, cap, eps)
    low = B.low_profit_ids(inst, eps, run.alpha)
    assert any(reference_residual(inst, r[0], low).n > 24 for r in records)
    assert run.solution == best
    assert run.enumerated == len(records)
    assert run.fallbacks == fallbacks


@pytest.mark.parametrize("name,inst", PLANTED, ids=[n for n, _ in PLANTED])
def test_skipping_two_approx_matches_reference(name, inst):
    """The empty prefix's residual holds every element, past the gate."""
    assert inst.n > 24
    copy = B.BCInstance(inst.elements, inst.constraint, inst.budget)
    sol, alpha = B.two_approx(copy)
    assert sol == reference_two_approx(B.BCInstance(inst.elements, inst.constraint,
                                                    inst.budget))
    assert alpha == sol.profit


def residual_builds(monkeypatch, strategy, eps):
    """Graphs, matroids and instances that `eptas_run` builds on a corpus
    BM and a corpus BI file once the representative set is known, and
    the number of nonempty tails per file.  Every prefix's residual is
    also solved through `residual_tail`, as `eptas_run` solves those its
    bound does not skip."""
    total = Counter()
    tails = []
    for name in ("bm_007.json", "bi_004.json"):
        inst = B.load_instance(str(CORPUS / name))
        rep = B.repset(inst, eps)
        low = B.low_profit_ids(inst, eps, rep.alpha)
        prefixes = list(walk_ids(inst, candidates=sorted(rep.union),
                                 max_size=int(1 / eps)))
        with monkeypatch.context() as m:
            m.setattr(D, "repset", lambda *a, **k: rep)
            counts = counting_builds(m)
            run = B.eptas_run(inst, eps, strategy=strategy, max_exhaustive=24)
            solved = [residual_tail(inst, f, low, strategy, 24) for f in prefixes]
        assert run.enumerated == len(prefixes) > 1
        tails.append(sum(1 for t in solved if t))
        total.update(counts)
    return {key: total[key] for key in ("graph", "matroid", "instance")}, tails


def test_exhaustive_residuals_build_nothing(monkeypatch):
    """Every residual is solved exhaustively, in place.  At ε = 1/16
    bm_007 has no low-profit element, so its residuals are all empty;
    at ε = 1/4 both files have residuals with tails."""
    for eps in (EPS, Fraction(1, 4)):
        counts, tails = residual_builds(monkeypatch, "auto", eps)
        assert counts == {"graph": 0, "matroid": 0, "instance": 0}
    assert all(tails)


def test_lagrangian_residuals_build_nothing(monkeypatch):
    """At ε = 1/4, where both files have residuals with tails, every
    residual is solved by Lagrangian search and patching, in place: no
    restricted graph, no contracted matroid, no instance."""
    counts, tails = residual_builds(monkeypatch, "lagrangian", Fraction(1, 4))
    assert all(tails)
    assert counts == {"graph": 0, "matroid": 0, "instance": 0}
