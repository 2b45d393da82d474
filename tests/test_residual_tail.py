"""The in-place residual tail (`repset.residual_tail`) against the
reference path it replaces: a residual instance built by `residual_over`
and solved by `non_profitable_solve`, at the sizes of the `scale`
benchmark (BM with 10-12 vertices, BI pairs ∩ uniform with n 12-16)."""

import importlib
import itertools
import pathlib
import random
from fractions import Fraction

import pytest

import bcopt as B
import bcopt.driver as D
from bcopt.errors import CapacityError
from bcopt.graphs import Graph
from bcopt.matroids import Matroid
from bcopt.model import BCInstance, better, residual_over
from bcopt.repset import residual_tail

# not `import bcopt.repset`: the package's `repset` function shadows
# the module as an attribute
R = importlib.import_module("bcopt.repset")
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "corpus"

STRATEGIES = ("auto", "exhaustive", "lagrangian")
EPS = Fraction(1, 16)


def bi_pairs(seed, n):
    """Partition matroid over pairs {2i, 2i+1} (capacity 1) ∩ U(n/4, n)."""
    rng = random.Random(seed)
    els = [B.Element(i, rng.randint(1, 20), rng.randint(1, 20)) for i in range(n)]
    m1 = B.PartitionMatroid(range(n), [[2 * i, 2 * i + 1] for i in range(n // 2)],
                            [1] * (n // 2))
    m2 = B.UniformMatroid(range(n), n // 4)
    total = sum(e.cost for e in els)
    return B.BCInstance(els, B.MatroidIntersectionConstraint(m1, m2), Fraction(total, 2))


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
    sub = residual_over(inst, pinned, pool)
    return B.non_profitable_solve(sub, strategy, max_exhaustive).ids


def every(it, step):
    return list(itertools.islice(it, 0, None, step))


def cases(inst):
    """(pinned, pool) pairs: prefixes of R over E(α) as `eptas_run`
    walks them, prefixes of two_approx over its threshold pools, and
    small prefixes over the whole ground set."""
    rep = B.repset(inst, EPS)
    low = B.low_profit_ids(inst, EPS, rep.alpha)
    walk = B.iter_solutions(inst, candidates=sorted(rep.union), max_size=16)
    out = [(f, low) for f in every(walk, 17)]
    P = inst.int_profit
    for f in every(B.iter_solutions(inst, max_size=4), 23):
        if f:
            t = min(P[e] for e in f)
            out.append((f, [e for e in inst.ids if P[e] <= t]))
    out += [(f, inst.ids) for f in B.iter_solutions(inst, max_size=1)]
    return out


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_residual_tail_matches_reference(name, inst, monkeypatch):
    todo = cases(inst)
    built = []
    monkeypatch.setattr(R, "residual_over",
                        lambda *a: built.append(a) or residual_over(*a))
    want_built = 0
    large = dependent = 0
    for pinned, pool in todo:
        n = residual_over(inst, pinned, pool).n
        large += n > 24
        if inst.constraint.kind == "matroid_intersection":
            f = inst.mask_of(pinned)
            dependent += any(
                not inst.constraint.feasible_mask(f | 1 << e)
                for e in pool if e not in pinned
            )
        for strategy, cap in [(s, 24) for s in STRATEGIES] + [("exhaustive", 6)]:
            got = outcome(lambda: residual_tail(inst, pinned, pool, strategy, cap))
            want = outcome(lambda: reference(inst, pinned, pool, strategy, cap))
            assert got == want, (pinned, strategy, cap)
            # only the Lagrangian branch builds a residual
            want_built += n > 0 and (
                strategy == "lagrangian" or strategy == "auto" and n > cap
            )
    assert len(built) == want_built
    if name == "bm12":
        assert large, "no residual past the exhaustive gate"
    if name.startswith("bi"):
        assert dependent, "no pool element dependent with its prefix"


def reference_eptas(inst, strategy, max_exhaustive):
    rep = B.repset(inst, EPS)
    low = B.low_profit_ids(inst, EPS, rep.alpha)
    best = B.Solution.of(inst, ())
    fallbacks = 0
    records = []
    for pinned in B.iter_solutions(inst, candidates=sorted(rep.union), max_size=16):
        sub = residual_over(inst, pinned, low)
        try:
            tail = B.non_profitable_solve(sub, strategy, max_exhaustive)
            fallback = False
        except CapacityError:
            tail = B.non_profitable_solve(sub, "lagrangian", max_exhaustive)
            fallback = True
            fallbacks += 1
        combined = B.Solution.of(inst, set(pinned) | set(tail.ids))
        best = better(best, combined)
        records.append((pinned, tail.ids, combined, fallback))
    return best, fallbacks, records


@pytest.mark.parametrize("strategy,cap", [("auto", 24), ("exhaustive", 6)])
def test_eptas_run_matches_reference(strategy, cap):
    inst = B.random_bm(11, n_vertices=10)
    run = B.eptas_run(inst, EPS, strategy=strategy, max_exhaustive=cap, collect=True)
    best, fallbacks, records = reference_eptas(inst, strategy, cap)
    assert run.solution == best
    assert run.fallbacks == fallbacks
    if strategy == "exhaustive":
        assert fallbacks > 0
    got = [(r.pinned, r.tail, r.combined, r.fallback) for r in run.records]
    assert got == records


def reference_two_approx(inst):
    best = None
    P = inst.int_profit
    for pinned in B.iter_solutions(inst, max_size=4):
        if pinned:
            t = min(P[e] for e in pinned)
            sub = residual_over(inst, pinned, [e for e in inst.ids if P[e] <= t])
            tail = B.non_profitable_solve(sub).ids
        else:
            tail = B.non_profitable_solve(inst).ids
        best = better(best, B.Solution.of(inst, set(pinned) | set(tail)))
    return best


@pytest.mark.parametrize("name,inst", INSTANCES, ids=[n for n, _ in INSTANCES])
def test_two_approx_matches_reference(name, inst):
    # a fresh copy: two_approx caches its result on the instance
    copy = B.BCInstance(inst.elements, inst.constraint, inst.budget)
    sol, alpha = B.two_approx(copy)
    assert sol == reference_two_approx(copy)
    assert alpha == sol.profit


def test_exhaustive_residuals_build_nothing(monkeypatch):
    """`eptas_run` at ε = 1/16 on a corpus BM and a corpus BI file builds
    no Graph, no matroid and no instance once the representative set is
    known: every residual there is solved exhaustively, in place."""
    counts = {"graph": 0, "matroid": 0, "instance": 0}

    def counting(key, fn):
        def wrapper(self, *a, **k):
            counts[key] += 1
            return fn(self, *a, **k)

        return wrapper

    for name in ("bm_007.json", "bi_004.json"):
        inst = B.load_instance(str(CORPUS / name))
        rep = B.repset(inst, EPS)
        with monkeypatch.context() as m:
            m.setattr(D, "repset", lambda *a, **k: rep)
            m.setattr(Graph, "__init__", counting("graph", Graph.__init__))
            m.setattr(Matroid, "__init__", counting("matroid", Matroid.__init__))
            m.setattr(BCInstance, "_assign", counting("instance", BCInstance._assign))
            run = B.eptas_run(inst, EPS, max_exhaustive=24)
        assert run.enumerated > 1
        assert counts == {"graph": 0, "matroid": 0, "instance": 0}
