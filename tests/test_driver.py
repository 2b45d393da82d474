"""End-to-end scheme runs: enumeration of profitable prefixes from the
representative set plus non-profitable completions."""

import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import bcopt as B
from bcopt.errors import InputError
from bcopt.lagrangian import residual_tail

from util import opt_profit, walk_ids

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def star_pair_variant():
    # same 5-vertex graph as the star-pair fixture, profits 5,4,5,4:
    # the optimum is the disjoint pair {0, 2} with profit 10
    g = B.Graph(5, {0: (1, 2), 1: (1, 3), 2: (3, 4), 3: (2, 4)})
    profits = [5, 4, 5, 4]
    elements = [B.Element(i, profits[i], 1) for i in range(4)]
    return B.BCInstance(elements, B.MatchingConstraint(g), 2)


def scattered_low_instance():
    # one heavy edge plus three pairwise-disjoint unit-profit edges;
    # every residual is larger than max_exhaustive=2
    g = B.Graph(8, {0: (0, 1), 1: (2, 3), 2: (4, 5), 3: (6, 7)})
    profits = [10, 1, 1, 1]
    elements = [B.Element(i, profits[i], 1) for i in range(4)]
    return B.BCInstance(elements, B.MatchingConstraint(g), 2)


def test_eptas_run_star_pair(fig1):
    run = B.eptas_run(fig1, HALF)
    assert run.solution.profit == Fraction(11)
    assert run.solution.ids == (0, 2)
    assert run.epsilon == HALF
    assert run.alpha == Fraction(11)
    assert run.rep.union == frozenset({0, 1})
    # prefixes drawn from {0, 1} with size cap 2: the empty set and the
    # two singletons (the pair shares a vertex)
    assert run.enumerated == 3
    assert run.fallbacks == 0


def test_eptas_run_collect(fig1):
    """The tail `eptas_run` asks `residual_tail` for at each prefix."""
    run = B.eptas_run(fig1, HALF)
    prefixes = list(walk_ids(fig1, candidates=sorted(run.rep.union), max_size=2))
    assert prefixes == [(), (0,), (1,)]
    low = B.low_profit_ids(fig1, HALF, run.alpha)
    for pinned, want in (((0,), (2,)), ((1,), (3,))):
        tail = residual_tail(fig1, pinned, low)
        assert tail == want
        assert B.Solution.of(fig1, pinned + tail).profit == Fraction(11)
    assert run.fallbacks == 0


def test_hand_traced_variant():
    # alpha = 10, eps = 1/4: profits 5 and 4 land in bands 5 and 6,
    # both classes are already matchings, so R is all four edges and
    # the prefix enumeration visits all 7 feasible subsets
    run = B.eptas_run(star_pair_variant(), Fraction(1, 4))
    assert run.alpha == Fraction(10)
    assert run.rep.union == frozenset({0, 1, 2, 3})
    assert run.enumerated == 7
    assert run.solution.profit == Fraction(10)


def test_approximate_star_pair(fig1):
    assert B.approximate(fig1, HALF).profit == Fraction(11)
    # the core run happens at eps/8 = 1/16, where the unit edges are
    # profitable too and the representative set grows to all four edges
    core = B.eptas_run(fig1, Fraction(1, 16))
    assert core.rep.union == frozenset({0, 1, 2, 3})
    assert core.enumerated == 7


def test_exhaustive_fallback_counters():
    inst = scattered_low_instance()
    run = B.eptas_run(inst, HALF, strategy="exhaustive", max_exhaustive=2)
    assert run.rep.union == frozenset({0})
    assert run.enumerated == 2
    # every prefix falls back
    assert run.fallbacks == run.enumerated
    assert run.solution.profit == Fraction(11)

    for strategy in ("lagrangian", "auto"):
        other = B.eptas_run(inst, HALF, strategy=strategy, max_exhaustive=2)
        assert other.fallbacks == 0
        assert other.solution.profit == Fraction(11)


def test_epsilon_validation(fig1):
    for eps in (0, 1, Fraction(-1, 2), Fraction(9, 8)):
        with pytest.raises(InputError):
            B.approximate(fig1, eps)
    # the core scheme itself only accepts eps up to 1/2
    with pytest.raises(InputError):
        B.eptas_run(fig1, Fraction(2, 3))
    with pytest.raises(InputError):
        B.eptas_run(fig1, 0)


def test_alpha_mode_passthrough(fig1):
    run = B.eptas_run(fig1, HALF, alpha_mode="exact")
    assert run.alpha == Fraction(11)
    with pytest.raises(InputError):
        B.eptas_run(fig1, HALF, alpha_mode="nope")


def test_guarantee_on_corpus_slice(corpus):
    for _, _, inst in corpus[:12] + corpus[300:308]:
        opt = opt_profit(inst)
        for eps, factor in ((HALF, HALF), (THIRD, Fraction(2, 3))):
            sol = B.approximate(inst, eps)
            assert sol.feasible
            assert sol.profit >= factor * opt


def test_core_guarantee_slice(corpus):
    for _, _, inst in corpus[:8]:
        sol = B.eptas_run(inst, Fraction(1, 16)).solution
        assert sol.feasible
        assert sol.profit >= HALF * opt_profit(inst)


def _broken_solver_under_optimize(module: str, call: str) -> str:
    """Run `call` under python -O on a small BM instance after replacing
    `module`'s residual-tail solver by a broken one; return stdout."""
    src = pathlib.Path(B.__file__).resolve().parent.parent
    script = textwrap.dedent(
        f"""
        import importlib
        from fractions import Fraction
        import bcopt as B

        # not `import ... as`: the package's `repset` function shadows
        # the bcopt.repset module as an attribute
        M = importlib.import_module("{module}")

        g = B.Graph(5, {{0: (1, 2), 1: (1, 3), 2: (3, 4), 3: (2, 4)}})
        els = [B.Element(i, p, 1) for i, p in enumerate([10, 10, 1, 1])]
        inst = B.BCInstance(els, B.MatchingConstraint(g), 2)
        # a broken solver: every residual "solution" is the whole ground
        # set, over budget and not a matching
        M.residual_tail = lambda inst, pinned, pool, *a, **k: inst.ids
        try:
            {call}
        except AssertionError as exc:
            print(type(exc).__name__, __debug__)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    return out.stdout.strip()


def test_invariant_check_survives_optimize_flag():
    # python -O strips assert statements; the feasibility check on every
    # combined prefix + residual solution must still fire
    out = _broken_solver_under_optimize(
        "bcopt.driver", "M.eptas_run(inst, Fraction(1, 2))"
    )
    assert out == "InvariantError False"


def test_two_approx_invariant_check_survives_optimize_flag():
    # the same guard on every two_approx candidate
    out = _broken_solver_under_optimize("bcopt.repset", "M.two_approx(inst)")
    assert out == "InvariantError False"


def test_pruned_invariant_check_survives_optimize_flag():
    # approximate prunes its walk; every candidate it still solves is
    # checked the same way
    out = _broken_solver_under_optimize(
        "bcopt.driver", "M.approximate(inst, Fraction(1, 2))"
    )
    assert out == "InvariantError False"
