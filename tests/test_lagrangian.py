import dataclasses
import itertools
import pathlib
from fractions import Fraction as F

import pytest

import bcopt as B
from bcopt import blossom, cli, lagrangian
from bcopt.errors import CapacityError, InputError
from bcopt.lagrangian import LagrangianCertificate
from bcopt.model import relaxation_weights
from util import bi_pairs


def path_instance():
    # infeasible at lambda = 0: the profit-max matching busts the budget
    g = B.Graph(4, {0: (0, 1), 1: (1, 2), 2: (2, 3)})
    els = [
        B.Element(0, F(10), F(5)),
        B.Element(1, F(1), F(1)),
        B.Element(2, F(10), F(5)),
    ]
    return B.BCInstance(els, B.MatchingConstraint(g), F(6))


def cycle_instance():
    g = B.Graph(5, {0: (1, 2), 1: (1, 3), 2: (3, 4), 3: (2, 4)})
    els = [
        B.Element(0, F(10), F(5)),
        B.Element(1, F(9), F(1)),
        B.Element(2, F(10), F(5)),
        B.Element(3, F(9), F(1)),
    ]
    return B.BCInstance(els, B.MatchingConstraint(g), F(6))


def relaxation_value_brute(inst, lam):
    best = F(0)
    for k in range(inst.n + 1):
        for combo in itertools.combinations(inst.ids, k):
            if inst.constraint_ok(combo):
                v = inst.profit_of(combo) - lam * inst.cost_of(combo)
                best = max(best, v)
    return best


def test_relaxation_solve_matches_brute():
    inst = path_instance()
    for lam in (F(0), F(1, 4), F(1), F(2), F(7)):
        want = relaxation_value_brute(inst, lam)
        got_set, got_value, chain = B.relaxation_solve(inst, lam)
        assert got_value == want
        assert inst.constraint_ok(got_set)
        assert chain is None  # a matching has no chain
    with pytest.raises(InputError):
        B.relaxation_solve(inst, F(-1))


def test_relaxation_solve_returns_the_chain_behind_s(fig2):
    # on an intersection S is the chain's last set, before zero-cost
    # elements (fig2 has none) are added
    for lam in (F(0), F(1, 2), F(3)):
        s, _, chain = B.relaxation_solve(fig2, lam)
        assert chain[-1] == s


def test_relaxation_solve_rejects_inexact_lambda(fig1):
    # a float λ ran as its binary expansion, and True as λ = 1
    for bad in (0.1, True):
        with pytest.raises(InputError):
            B.relaxation_solve(fig1, bad)


def test_relaxation_value_convex_and_non_increasing():
    for inst in (path_instance(), cycle_instance()):
        grid = [F(k, 4) for k in range(0, 33)]
        values = [B.relaxation_solve(inst, lam)[1] for lam in grid]
        for a, b in zip(values, values[1:]):
            assert b <= a
        quotients = [
            (values[i + 1] - values[i]) / (grid[i + 1] - grid[i])
            for i in range(len(grid) - 1)
        ]
        for a, b in zip(quotients, quotients[1:]):
            assert a <= b


def test_relaxation_force_includes_zero_cost():
    g = B.Graph(4, {0: (0, 1), 1: (2, 3)})
    els = [B.Element(0, F(5), F(0)), B.Element(1, F(3), F(2))]
    inst = B.BCInstance(els, B.MatchingConstraint(g), F(0))
    s, _, _ = B.relaxation_solve(inst, F(100))
    assert 0 in s
    sol = B.non_profitable_solve(inst, strategy="lagrangian")
    assert sol.ids == (0,) and sol.profit == F(5)


def test_search_feasible_at_zero(fig1):
    cert = B.lagrangian_search(fig1)
    assert cert.lam == 0 and cert.s_plus is None
    assert fig1.cost_of(cert.s_minus) <= fig1.budget
    assert cert.probes == 1


def test_search_bracket_certificate():
    inst = path_instance()
    cert = B.lagrangian_search(inst)
    assert cert.probes <= 64
    assert inst.cost_of(cert.s_minus) <= inst.budget
    assert cert.s_plus is not None
    assert inst.cost_of(cert.s_plus) > inst.budget
    assert cert.lam_lo <= cert.lam <= cert.lam_hi
    # each bracket side is relaxation-optimal at its lambda
    assert (
        inst.profit_of(cert.s_minus) - cert.lam_hi * inst.cost_of(cert.s_minus)
        == relaxation_value_brute(inst, cert.lam_hi)
    )
    assert (
        inst.profit_of(cert.s_plus) - cert.lam_lo * inst.cost_of(cert.s_plus)
        == relaxation_value_brute(inst, cert.lam_lo)
    )


def test_search_exact_breakpoint_on_path():
    inst = path_instance()
    cert = B.lagrangian_search(inst)
    # the two bracket lines cross at lambda = 2 and the probe there ties
    assert cert.lam_lo == cert.lam_hi == cert.lam == F(2)


def crossing_path_instance():
    # 4-edge path; the bracket endpoints are the two alternating
    # matchings and the best feasible set mixes one edge from each
    g = B.Graph(5, {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 4)})
    els = [
        B.Element(0, F(10), F(5)),
        B.Element(1, F(9), F(1)),
        B.Element(2, F(10), F(5)),
        B.Element(3, F(2), F(1)),
    ]
    return B.BCInstance(els, B.MatchingConstraint(g), F(6))


def test_patch_matching_walks_the_crossing_cycle():
    # on the 4-cycle every heavy edge touches both light edges, so no
    # prefix of the walk is a feasible improvement: the answer is the
    # feasible bracket endpoint itself, which is the optimum here
    inst = cycle_instance()
    cert = LagrangianCertificate(
        lam=F(1, 4),
        lam_lo=F(1, 4),
        lam_hi=F(1, 4),
        s_minus=frozenset({1, 3}),
        s_plus=frozenset({0, 2}),
        value=F(35, 2),
        probes=0,
    )
    sol = B.patch_matching(inst, cert)
    assert sol.feasible
    assert sol.ids == (1, 3) and sol.profit == F(18)
    assert B.brute_force_opt(inst).profit == F(18)


def test_patch_matching_mixed_prefix_beats_both_endpoints():
    inst = crossing_path_instance()
    cert = LagrangianCertificate(
        lam=F(9, 8),
        lam_lo=F(9, 8),
        lam_hi=F(9, 8),
        s_minus=frozenset({1, 3}),
        s_plus=frozenset({0, 2}),
        value=F(35, 4),
        probes=0,
    )
    sol = B.patch_matching(inst, cert)
    # whole-component swap busts the budget; walking the crossing path
    # finds {0, 3}, worth more than the feasible endpoint's 11
    assert sol.ids == (0, 3) and sol.profit == F(12)


def test_patch_matching_end_to_end():
    for inst, opt in ((cycle_instance(), F(18)), (crossing_path_instance(), F(12))):
        sol = B.non_profitable_solve(inst, strategy="lagrangian")
        assert sol.feasible
        assert sol.profit == opt
        assert B.brute_force_opt(inst).profit == opt


def test_patch_requires_matching_kind(fig2):
    cert = B.lagrangian_search(fig2)
    with pytest.raises(InputError):
        B.patch_matching(fig2, cert)


def test_patch_intersection_candidates(fig2):
    cert = B.lagrangian_search(fig2)
    sol = B.patch_intersection(fig2, cert)
    assert sol.feasible
    assert sol.profit == F(16)


def test_nps_strategies(fig1):
    assert B.non_profitable_solve(fig1, strategy="exhaustive").profit == F(11)
    lag = B.non_profitable_solve(fig1, strategy="lagrangian")
    assert lag.feasible
    assert lag.profit >= F(11) - 2 * F(10)
    with pytest.raises(InputError):
        B.non_profitable_solve(fig1, strategy="annealing")
    with pytest.raises(CapacityError):
        B.non_profitable_solve(fig1, strategy="exhaustive", max_exhaustive=2)


def test_nps_auto_picks_by_size(fig1):
    # under the gate auto must equal the exact optimum
    assert B.non_profitable_solve(fig1, strategy="auto").profit == F(11)
    sol = B.non_profitable_solve(fig1, strategy="auto", max_exhaustive=2)
    assert sol.feasible


def test_nps_contract_on_corpus_slice(corpus):
    for kind, i, inst in corpus[:40] + corpus[300:330]:
        opt = B.brute_force_opt(inst).profit
        bound = opt - 2 * inst.max_profit
        for strategy in ("exhaustive", "lagrangian"):
            sol = B.non_profitable_solve(inst, strategy=strategy)
            assert B.feasible(inst, sol.ids)
            assert sol.profit >= bound
        assert B.non_profitable_solve(inst, strategy="exhaustive").profit == opt


def test_blossom_receives_integer_weights(monkeypatch, capsys):
    # the blossom works on exact integers only (it raises InputError on
    # anything else); max_weight_matching scales Fraction weights first
    seen = []
    real = blossom.max_weight_matching

    def spy(n, edges):
        seen.extend(w for _, _, w in edges)
        return real(n, edges)

    monkeypatch.setattr(blossom, "max_weight_matching", spy)
    monkeypatch.chdir(pathlib.Path(__file__).resolve().parent.parent)
    for path in sorted(pathlib.Path("fixtures/corpus").glob("bm_*.json")):
        argv = ["solve", str(path), "--epsilon", "1/2", "--strategy", "lagrangian"]
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert seen
    assert all(type(w) is int for w in seen)


def test_patch_intersection_reuses_the_probe_chain(monkeypatch):
    # the probe at cert.lam computed the chain the patch reads, so a
    # Lagrangian BI solve asks one chain per probe and none more
    real = lagrangian.mi_extreme_chain
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    for seed in range(4):
        pairs = bi_pairs(seed, 20)
        c = pairs.constraint
        tight = sum(e.cost for e in pairs.elements) / 10
        inst = B.BCInstance(pairs.elements, c, tight)
        cert = B.lagrangian_search(inst)
        assert cert.s_plus is not None
        weights = relaxation_weights(inst, cert.lam)
        assert cert.chain == tuple(real(c.m1, c.m2, weights))
        fresh = dataclasses.replace(cert, chain=None)
        assert fresh == cert
        assert B.patch_intersection(inst, fresh) == B.patch_intersection(inst, cert)
        with monkeypatch.context() as mp:
            mp.setattr(lagrangian, "mi_extreme_chain", counting)
            calls = 0
            sol = B.non_profitable_solve(inst, strategy="lagrangian")
        assert calls == cert.probes
        assert sol == B.patch_intersection(inst, fresh)
