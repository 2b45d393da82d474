"""Acceptance gate: one test per contract clause, exact rational
arithmetic throughout (tolerance zero).

The shared corpus is 300 seeded budgeted-matching instances (up to 8
vertices, 14 edges, integer profits and costs up to 20) and 150 seeded
matroid-intersection instances (n up to 10, all kind pairings).
"""

import json
import pathlib
import random
import shutil
from fractions import Fraction

import bcopt as B
from bcopt.cli import main as cli_main

from util import (
    Contraction,
    all_independent_sets,
    brute_max_weight,
    all_matchings,
    explicit_copy,
    random_graph,
    random_matroid,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
FIG1 = str(FIXTURES / "fig1.json")
FIG2 = str(FIXTURES / "fig2_shape.json")

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
EPSILONS = (HALF, THIRD)


def test_criterion_01_end_to_end_guarantee(corpus):
    """approximate(I, eps) reaches (1-eps)*OPT on all 450 instances."""
    for _, _, inst in corpus:
        opt = B.brute_force_opt(inst).profit
        for eps in EPSILONS:
            sol = B.approximate(inst, eps)
            assert sol.feasible
            assert sol.profit >= (1 - eps) * opt


def test_criterion_02_exchange_set_soundness(corpus):
    """The per-class constructions pass the literal exchange-set check
    on every nonempty class of the corpus."""
    checked = 0
    for _, _, inst in corpus:
        for eps in EPSILONS:
            rep = B.repset(inst, eps)
            for r, xset in rep.per_class_sets.items():
                report = B.check_exchange_set(
                    inst, eps, rep.alpha, r, xset, classing=rep.classing
                )
                assert report.ok, (inst, eps, r, report.witness)
                checked += 1
    assert checked == 1126


def test_criterion_03_representative_soundness(corpus):
    """Some feasible solution whose profitable part stays inside R
    reaches (1-4*eps)*OPT on the whole corpus.  At eps = 1/2 and 1/3
    the floor is non-positive; eps = 1/8 makes it bite."""
    nontrivial = 0
    for _, _, inst in corpus:
        for eps in EPSILONS + (Fraction(1, 8),):
            rep = B.repset(inst, eps)
            report = B.check_representative(inst, eps, rep.union)
            assert report.ok, (inst, eps, report.witness)
            if eps == Fraction(1, 8) and (1 - 4 * eps) * rep.alpha > 0:
                nontrivial += 1
    assert nontrivial == 430


def test_criterion_04_cardinality_bounds(corpus):
    """|X| <= 18*q_eff^2 per matching class and |R| <= 54*q_eff^3 per
    matching-constraint representative set, as exact integers."""
    for kind, _, inst in corpus:
        if kind != "bm":
            continue
        for eps in EPSILONS:
            rep = B.repset(inst, eps)
            q = rep.params.q_eff
            for xset in rep.per_class_sets.values():
                assert len(xset) <= 18 * q**2
            assert len(rep.union) <= 54 * q**3


def test_criterion_05_greedy_matching_dichotomy():
    """For every edge a left out of M = greedy_matching(G, N, c):
    either an adjacent matched edge is no costlier than a, or M is at
    the size cap, all of M is no costlier, and M+a is a matching."""
    for i in range(1000):
        rng = random.Random(30_000 + i)
        g = random_graph(rng, max_vertices=10, max_edges=12)
        cost = {e: Fraction(rng.randint(1, 10)) for e in g.edge_ids}
        for n_cap in range(1, 6):
            m = set(B.greedy_matching(g, n_cap, cost))
            for a in g.edge_ids:
                if a in m:
                    continue
                blocked = any(
                    b in m and cost[b] <= cost[a] for b in g.adjacent_edges(a)
                )
                capped = (
                    len(m) == n_cap
                    and all(cost[b] <= cost[a] for b in m)
                    and g.is_matching(m | {a})
                )
                assert blocked or capped, (i, n_cap, a)


def test_criterion_06_non_profitable_contract(corpus):
    """Both solver strategies stay within 2*max-profit of the optimum;
    the exhaustive strategy hits it exactly."""
    for _, _, inst in corpus:
        opt = B.brute_force_opt(inst).profit
        max_p = max((e.profit for e in inst.elements), default=Fraction(0))
        for strategy in ("exhaustive", "lagrangian"):
            sol = B.non_profitable_solve(inst, strategy)
            assert sol.feasible
            assert sol.profit >= opt - 2 * max_p
            if strategy == "exhaustive":
                assert sol.profit == opt


def test_criterion_07_two_approximation(corpus):
    for _, _, inst in corpus:
        opt = B.brute_force_opt(inst).profit
        sol, alpha = B.two_approx(inst)
        assert sol.feasible
        assert alpha == sol.profit
        assert 2 * alpha >= opt
        assert alpha <= opt


def test_criterion_08_matroid_layer():
    """Axioms hold exhaustively for the concrete matroids and their
    restrictions and contractions; the greedy minimum basis matches brute
    force; and the three basis-exchange facts hold on tabulated
    matroids up to 8 elements."""
    cycle = B.Graph(5, {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 0), 5: (0, 2)})
    concrete = [
        B.UniformMatroid(range(6), 3),
        B.PartitionMatroid(range(8), [[0, 1, 2], [3, 4], [5, 6, 7]], [2, 1, 2]),
        B.GraphicMatroid(cycle),
        B.LinearMatroid({i: [1, i, i * i] for i in range(5)}, "Q"),
        B.LinearMatroid({i: [(i >> b) & 1 for b in range(3)] for i in range(1, 8)}, 2),
        B.LinearMatroid({i: [1, i % 5] for i in range(10)}, 5),
        B.ExplicitMatroid(range(4), [[0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]),
    ]
    composed = []
    for m in concrete:
        ground = m.ground_list
        composed.append(Contraction(m, [], ground[: max(1, len(ground) - 2)]))
        composed.append(Contraction(m, ground[:1], ground[1:]))
    for m in concrete + composed:
        assert len(m.ground_list) <= 12
        report = B.axiom_check(m)
        assert report.ok and report.mode == "exhaustive"

    # greedy minimum basis against brute force, by total cost
    for seed in range(30):
        rng = random.Random(31_000 + seed)
        n = rng.randint(1, 7)
        m = random_matroid(rng, range(n))
        cost = {e: Fraction(rng.randint(1, 9)) for e in range(n)}
        basis = B.min_cost_basis(m, cost)
        indep = all_independent_sets(m)
        rank = max(len(s) for s in indep)
        assert m.is_independent(basis) and len(basis) == rank
        best = min(sum(cost[e] for e in s) for s in indep if len(s) == rank)
        assert sum(cost[e] for e in basis) == best

    for seed in range(12):
        rng = random.Random(32_000 + seed)
        n = rng.randint(4, 8)
        m = explicit_copy(random_matroid(rng, range(n)))
        cost = {e: Fraction(rng.randint(1, 6)) for e in range(n)}
        indep = all_independent_sets(m)
        small = [s for s in indep if len(s) <= 6]

        # a minimum basis blocks every outsider at its cost level
        basis = B.min_cost_basis(m, cost)
        for a in set(range(n)) - set(basis):
            cheaper = {e for e in basis if cost[e] <= cost[a]}
            assert not m.is_independent(cheaper | {a})

        # one-for-one exchange into any blocked insertion
        for A in small:
            for S in small:
                for a in A - S:
                    if m.is_independent(S | {a}):
                        continue
                    assert any(
                        m.is_independent((A - {a}) | {b}) for b in S - A
                    ), (A, S, a)

        # growing the smaller of two independent sets from the larger
        for A in small:
            for S in small:
                need = max(len(A) - len(S), 0)
                assert any(
                    m.is_independent(S | set(d))
                    for d in _subsets(sorted(A - S), need)
                )

        # swaps into a minimum basis of a truncated restriction (the
        # greedy over u stopped at q elements) never cost more than the
        # element they replace
        for _ in range(8):
            u = frozenset(e for e in range(n) if rng.random() < 0.6)
            for q in (1, 2, 3):
                bq = B.min_cost_basis(m, cost, among=u, limit=q)
                for delta in indep:
                    if len(delta) > q:
                        continue
                    for a in (delta & u) - set(bq):
                        assert any(
                            m.is_independent((delta - {a}) | {b})
                            and cost[b] <= cost[a]
                            for b in set(bq) - delta
                        ), (u, q, delta, a)


def _subsets(pool, size):
    import itertools

    return itertools.combinations(pool, size)


def test_criterion_09_oracle_cross_validation(fig1):
    """The matching and common-independent-set solvers agree with raw
    subset enumeration, and the star-pair graph encoded as two
    partition matroids agrees with its matching solver."""
    for i in range(500):
        rng = random.Random(40_000 + i)
        g = random_graph(rng, max_vertices=10, max_edges=10)
        w = {e: Fraction(rng.randint(-3, 12)) for e in g.edge_ids}
        got = sum((w[e] for e in B.max_weight_matching(g, w)), Fraction(0))
        assert got == brute_max_weight(all_matchings(g), w)

    for i in range(500):
        rng = random.Random(41_000 + i)
        n = rng.randint(1, 10)
        m1 = random_matroid(rng, range(n))
        m2 = random_matroid(rng, range(n))
        w = {e: Fraction(rng.randint(-3, 12)) for e in range(n)}
        got = sum(
            (w[e] for e in B.max_weight_common_independent(m1, m2, w)),
            Fraction(0),
        )
        best = Fraction(0)
        for mask in range(1 << n):
            if m1.independent_mask(mask) and m2.independent_mask(mask):
                val = sum(
                    (w[e] for e in range(n) if mask >> e & 1), Fraction(0)
                )
                if val > best:
                    best = val
        assert got == best

    # one partition matroid per left star, one per right star: common
    # independent sets are exactly the matchings
    g = fig1.constraint.graph
    m1 = B.PartitionMatroid(range(4), [[0, 1], [2, 3]], [1, 1])
    m2 = B.PartitionMatroid(range(4), [[0, 3], [1, 2]], [1, 1])
    for i in range(20):
        rng = random.Random(42_000 + i)
        w = {e: Fraction(rng.randint(0, 12)) for e in range(4)}
        via_mi = sum(
            (w[e] for e in B.max_weight_common_independent(m1, m2, w)),
            Fraction(0),
        )
        via_matching = sum(
            (w[e] for e in B.max_weight_matching(g, w)), Fraction(0)
        )
        assert via_mi == via_matching


def test_criterion_10_fixture_regression(fig1):
    """On the star-pair fixture the class-2 exchange set is exactly the
    two heavy edges, and each singleton is rejected with the matching
    witness."""
    alpha = Fraction(11)
    assert B.exset_matching(fig1, HALF, alpha, 2) == frozenset({0, 1})

    only_a = B.check_exchange_set(fig1, HALF, alpha, 2, [0])
    assert not only_a.ok
    assert only_a.witness == {"delta": [1, 3], "a": 1}

    only_b = B.check_exchange_set(fig1, HALF, alpha, 2, [1])
    assert not only_b.ok
    assert only_b.witness == {"delta": [0, 2], "a": 0}


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    """Every subcommand, rerun with identical inputs, writes
    byte-identical output; bench also under parallel execution."""
    cand = tmp_path / "cand.json"
    cand.write_text(json.dumps({"r": 2, "alpha": "11", "ids": [0, 1]}))
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    for i in range(6):
        name = f"bm_{i:03d}.json"
        shutil.copy(FIXTURES / "corpus" / name, bench_dir / name)

    commands = [
        ["solve", FIG1, "--epsilon", "1/2"],
        ["solve", FIG2, "--epsilon", "1/3", "--strategy", "lagrangian"],
        ["exact", FIG1],
        ["nps", FIG1, "--strategy", "lagrangian"],
        ["repset", FIG1, "--epsilon", "1/2"],
        ["exset", FIG1, "--epsilon", "1/2"],
        ["verify", FIG1, "--check", "exchange-set", "--epsilon", "1/2",
         "--candidate", str(cand)],
        ["verify", FIG2, "--check", "axioms", "--seed", "7"],
        ["gen", "--corpus", "bi:3"],
        ["gen", "--family", "bm", "--seed", "9", "--vertices", "6"],
        ["bench", str(bench_dir), "--epsilons", "1/2,1/3"],
    ]
    for argv in commands:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first, argv

    bench_argv = ["bench", str(bench_dir), "--epsilons", "1/2,1/3"]
    assert cli_main(bench_argv) == 0
    sequential = capsys.readouterr().out
    assert cli_main(bench_argv + ["--jobs", "4"]) == 0
    assert capsys.readouterr().out == sequential
