"""Seeded generators and the fixed corpus schedule."""

import pathlib
from fractions import Fraction

import pytest

import bcopt as B
from bcopt.errors import InputError

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def blob(inst) -> bytes:
    return B.canonical_json(B.instance_to_dict(inst)).encode()


def test_random_bm_deterministic():
    a = B.random_bm(7, n_vertices=6, max_edges=10)
    b = B.random_bm(7, n_vertices=6, max_edges=10)
    assert blob(a) == blob(b)
    assert blob(B.random_bm(8, n_vertices=6, max_edges=10)) != blob(a)


def test_random_bi_deterministic():
    a = B.random_bi(7, n=6, kinds=("graphic", "explicit"))
    b = B.random_bi(7, n=6, kinds=("graphic", "explicit"))
    assert blob(a) == blob(b)


def test_bm_corpus_schedule_bounds():
    for i in range(0, 40):
        inst = B.corpus_bm(i)
        assert inst.constraint.kind == "matching"
        g = inst.constraint.graph
        assert g.num_vertices <= 8
        assert inst.n <= 14
        for e in inst.elements:
            assert e.profit.denominator == 1 and 1 <= e.profit <= 20
            assert e.cost.denominator == 1 and 1 <= e.cost <= 20


def test_bi_corpus_schedule_bounds():
    for i in range(0, 40):
        inst = B.corpus_bi(i)
        assert inst.constraint.kind == "matroid_intersection"
        assert 4 <= inst.n <= 10


def test_budget_is_fraction_of_total_cost():
    frac = Fraction(1, 3)
    inst = B.random_bm(11, n_vertices=6, budget_fraction=frac)
    total = sum((e.cost for e in inst.elements), Fraction(0))
    assert inst.budget == frac * total


def test_explicit_kind_satisfies_axioms():
    for seed in range(4):
        inst = B.random_bi(seed, n=5, kinds=("explicit", "explicit"))
        report = B.axiom_check(inst.constraint.m1)
        assert report.ok
        report = B.axiom_check(inst.constraint.m2)
        assert report.ok


def test_every_kind_pair_constructs():
    for kinds in (
        ("uniform", "uniform"),
        ("uniform", "partition"),
        ("partition", "graphic"),
        ("graphic", "explicit"),
    ):
        inst = B.random_bi(3, n=5, kinds=kinds)
        assert inst.n == 5


def test_generator_validation():
    with pytest.raises(InputError):
        B.random_bm(1, n_vertices=-1)
    with pytest.raises(InputError):
        B.random_bm(1, edge_prob=Fraction(3, 2))
    with pytest.raises(InputError):
        B.random_bm(1, profit_range=(5, 2))
    with pytest.raises(InputError):
        B.random_bm(1, cost_range=(-1, 3))
    with pytest.raises(InputError):
        B.random_bm(1, budget_fraction=Fraction(-1, 2))
    for max_edges in (0, -1):
        with pytest.raises(InputError):
            B.random_bm(1, max_edges=max_edges)
    with pytest.raises(InputError):
        B.random_bi(1, n=0)
    with pytest.raises(InputError):
        B.random_bi(1, kinds=("uniform", "moebius"))
    with pytest.raises(InputError):
        B.corpus_bm(-1)
    with pytest.raises(InputError):
        B.corpus_bi(-1)


def test_corpus_matches_shipped_fixtures():
    for i in range(20):
        for name, inst in (
            (f"bm_{i:03d}.json", B.corpus_bm(i)),
            (f"bi_{i:03d}.json", B.corpus_bi(i)),
        ):
            shipped = (FIXTURES / "corpus" / name).read_bytes()
            assert shipped == blob(inst)
