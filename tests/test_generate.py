"""Seeded generators and the fixed corpus schedule."""

import hashlib
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
    # named errors for what used to fail bare or pass silently: a
    # non-numeric edge_prob (TypeError), a one-kind tuple (IndexError)
    # and a three-kind tuple (third kind dropped)
    for make, arg in (
        (lambda: B.random_bm(1, edge_prob="x"), "edge_prob"),
        (lambda: B.random_bi(1, kinds=("uniform",)), "kinds"),
        (lambda: B.random_bi(1, kinds=("uniform", "partition", "graphic")), "kinds"),
    ):
        with pytest.raises(InputError, match=arg):
            make()
    # a None seed draws from the clock, a bool is read as 0 or 1, and a
    # float vertex count raised a bare TypeError
    for make in (
        lambda: B.random_bm(None),
        lambda: B.random_bi(None),
        lambda: B.random_bm(True),
        lambda: B.random_bm(1, n_vertices=2.5),
        lambda: B.random_bm(1, max_edges=True),
        lambda: B.random_bm(1, max_edges=2.0),
        lambda: B.random_bi(1, n=True),
        lambda: B.random_bi(1, n=4.0),
        lambda: B.random_bm(1, profit_range=(False, True)),
    ):
        with pytest.raises(InputError):
            make()
    # str and bytes seeds hash deterministically, so they still reproduce
    for seed in ("a", b"a"):
        assert blob(B.random_bm(seed)) == blob(B.random_bm(seed))
        assert blob(B.random_bi(seed)) == blob(B.random_bi(seed))
    with pytest.raises(InputError):
        B.corpus_bm(-1)
    with pytest.raises(InputError):
        B.corpus_bi(-1)


# sha256 prefixes of canonical_json(instance_to_dict(·)), recorded from
# the generators before their builds were sped up: a faster build must
# give the same instance, byte for byte
BM_DIGESTS = {
    (9, 1): "a8316d18cfbc225b", (9, 2): "d69e86ab813ad6a9", (9, 3): "813ee3e80cfff5a2",
    (12, 1): "08b84a8328b13fc7", (12, 2): "03fc99024a4621fe", (12, 3): "50afc46944e01a49",
    (30, 1): "56cdd425da6e444b", (30, 2): "9a1c57c2dae9636d", (30, 3): "3c75e6dfbb2810a0",
    (52, 1): "3c78de9b6d8a1ceb", (52, 2): "63567fc524ac2974", (52, 3): "081dc9df3d575249",
}
# seed 4 with budget_fraction 1/60, profits up to 10**30 and costs from 0
BM_WIDE_DIGESTS = {
    9: "480029c6ea523a91", 12: "65efe87d47d9738a",
    30: "12e40ae4eb454bd1", 52: "e32505492c5dc9f0",
}
BI_DIGESTS = {
    ("uniform", "partition"): ("ceac320be0355844", "68d4d6469585f846", "03e66c58f8019783",
                               "ce581c2efd278182", "010c006f2064989d", "7784f4c4eb7baaeb"),
    ("partition", "graphic"): ("281522074f9bb317", "acdc7bb0b3408587", "437ef13340e8b633",
                               "491c5e6af0e5f07d", "a50e6f26bccfcf2b", "257e4f0bc7805252"),
    ("graphic", "explicit"): ("3b8e5e33926e80d0", "309854e62927c4ee", "d4a39991e61baa76",
                              "58d5491bed686949", "e226452caa3f3e76", "54e36562b1dbf4dc"),
    ("explicit", "uniform"): ("91bdbca5b3f1af24", "308292317ecd65c1", "ff2ad450b8b78625",
                              "d646489819f542c6", "9a64b57f94aad9a4", "ec606d4ba7cf840d"),
}


def digest(inst) -> str:
    return hashlib.sha256(blob(inst)).hexdigest()[:16]


@pytest.mark.parametrize("nv,seed", sorted(BM_DIGESTS))
def test_random_bm_is_pinned(nv, seed):
    assert digest(B.random_bm(seed, n_vertices=nv)) == BM_DIGESTS[nv, seed]


@pytest.mark.parametrize("nv", sorted(BM_WIDE_DIGESTS))
def test_random_bm_wide_ranges_are_pinned(nv):
    inst = B.random_bm(
        4,
        n_vertices=nv,
        budget_fraction=Fraction(1, 60),
        profit_range=(0, 10**30),
        cost_range=(0, 3),
    )
    assert digest(inst) == BM_WIDE_DIGESTS[nv]


@pytest.mark.parametrize("kinds", sorted(BI_DIGESTS), ids="-".join)
def test_random_bi_is_pinned(kinds):
    got = tuple(
        digest(B.random_bi(seed, n=n, kinds=kinds)) for n in (6, 10) for seed in (1, 2, 3)
    )
    assert got == BI_DIGESTS[kinds]


@pytest.mark.parametrize("gen", [B.random_bm, B.random_bi])
@pytest.mark.parametrize("frac", [0.5, True, "1/2", Fraction(-1, 3)])
def test_budget_fraction_errors_name_the_parameter(gen, frac):
    with pytest.raises(InputError, match="budget_fraction"):
        gen(1, budget_fraction=frac)


def test_corpus_matches_shipped_fixtures():
    for i in range(20):
        for name, inst in (
            (f"bm_{i:03d}.json", B.corpus_bm(i)),
            (f"bi_{i:03d}.json", B.corpus_bi(i)),
        ):
            shipped = (FIXTURES / "corpus" / name).read_bytes()
            assert shipped == blob(inst)
