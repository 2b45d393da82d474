"""The in-package blossom against networkx, its oracle: the same pairs on
every graph, an optimality certificate that cannot be switched off, and
no networkx at run time."""

import os
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcopt as B
from bcopt import blossom
from bcopt.errors import InputError, InvariantError

SRC = pathlib.Path(B.__file__).resolve().parent.parent


def nx_pairs(n, edges):
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for u, v, w in edges:
        g.add_edge(u, v, weight=w)
    return sorted(tuple(sorted(p)) for p in nx.max_weight_matching(g))


@st.composite
def weighted_graphs(draw):
    # up to 30 vertices, isolated ones on sparse draws; weights 1..3 make
    # many matchings tie, weights near 10**18 test exactness; the edge
    # list comes in pair order or shuffled
    n = draw(st.integers(0, 30))
    density = draw(st.sampled_from([0.1, 0.25, 0.5]))
    low, high = draw(st.sampled_from([(1, 3), (10**18 - 6, 10**18)]))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [
        (u, v, rnd.randint(low, high))
        for u in range(n)
        for v in range(u + 1, n)
        if rnd.random() < density
    ]
    if draw(st.booleans()):
        rnd.shuffle(edges)
    return n, edges


@given(weighted_graphs())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_same_pairs_as_networkx(graph):
    n, edges = graph
    assert blossom.max_weight_matching(n, edges) == nx_pairs(n, edges)


def test_same_pairs_as_networkx_on_small_dense_graphs():
    # dense graphs with weights 1..4 tie on many tight edges, which is
    # where the least-slack bookkeeping decides the matching
    rng = random.Random(2026)
    for _ in range(1200):
        n = rng.randint(3, 14)
        density = rng.choice([0.5, 0.8, 1.0])
        top = rng.randint(1, 4)
        edges = [
            (u, v, rng.randint(1, top))
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < density
        ]
        rng.shuffle(edges)
        assert blossom.max_weight_matching(n, edges) == nx_pairs(n, edges)


def test_same_pairs_as_networkx_on_sorted_complete_graphs():
    # the order bcopt uses: every pair once, ascending; all weights tie
    # on the first graph, so the tie-break alone picks the matching
    for n, mod in ((9, 1), (12, 3), (17, 5)):
        edges = [
            (u, v, 1 + (u * v) % mod) for u in range(n) for v in range(u + 1, n)
        ]
        assert blossom.max_weight_matching(n, edges) == nx_pairs(n, edges)


# The classic blossom test graphs (Joris van Rantwijk's mwmatching test
# set, also in networkx's test suite): between them they create, relabel,
# nest, expand and augment through S- and T-blossoms.
CLASSIC = {
    "s_blossom": [(1, 2, 8), (1, 3, 9), (2, 3, 10), (3, 4, 7), (1, 6, 5), (4, 5, 6)],
    "s_t_blossom": [(1, 2, 9), (1, 3, 8), (2, 3, 10), (1, 4, 5), (4, 5, 3), (3, 6, 4)],
    "nested_s": [(1, 2, 9), (1, 3, 9), (2, 3, 10), (2, 4, 8), (3, 5, 8), (4, 5, 10), (5, 6, 6)],
    "nested_s_relabel": [
        (1, 2, 10), (1, 7, 10), (2, 3, 12), (3, 4, 20), (3, 5, 20), (4, 5, 25),
        (5, 6, 10), (6, 7, 10), (7, 8, 8),
    ],
    "nested_s_expand": [
        (1, 2, 8), (1, 3, 8), (2, 3, 10), (2, 4, 12), (3, 5, 12), (4, 5, 14),
        (4, 6, 12), (5, 7, 12), (6, 7, 14), (7, 8, 12),
    ],
    "s_relabel_expand": [
        (1, 2, 23), (1, 5, 22), (1, 6, 15), (2, 3, 25), (3, 4, 22), (4, 5, 25),
        (4, 8, 14), (5, 7, 13),
    ],
    "nested_s_relabel_expand": [
        (1, 2, 19), (1, 3, 20), (1, 8, 8), (2, 3, 25), (2, 4, 18), (3, 5, 18),
        (4, 5, 13), (4, 7, 7), (5, 6, 7),
    ],
    "nasty1": [
        (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
        (3, 9, 35), (4, 8, 35), (5, 7, 26), (9, 10, 5),
    ],
    "nasty2": [
        (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
        (3, 9, 35), (4, 8, 26), (5, 7, 40), (9, 10, 5),
    ],
    "nasty_least_slack": [
        (1, 2, 45), (1, 5, 45), (2, 3, 50), (3, 4, 45), (4, 5, 50), (1, 6, 30),
        (3, 9, 35), (4, 8, 28), (5, 7, 26), (9, 10, 5),
    ],
    "nasty_augmenting": [
        (1, 2, 45), (1, 7, 45), (2, 3, 50), (3, 4, 45), (4, 5, 95), (4, 6, 94),
        (5, 6, 94), (6, 7, 50), (1, 8, 30), (3, 11, 35), (5, 9, 36), (7, 10, 26),
        (11, 12, 5),
    ],
    "nasty_expand_recursively": [
        (1, 2, 40), (1, 3, 40), (2, 3, 60), (2, 4, 55), (3, 5, 55), (4, 5, 50),
        (1, 8, 15), (5, 7, 30), (6, 7, 10), (8, 10, 10), (4, 9, 30),
    ],
}


@pytest.mark.parametrize("name", sorted(CLASSIC))
def test_same_pairs_as_networkx_on_classic_blossom_graphs(name):
    # vertex 0 stays isolated; the graphs are also run in reverse edge
    # order, which changes the neighbour order and so the path taken
    edges = CLASSIC[name]
    n = 1 + max(v for _, v, _ in edges)
    for order in (edges, edges[::-1]):
        assert blossom.max_weight_matching(n, order) == nx_pairs(n, order)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1, 0)],  # not positive
        [(0, 1, 1.0)],  # not an int
        [(0, 1, True)],
        [(1, 0, 1)],  # not u < v
        [(0, 0, 1)],
        [(0, 4, 1)],  # no vertex 4
        [(0, 1, 1), (0, 1, 2)],  # a repeated pair
    ],
)
def test_rejects_malformed_edges(edges):
    with pytest.raises(InputError):
        blossom.max_weight_matching(4, edges)


def test_no_vertices_no_pairs():
    assert blossom.max_weight_matching(0, []) == []


# Edge 1–2 (weight 5) beats 0–1 and 2–3 (weight 2 each): the certificate
# of the optimum {1–2} must reject each corruption below.
CORRUPTIONS = {
    # a worse matching under the optimum's duals: 0–1 and 2–3 have slack
    "mate": "mate.clear(); mate.update({0: 1, 1: 0, 2: 3, 3: 2})",
    # a dual lowered: matched edge 1–2 gets negative slack
    "dual": "dualvar[1] -= 2",
    # a single vertex (0) with a positive dual
    "single": "dualvar[0] += 2",
}
SETUP = """
from bcopt import blossom
from bcopt.errors import InvariantError
adj = [{1: 4}, {0: 4, 2: 10}, {1: 10, 3: 4}, {2: 4}]
mate, dualvar, parent, zdual, bedges = blossom._solve(adj, 5)
blossom._verify_optimum(adj, mate, dualvar, parent, zdual, bedges)
"""


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
def test_corrupted_certificate_raises(corrupt):
    scope: dict = {}
    exec(SETUP, scope)
    assert scope["mate"] == {1: 2, 2: 1}
    exec(CORRUPTIONS[corrupt], scope)
    with pytest.raises(InvariantError):
        exec("blossom._verify_optimum(adj, mate, dualvar, parent, zdual, bedges)", scope)


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
def test_corrupted_certificate_raises_under_optimize_flag(corrupt):
    # python -O strips assert statements; the certificate check must stay
    script = SETUP + CORRUPTIONS[corrupt] + textwrap.dedent(
        """
        try:
            blossom._verify_optimum(adj, mate, dualvar, parent, zdual, bedges)
        except InvariantError as exc:
            print(type(exc).__name__, __debug__)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "InvariantError False"


# The s_blossom graph ends with one blossom of positive dual, the
# triangle 1–2–3, whose odd-indexed edge 3–2 is matched: its
# certificate must reject each corruption below, with the named check.
BLOSSOM_CORRUPTIONS = {
    "negative dual": ("for b in zdual: zdual[b] = -2", "a negative blossom dual"),
    # the edge list rotated by one puts the unmatched 2–1 at odd index
    "not full": (
        "for b in zdual: bedges[b] = bedges[b][1:] + bedges[b][:1]",
        "a blossom with positive dual is not full",
    ),
}
BLOSSOM_SETUP = """
from bcopt import blossom
from bcopt.errors import InvariantError
adj = [{} for _ in range(7)]
for u, v, w in %r:
    adj[u][v] = adj[v][u] = 2 * w
mate, dualvar, parent, zdual, bedges = blossom._solve(adj, 10)
blossom._verify_optimum(adj, mate, dualvar, parent, zdual, bedges)
""" % (CLASSIC["s_blossom"],)


@pytest.mark.parametrize("corrupt", sorted(BLOSSOM_CORRUPTIONS))
def test_corrupted_blossom_certificate_raises(corrupt):
    scope: dict = {}
    exec(BLOSSOM_SETUP, scope)
    assert len(scope["zdual"]) == 1
    assert all(z > 0 for z in scope["zdual"].values())
    code, what = BLOSSOM_CORRUPTIONS[corrupt]
    exec(code, scope)
    with pytest.raises(InvariantError, match=what):
        exec("blossom._verify_optimum(adj, mate, dualvar, parent, zdual, bedges)", scope)


@pytest.mark.parametrize("corrupt", sorted(BLOSSOM_CORRUPTIONS))
def test_corrupted_blossom_certificate_raises_under_optimize_flag(corrupt):
    code, what = BLOSSOM_CORRUPTIONS[corrupt]
    script = BLOSSOM_SETUP + code + textwrap.dedent(
        """
        try:
            blossom._verify_optimum(adj, mate, dualvar, parent, zdual, bedges)
        except InvariantError as exc:
            print(type(exc).__name__, __debug__, str(exc))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.startswith("InvariantError False ")
    assert what in out.stdout


@pytest.mark.parametrize("nv", [30, 40, 52])
def test_same_pairs_as_networkx_on_relaxation_probes(nv, monkeypatch):
    # the graphs the Lagrangian search hands the blossom at the sizes of
    # the nps_large benchmark, breakpoint probes (where two matchings
    # tie) included
    probes = []
    solve = blossom.max_weight_matching

    def record(n, edges):
        probes.append((n, list(edges)))
        return solve(n, edges)

    monkeypatch.setattr(blossom, "max_weight_matching", record)
    breakpoints = 0
    for seed in range(3):
        inst = B.random_bm(seed, n_vertices=nv, budget_fraction=Fraction(1, 60))
        cert = B.lagrangian_search(inst)
        breakpoints += cert.lam_lo == cert.lam_hi
    assert breakpoints and len(probes) > 6
    for n, edges in probes:
        assert solve(n, edges) == nx_pairs(n, edges)


def test_package_runs_without_networkx():
    script = "import sys, bcopt, bcopt.cli; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.strip() == "False"
