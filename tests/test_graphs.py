import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcopt as B
from bcopt.errors import InputError
from bcopt.graphs import connected_components_edges
from util import random_graph


def test_graph_normalizes_and_validates():
    g = B.Graph(3, {0: (2, 1)})
    assert g.edge_ends[0] == (1, 2)
    with pytest.raises(InputError):
        B.Graph(3, {0: (1, 1)})        # loop
    with pytest.raises(InputError):
        B.Graph(2, {0: (0, 5)})        # vertex out of range
    # parallel edges are allowed and stay distinct
    g2 = B.Graph(2, {0: (0, 1), 1: (0, 1)})
    assert g2.edge_ids == (0, 1)


def test_is_matching_and_adjacency():
    g = B.Graph(5, {0: (1, 2), 1: (1, 3), 2: (3, 4), 3: (2, 4)})
    assert g.is_matching({0, 2})
    assert not g.is_matching({0, 1})
    assert set(g.adjacent_edges(0)) == {1, 3}
    assert set(g.adjacent_edges(2)) == {1, 3}
    with pytest.raises(InputError, match="unknown edge id"):
        g.adjacent_edges(7)


def test_restrict_and_vertex_removal():
    g = B.Graph(5, {0: (1, 2), 1: (1, 3), 2: (3, 4), 3: (2, 4)})
    sub = g.restrict([0, 2])
    assert sub.edge_ids == (0, 2)
    c = B.MatchingConstraint(g)
    gone = c.survivors(c.state_of([0]), g.edge_ids)    # drops vertices 1 and 2
    assert gone == [2]


def test_greedy_matching_takes_cheapest_compatible():
    g = B.Graph(6, {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (4, 5)})
    cost = {0: F(5), 1: F(1), 2: F(2), 3: F(3)}
    assert B.greedy_matching(g, 5, cost) == [1, 3]
    assert B.greedy_matching(g, 1, cost) == [1]


def test_greedy_matching_tie_break_by_id():
    g = B.Graph(4, {0: (0, 1), 1: (2, 3)})
    cost = {0: F(2), 1: F(2)}
    assert B.greedy_matching(g, 2, cost) == [0, 1]


def test_greedy_matching_rejects_bad_cap():
    g = B.Graph(2, {0: (0, 1)})
    with pytest.raises(InputError):
        B.greedy_matching(g, 0, {0: F(1)})


@settings(max_examples=120)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=5))
def test_greedy_matching_dichotomy(seed, cap):
    rng = random.Random(seed)
    g = random_graph(rng)
    cost = {e: F(rng.randint(1, 10)) for e in g.edge_ids}
    m = set(B.greedy_matching(g, cap, cost))
    assert g.is_matching(m)
    assert len(m) <= cap
    for a in g.edge_ids:
        if a in m:
            continue
        blocked = any(b in m and cost[b] <= cost[a] for b in g.adjacent_edges(a))
        capped = (
            len(m) == cap
            and all(cost[b] <= cost[a] for b in m)
            and g.is_matching(m | {a})
        )
        assert blocked or capped


def test_matching_room_of_the_empty_set():
    g = B.Graph(5, {0: (1, 2), 1: (1, 3), 2: (3, 4), 3: (2, 4)})
    assert B.MatchingConstraint(g).room(0) == 2
    # the bound only looks at the vertex count, not the edges
    assert B.MatchingConstraint(B.Graph(3, {})).room(0) == 1
    assert B.MatchingConstraint(B.Graph(0, {})).room(0) == 0


def test_connected_components_edges():
    g = B.Graph(7, {0: (0, 1), 1: (1, 2), 2: (4, 5), 3: (5, 6), 4: (2, 3)})
    comps = connected_components_edges(g, g.edge_ids)
    assert comps == [[0, 1, 4], [2, 3]]
    assert connected_components_edges(g, [3]) == [[3]]
