import json
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bcopt as B
from bcopt.errors import InputError


def test_parse_rational_forms():
    assert B.parse_rational("3/4") == F(3, 4)
    assert B.parse_rational("-3/4") == F(-3, 4)
    assert B.parse_rational("7") == F(7)
    assert B.parse_rational(7) == F(7)
    for bad in ("3/0", "1.5", "a/b", 1.5, True, None, [1]):
        with pytest.raises(InputError):
            B.parse_rational(bad)


def test_parse_rational_rejects_overlong_numerals():
    """Python will not convert an int literal past its digit limit
    (4,300 by default); such a numeral is an input error, not a crash."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int digit limit")
    assert B.parse_rational("9" * limit) == 10**limit - 1
    for bad in ("1" * (limit + 1), "-1/" + "7" * (limit + 1), "+" + "5" * 5000):
        with pytest.raises(InputError):
            B.parse_rational(bad)


def test_format_rational():
    assert B.format_rational(F(3, 4)) == "3/4"
    assert B.format_rational(F(8, 4)) == "2"
    assert B.format_rational(F(0)) == "0"
    assert B.format_rational(F(-5, 3)) == "-5/3"


@given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
def test_rational_round_trip(num, den):
    x = F(num, den)
    assert B.parse_rational(B.format_rational(x)) == x


def test_canonical_json_is_stable():
    a = B.canonical_json({"b": 1, "a": [2, 3]})
    b = B.canonical_json({"a": [2, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2, 3], "b": 1}


def test_fixture_round_trip(fig1, fig2):
    for inst in (fig1, fig2):
        data = B.instance_to_dict(inst)
        again = B.instance_from_dict(json.loads(B.canonical_json(data)))
        assert again == inst


def test_matroid_kind_round_trips():
    ground = tuple(range(4))
    kinds = [
        B.UniformMatroid(ground, 2),
        B.PartitionMatroid(ground, [[0, 1], [2, 3]], [1, 2]),
        B.GraphicMatroid(B.Graph(3, {0: (0, 1), 1: (1, 2), 2: (0, 2), 3: (0, 1)})),
        B.LinearMatroid({0: [1, 0], 1: [0, 1], 2: [F(1, 2), 1], 3: [1, 1]}, "Q"),
        B.LinearMatroid({0: [1, 0], 1: [0, 1], 2: [1, 1], 3: [1, 2]}, 3),
        B.ExplicitMatroid(ground, [[0, 1], [2, 3]]),
    ]
    from bcopt.serialize import matroid_from_dict, matroid_to_dict

    for m in kinds:
        d = matroid_to_dict(m)
        again = matroid_from_dict(json.loads(json.dumps(d)), ground)
        for mask in range(16):
            assert m.independent_mask(mask) == again.independent_mask(mask)


def test_gf_field_string_parsing():
    from bcopt.serialize import matroid_from_dict

    m = matroid_from_dict(
        {"kind": "linear", "field": "GF(5)", "columns": [[1, 0], [0, 1], [2, 3]]},
        (0, 1, 2),
    )
    assert m.field == 5
    with pytest.raises(InputError):
        matroid_from_dict(
            {"kind": "linear", "field": "GF(x)", "columns": [[1]]}, (0,)
        )
    with pytest.raises(InputError):
        matroid_from_dict({"kind": "mystery"}, (0,))


def test_instance_schema_errors():
    good = {
        "budget": "2",
        "elements": [{"id": 0, "profit": "1", "cost": "1"}],
        "constraint": {
            "type": "matching",
            "vertices": 2,
            "edges": [{"id": 0, "u": 0, "v": 1}],
        },
    }
    assert B.instance_from_dict(good).n == 1
    for mutate in (
        lambda d: d.pop("budget"),
        lambda d: d.__setitem__("budget", "-1"),
        lambda d: d["elements"][0].__setitem__("profit", 0.25),
        lambda d: d["elements"][0].__setitem__("profit", "0.25"),
        lambda d: d["elements"][0].pop("id"),
        lambda d: d["constraint"]["edges"][0].__setitem__("id", 5),
        lambda d: d.__setitem__("constraint", {"type": "nope"}),
    ):
        data = json.loads(json.dumps(good))
        mutate(data)
        with pytest.raises(InputError):
            B.instance_from_dict(data)


def test_dump_load_identity(tmp_path, fig1):
    p = tmp_path / "x.json"
    B.dump_instance(fig1, str(p))
    first = p.read_bytes()
    assert B.load_instance(str(p)) == fig1
    B.dump_instance(B.load_instance(str(p)), str(p))
    assert p.read_bytes() == first


def test_random_instance_round_trips():
    for seed in range(25):
        inst = B.corpus_bm(seed) if seed % 2 else B.corpus_bi(seed)
        again = B.instance_from_dict(
            json.loads(B.canonical_json(B.instance_to_dict(inst)))
        )
        assert again == inst
        rng = random.Random(seed)
        probe = [e for e in inst.ids if rng.random() < 0.4]
        assert inst.is_solution(probe) == again.is_solution(probe)


def test_solution_to_dict(fig1):
    sol = B.brute_force_opt(fig1)
    d = B.solution_to_dict(sol)
    assert d == {"ids": [0, 2], "profit": "11", "cost": "2", "feasible": True}


def _bi(elements, m1, m2, budget=F(1)):
    return B.BCInstance(elements, B.MatroidIntersectionConstraint(m1, m2), budget)


def _els(ids):
    return [B.Element(i, F(1), F(1)) for i in ids]


U2 = B.UniformMatroid(range(2), 1)

# Each builds an instance or oracle with one integer given as a bool.
# True and False are ints to Python, but JSON writes them as booleans
# and the loader rejects those: `"rank": true` never loads back.
BOOL_INPUTS = {
    "element id": lambda: _bi(_els([False, 1]), U2, U2),
    "vertex count": lambda: B.Graph(True, {}),
    "edge id": lambda: B.Graph(2, {True: (0, 1)}),
    "edge endpoint": lambda: B.Graph(2, {0: (False, 1)}),
    "matroid element id": lambda: B.UniformMatroid([False, 1], 1),
    "uniform rank": lambda: B.UniformMatroid(range(2), True),
    "partition capacity": lambda: B.PartitionMatroid(range(2), [[0, 1]], [True]),
    "partition block id": lambda: B.PartitionMatroid(range(2), [[False, 1]], [1]),
    "explicit set id": lambda: B.ExplicitMatroid(range(2), [[True]]),
    "basis limit": lambda: B.min_cost_basis(U2, [1, 1], limit=True),
}


def _two_element_bi(m1_spec):
    return {
        "budget": "1",
        "elements": [{"id": i, "profit": "1", "cost": "1"} for i in range(2)],
        "constraint": {
            "type": "matroid_intersection",
            "matroids": [m1_spec, {"kind": "uniform", "rank": 1}],
        },
    }


def _blocks(blocks):
    return {"kind": "partition", "blocks": blocks, "capacities": [1] * len(blocks)}


def _sets(sets):
    return {"kind": "explicit", "maximal_independent_sets": sets}


# Each spec would load, with a bool read as a bit, or crash in a shift
# or an iteration, if element ids were turned into bits unchecked.
BAD_ID_SPECS = {
    "block id true": _blocks([[0], [True]]),
    "block id false": _blocks([[False], [1]]),
    "block id string": _blocks([[0], ["a"]]),
    "block id float": _blocks([[0.0], [1]]),
    "block id negative": _blocks([[0], [1, -1]]),
    "block id list": _blocks([[[0]], [1]]),
    "block not a list": _blocks([0, [1]]),
    "set id true": _sets([[True]]),
    "set id false": _sets([[False, 1]]),
    "set id string": _sets([["a"]]),
    "set id float": _sets([[0.0]]),
    "set id negative": _sets([[-1]]),
    "set id list": _sets([[[0]]]),
    "set not a list": _sets([0]),
}


@pytest.mark.parametrize("what", sorted(BAD_ID_SPECS))
def test_bad_ids_in_matroid_specs_are_input_errors(what):
    data = json.loads(json.dumps(_two_element_bi(BAD_ID_SPECS[what])))
    with pytest.raises(InputError):
        B.instance_from_dict(data)


@pytest.mark.parametrize("what", sorted(BOOL_INPUTS))
def test_bools_are_not_integers(what):
    with pytest.raises(InputError):
        BOOL_INPUTS[what]()


def test_integer_inputs_round_trip():
    """The instances of BOOL_INPUTS with 0 and 1 in place of the bools
    dump without a JSON boolean and load back equal."""
    g = B.Graph(3, {0: (0, 1), 1: (1, 2)})
    instances = [
        _bi(_els([0, 1]), U2, U2),
        _bi(_els([0, 1]), B.UniformMatroid(range(2), 1),
            B.PartitionMatroid(range(2), [[0, 1]], [1])),
        _bi(_els([0, 1]), B.ExplicitMatroid(range(2), [[1]]), U2),
        B.BCInstance(_els([0, 1]), B.MatchingConstraint(g), F(1)),
    ]
    for inst in instances:
        text = B.canonical_json(B.instance_to_dict(inst))
        assert "true" not in text and "false" not in text
        assert B.instance_from_dict(json.loads(text)) == inst
    assert B.min_cost_basis(U2, [1, 1], limit=1) == {0}


def test_gf_field_past_the_digit_limit_is_an_input_error():
    """A GF(p) numeral past Python's int digit limit is refused as input,
    not left to raise ValueError from int()."""
    data = {
        "budget": "1",
        "constraint": {
            "type": "matroid_intersection",
            "matroids": [
                {"kind": "linear", "field": "GF(" + "9" * 5000 + ")",
                 "columns": [[1], [1]]},
                {"kind": "uniform", "rank": 2},
            ],
        },
        "elements": [{"id": i, "profit": "1", "cost": "1"} for i in range(2)],
    }
    with pytest.raises(InputError, match="too long"):
        B.instance_from_dict(data)
