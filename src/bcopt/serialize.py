"""JSON (de)serialization for instances, matroids, and reports.

Rationals travel as strings ("7", "10/3"); floats are rejected so the
exactness contract survives a round trip.  Serialization is canonical:
sorted keys, fixed indentation, one trailing newline, so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .errors import InputError
from .graphs import Graph
from .matroids import (
    ExplicitMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    PartitionMatroid,
    UniformMatroid,
)
from .model import (
    BCInstance,
    Element,
    MatchingConstraint,
    MatroidIntersectionConstraint,
    Solution,
)

_GF_RE = re.compile(r"^GF\((\d+)\)$")
_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        # only 'num' and 'num/den'; in particular no decimal notation,
        # which Fraction would otherwise happily parse
        if not _RAT_RE.match(value):
            raise InputError(f"bad rational {value!r}: use 'num' or 'num/den'")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise InputError(f"bad rational {value!r}: zero denominator") from None
        except ValueError:
            # past Python's limit on the digits of an int literal
            raise InputError(f"bad rational of {len(value)} characters: too long") from None
    raise InputError(f"expected a rational (int or string), got {value!r}")


# str() refuses an int of more digits than sys.get_int_max_str_digits()
# allows (4,300 by default and never less than 640 when set); below
# 2**1990 < 10**600 it always prints
_STR_BITS = 1990


def _decimal(n: int) -> str:
    """The decimal numeral of n ≥ 0 at any length: a long n is split at
    10**k, about half its digits, and its halves are printed in turn."""
    if n.bit_length() <= _STR_BITS:
        return str(n)
    k = n.bit_length() * 3 // 20  # log10(2) > 3/10, so 10**k < n
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    num = _decimal(abs(value.numerator))
    if value < 0:
        num = "-" + num
    if value.denominator == 1:
        return num
    return f"{num}/{_decimal(value.denominator)}"


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def matroid_to_dict(matroid: Matroid) -> dict:
    if isinstance(matroid, UniformMatroid):
        return {"kind": "uniform", "rank": matroid.rank}
    if isinstance(matroid, PartitionMatroid):
        pairs = sorted(
            (sorted(b), c) for b, c in zip(matroid.blocks, matroid.capacities)
        )
        return {
            "kind": "partition",
            "blocks": [p[0] for p in pairs],
            "capacities": [p[1] for p in pairs],
        }
    if isinstance(matroid, GraphicMatroid):
        g = matroid.graph
        if g.edge_ids != tuple(range(len(g.edge_ids))):
            raise InputError("graphic matroid edge ids must be 0..n-1 to serialize")
        return {
            "kind": "graphic",
            "vertices": g.num_vertices,
            "edges": [list(g.edge_ends[e]) for e in g.edge_ids],
        }
    if isinstance(matroid, LinearMatroid):
        ids = matroid.ground_list
        if ids != tuple(range(len(ids))):
            raise InputError("linear matroid column ids must be 0..n-1 to serialize")
        field = "Q" if matroid.field == "Q" else f"GF({matroid.field})"
        cols = []
        for e in ids:
            col = matroid.columns[e]
            if matroid.field == "Q":
                cols.append([format_rational(x) for x in col])
            else:
                cols.append(list(col))
        return {"kind": "linear", "field": field, "columns": cols}
    if isinstance(matroid, ExplicitMatroid):
        return {
            "kind": "explicit",
            "maximal_independent_sets": sorted(
                sorted(s) for s in matroid.maximal_independent_sets
            ),
        }
    raise InputError(f"cannot serialize matroid of kind {matroid.kind!r}")


def matroid_from_dict(data: Mapping, ground: Sequence[int]) -> Matroid:
    if not isinstance(data, Mapping) or "kind" not in data:
        raise InputError("matroid spec must be an object with a 'kind'")
    kind = data["kind"]
    ground = tuple(ground)
    if kind == "uniform":
        return UniformMatroid(ground, _expect_int(data, "rank"))
    if kind == "partition":
        blocks = data.get("blocks")
        caps = data.get("capacities")
        if not isinstance(blocks, list) or not isinstance(caps, list):
            raise InputError("partition matroid needs 'blocks' and 'capacities'")
        return PartitionMatroid(ground, blocks, caps)
    if kind == "graphic":
        edges = data.get("edges")
        if not isinstance(edges, list):
            raise InputError("graphic matroid needs an 'edges' list")
        if len(edges) != len(ground) or ground != tuple(range(len(ground))):
            raise InputError("graphic matroid edge list must match element ids 0..n-1")
        ends = {}
        for i, pair in enumerate(edges):
            if not isinstance(pair, list) or len(pair) != 2:
                raise InputError(f"edge {i}: expected [u, v]")
            ends[i] = (pair[0], pair[1])
        return GraphicMatroid(Graph(_expect_int(data, "vertices"), ends))
    if kind == "linear":
        field_str = data.get("field", "Q")
        if field_str == "Q":
            field: str | int = "Q"
        else:
            m = _GF_RE.match(str(field_str))
            if not m:
                raise InputError(f"bad field {field_str!r}: use 'Q' or 'GF(p)'")
            field = int(m.group(1))
        cols = data.get("columns")
        if not isinstance(cols, list) or len(cols) != len(ground):
            raise InputError("linear matroid column count must match element count")
        if tuple(ground) != tuple(range(len(ground))):
            raise InputError("linear matroid element ids must be 0..n-1")
        columns = {}
        for i, col in enumerate(cols):
            if not isinstance(col, list):
                raise InputError(f"column {i}: expected a list")
            if field == "Q":
                columns[i] = [parse_rational(x) for x in col]
            else:
                columns[i] = [_as_int(x, f"column {i}") for x in col]
        return LinearMatroid(columns, field)
    if kind == "explicit":
        sets = data.get("maximal_independent_sets")
        if not isinstance(sets, list):
            raise InputError("explicit matroid needs 'maximal_independent_sets'")
        return ExplicitMatroid(ground, sets)
    raise InputError(f"unknown matroid kind {kind!r}")


def _expect_int(data: Mapping, key: str) -> int:
    v = data.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputError(f"expected integer {key!r}, got {v!r}")
    return v


def _as_int(x: Any, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise InputError(f"{where}: expected integer entry, got {x!r}")
    return x


def instance_to_dict(inst: BCInstance) -> dict:
    c = inst.constraint
    if isinstance(c, MatchingConstraint):
        g = c.graph
        constraint: dict = {
            "type": "matching",
            "vertices": g.num_vertices,
            "edges": [
                {"id": e, "u": g.edge_ends[e][0], "v": g.edge_ends[e][1]}
                for e in g.edge_ids
            ],
        }
    else:
        constraint = {
            "type": "matroid_intersection",
            "matroids": [matroid_to_dict(c.m1), matroid_to_dict(c.m2)],
        }
    return {
        "budget": format_rational(inst.budget),
        "elements": [
            {
                "id": e.id,
                "profit": format_rational(e.profit),
                "cost": format_rational(e.cost),
            }
            for e in inst.elements
        ],
        "constraint": constraint,
    }


def instance_from_dict(data: Mapping) -> BCInstance:
    if not isinstance(data, Mapping):
        raise InputError("instance must be a JSON object")
    for key in ("budget", "elements", "constraint"):
        if key not in data:
            raise InputError(f"instance is missing {key!r}")
    raw_elements = data["elements"]
    if not isinstance(raw_elements, list):
        raise InputError("'elements' must be a list")
    elements = []
    for i, re_ in enumerate(raw_elements):
        if not isinstance(re_, Mapping):
            raise InputError(f"element {i}: expected an object")
        elements.append(
            Element(
                _expect_int(re_, "id"),
                parse_rational(re_.get("profit")),
                parse_rational(re_.get("cost")),
            )
        )
    ids = tuple(sorted(e.id for e in elements))
    cdata = data["constraint"]
    if not isinstance(cdata, Mapping):
        raise InputError("'constraint' must be an object")
    ctype = cdata.get("type")
    if ctype == "matching":
        edges = cdata.get("edges")
        if not isinstance(edges, list):
            raise InputError("matching constraint needs an 'edges' list")
        ends = {}
        for ed in edges:
            if not isinstance(ed, Mapping):
                raise InputError("each edge must be an object")
            ends[_expect_int(ed, "id")] = (_expect_int(ed, "u"), _expect_int(ed, "v"))
        if tuple(sorted(ends)) != ids:
            raise InputError("edge ids must match element ids")
        constraint: Any = MatchingConstraint(
            Graph(_expect_int(cdata, "vertices"), ends)
        )
    elif ctype == "matroid_intersection":
        specs = cdata.get("matroids")
        if not isinstance(specs, list) or len(specs) != 2:
            raise InputError("matroid_intersection needs exactly two matroid specs")
        constraint = MatroidIntersectionConstraint(
            matroid_from_dict(specs[0], ids), matroid_from_dict(specs[1], ids)
        )
    else:
        raise InputError(f"unknown constraint type {ctype!r}")
    return BCInstance(elements, constraint, parse_rational(data["budget"]))


def load_instance(path: str) -> BCInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        # a JSONDecodeError, or an integer past Python's digit limit
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    return instance_from_dict(data)


def dump_instance(inst: BCInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(instance_to_dict(inst)))


def solution_to_dict(sol: Solution) -> dict:
    return {
        "ids": list(sol.ids),
        "profit": format_rational(sol.profit),
        "cost": format_rational(sol.cost),
        "feasible": sol.feasible,
    }
