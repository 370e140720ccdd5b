"""jsonio.dumps: the one-pass writer gives the bytes of json.dumps(...,
indent=2, sort_keys=True) on the tree a plain isinstance walk encodes a
payload to, on every payload shape a command emits."""

import enum
import json
from collections import OrderedDict, namedtuple
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from troplift import jsonio, newton
from troplift.newton import NewtonEdge
from troplift.tropmat import TropMatrix


def reference_encode(v):
    """The JSON tree of a payload, by isinstance tests only."""
    if isinstance(v, Fraction):
        return jsonio.frac_to_str(v)
    if isinstance(v, TropMatrix):
        return jsonio.encode_matrix(v)
    if isinstance(v, NewtonEdge):
        return {
            "u": v.u.monomial_str(),
            "v": v.v.monomial_str(),
            "lattice_length": v.lattice_length,
            "midpoint": None if v.midpoint is None else v.midpoint.monomial_str(),
            "union_cycle_length": v.union_cycle_length,
        }
    if isinstance(v, dict):
        return {str(k): reference_encode(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [reference_encode(x) for x in v]
    if v is None or isinstance(v, (bool, int, str)):
        return v
    raise TypeError(f"no JSON encoding for {type(v).__name__}")


def reference_dumps(v) -> str:
    return json.dumps(reference_encode(v), indent=2, sort_keys=True)


fractions = st.fractions(max_denominator=50, min_value=-100, max_value=100)
matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(fractions, min_size=n, max_size=n), min_size=1, max_size=3)
).map(TropMatrix.make)
edges = st.sampled_from(newton.polytope_edges(3))
leaves = (
    st.none()
    | st.booleans()
    | st.sampled_from([0, 1])
    | st.integers()
    | st.text(max_size=5)
    | st.text(st.characters(min_codepoint=0x80), max_size=4)  # non-ASCII only
    | st.sampled_from([[], {}, (), [[]], [[], [[]]], {"e": []}, {"\u00e9": [{}]}])
    | fractions
    | matrices
    | edges
)
keys = st.text(max_size=3) | st.integers(-3, 3) | st.booleans()
payloads = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(keys, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(payloads)
def test_dumps_matches_the_isinstance_walk(payload):
    assert jsonio.dumps(payload) == reference_dumps(payload)


@pytest.mark.parametrize(
    "payload",
    [[], {}, [[]], [[], [[], {}]], {"": [], "\u00e9\u2603": {"\U0001d11e": [[]]}}, "\x00\n\"\\", -0, 10**30],
)
def test_dumps_writes_edge_shapes_like_the_indented_json_encoder(payload):
    assert jsonio.dumps(payload) == reference_dumps(payload)


class Level(enum.IntEnum):
    LOW = 1


class Name(str):
    pass


class Half(Fraction):
    pass


Pair = namedtuple("Pair", "a b")


@pytest.mark.parametrize(
    "payload",
    [
        {"ok": True, "one": 1, "no": False, "zero": 0, 1: None, True: "t"},
        OrderedDict([("b", Fraction(1, 3)), ("a", [Level.LOW, Name("x")])]),
        Pair(Half(1, 2), (True, 1, False, 0)),
        {"m": TropMatrix.make([[0, Fraction(-1, 2)], [3, 4]]), "e": newton.polytope_edges(3)[0]},
    ],
    ids=["bool_next_to_int", "dict_and_subclasses", "namedtuple", "troplift_types"],
)
def test_subclasses_take_the_isinstance_branches(payload):
    assert jsonio.dumps(payload) == reference_dumps(payload)


@pytest.mark.parametrize("payload", [{"s": {1}}, ({"x": [object()]},), frozenset()])
def test_unknown_types_inside_plain_containers_raise(payload):
    with pytest.raises(TypeError, match="no JSON encoding for"):
        jsonio.dumps(payload)


@pytest.mark.parametrize("x", [Fraction(-7, 3), Half(5, 10), 4, True])
def test_frac_to_str_is_the_string_of_the_fraction(x):
    assert jsonio.frac_to_str(x) == str(Fraction(x))
