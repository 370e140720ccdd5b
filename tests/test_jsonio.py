"""jsonio.dumps: the one-pass writer gives the bytes of json.dumps(...,
indent=2, sort_keys=True) on the tree a plain isinstance walk encodes a
payload to, on every payload shape a command emits.  The decoders' fast
paths and the series writer agree with the general code they replaced,
kept below as references: on values, types, errors and bytes.  decode_tree
rejects every shape its wire format does not allow."""

import enum
import json
from collections import OrderedDict, namedtuple
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from troplift import jsonio, newton
from troplift.newton import NewtonEdge
from troplift.puiseux import PuiseuxSeries
from troplift.quadext import QuadExt
from troplift.tropmat import TropMatrix


# The series codec before the canonical fast paths, verbatim, as references
# (_expect is unchanged).


def old_frac_from_str(s) -> Fraction:
    if type(s) not in (str, int):
        raise ValueError(f'a rational must be a "p/q" string, got {s!r}')
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


_expect = jsonio._expect


def old_encode_series(s: PuiseuxSeries) -> dict:
    terms = []
    for exp, coef in s.terms:
        if isinstance(coef, QuadExt):
            cval = {
                "a": jsonio.frac_to_str(coef.a),
                "b": jsonio.frac_to_str(coef.b),
                "d": jsonio.frac_to_str(coef.d),
            }
        else:
            cval = jsonio.frac_to_str(coef)
        terms.append({"exp": jsonio.frac_to_str(exp), "coef": cval})
    return {"terms": terms, "trunc": "inf" if s.trunc is None else jsonio.frac_to_str(s.trunc)}


def old_decode_series(obj: dict) -> PuiseuxSeries:
    pairs = []
    for term in _expect(_expect(obj, dict, "a series")["terms"], list, "terms"):
        coef = _expect(term, dict, "a term")["coef"]
        if isinstance(coef, dict):
            d = old_frac_from_str(coef["d"])
            if d <= 0:
                raise ValueError(f"radicand {d} is not positive")
            coef = QuadExt.make(old_frac_from_str(coef["a"]), old_frac_from_str(coef["b"]), d)
        else:
            coef = old_frac_from_str(coef)
        pairs.append((old_frac_from_str(term["exp"]), coef))
    trunc = obj.get("trunc", "inf")
    return PuiseuxSeries.make(pairs, None if trunc == "inf" else old_frac_from_str(trunc))


def reference_encode(v):
    """The JSON tree of a payload, by isinstance tests only."""
    if isinstance(v, Fraction):
        return jsonio.frac_to_str(v)
    if isinstance(v, TropMatrix):
        return jsonio.encode_matrix(v)
    if isinstance(v, PuiseuxSeries):
        return old_encode_series(v)
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
exponents = st.fractions(max_denominator=6, min_value=-9, max_value=9)


@st.composite
def series(draw):
    """A series over one radicand: empty, exact or truncated, with negative
    exponents and sqrt(d) coefficients."""
    d = draw(st.sampled_from([Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3)]))
    coefficients = fractions | st.builds(QuadExt.make, fractions, fractions, st.just(d))
    pairs = draw(st.lists(st.tuples(exponents, coefficients), max_size=6))
    trunc = draw(st.none() | st.fractions(max_denominator=6, min_value=-9, max_value=12))
    return PuiseuxSeries.make(pairs, trunc)


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
    | series()
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


def outcome(fn, *args):
    """What a call gives: the error's type and text, or the value with the
    type of every rational in it."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return ("raises", type(exc), str(exc))
    return shape(value)


def shape(x):
    if isinstance(x, PuiseuxSeries):
        return ("series", [(shape(e), shape(c)) for e, c in x.terms], shape(x.trunc))
    if isinstance(x, QuadExt):
        return (type(x), shape(x.a), shape(x.b), shape(x.d))
    if isinstance(x, (list, tuple)):
        return [shape(v) for v in x]
    return (type(x), x)


RATIONAL_CASES = [
    "1.5", "2/4", "-0", "+1", " 3 ", "1_0", "1/0", "1/-2", "\u0661\u0662", "\u00b2",
    True, None, "9" * 5000, "-" + "9" * 5000, "1/" + "7" * 5000, "0/0", "-1/0", "-00/04",
    "", "-", "/", "1/", "/2", "--1", "1/2/3", "3\n", "1e3", "inf", "nan", 7, -0, 10**40,
    1.5, [], {}, ["1"],
]
canonical = st.builds(
    lambda sign, n, d: sign + str(n) + ("" if d is None else "/" + str(d)),
    st.sampled_from(["", "-"]),
    st.integers(0, 10**30),
    st.none() | st.integers(0, 10**6),
)
near_canonical = st.text(alphabet="-+/0123456789._ e\u0661\u00b2", max_size=8)
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)


@pytest.mark.parametrize("s", RATIONAL_CASES, ids=range(len(RATIONAL_CASES)))
def test_frac_from_str_agrees_with_the_fraction_parser_on_fixed_cases(s):
    assert outcome(jsonio.frac_from_str, s) == outcome(old_frac_from_str, s)


@settings(max_examples=500, deadline=None)
@given(st.text() | canonical | near_canonical | json_scalars)
def test_frac_from_str_agrees_with_the_fraction_parser(s):
    assert outcome(jsonio.frac_from_str, s) == outcome(old_frac_from_str, s)


rational_strings = st.sampled_from(["0", "1", "-1", "2/4", "1/2", "-3/2", "5", "7/3", " 2"])
radicand_strings = st.sampled_from(["2", "3", "4", "9/4", "1/2", "8/2", "0", "-2", "1"])
coef_json = rational_strings | st.fixed_dictionaries(
    {"a": rational_strings, "b": rational_strings, "d": radicand_strings}
)
term_json = st.fixed_dictionaries({"exp": rational_strings, "coef": coef_json})


@st.composite
def series_json(draw):
    """A series document: the writer's sorted form or any term list, with
    duplicate exponents, zero coefficients, terms at or above trunc, mixed
    radicands and, now and then, a malformed part."""
    if draw(st.booleans()):
        obj = json.loads(jsonio.dumps(draw(series())))
    else:
        obj = {"terms": draw(st.lists(term_json, max_size=6))}
        trunc = draw(st.none() | st.just("inf") | rational_strings)
        if trunc is not None:
            obj["trunc"] = trunc
    if draw(st.integers(0, 9)) == 0:
        bad = draw(st.sampled_from([None, "x", 1.5, True, [], "1/0"]))
        where = draw(st.sampled_from(["trunc", "exp", "coef", "a", "d", "term"]))
        if where == "trunc":
            obj["trunc"] = bad
        elif where == "term":
            obj["terms"].append(bad)
        elif obj["terms"]:
            term = obj["terms"][0]
            if where in ("exp", "coef"):
                term[where] = bad
            elif isinstance(term["coef"], dict):
                term["coef"][where] = bad
    return obj


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(series_json())
def test_decode_series_agrees_with_the_make_path(obj):
    assert outcome(jsonio.decode_series, obj) == outcome(old_decode_series, obj)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(series_json(), min_size=4, max_size=4))
def test_decode_certificate_shares_its_parses_without_changing_a_series(entries):
    """One document's memo of rationals and radicands: each series decodes
    as on its own, and the first bad series raises the same error."""
    doc = {
        "target": {"entries": [["0", "1/2"], ["1/2", "0"]]},
        "lift": [entries[:2], entries[2:]],
        "claimed": "rank<=2",
        "positivity": "none",
    }

    def old_lift(doc):
        return [old_decode_series(e) for row in doc["lift"] for e in row]

    def new_lift(doc):
        return [e for row in jsonio.decode_certificate(doc).lift for e in row]

    assert outcome(new_lift, doc) == outcome(old_lift, doc)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(series(), st.integers(0, 3))
def test_dumps_writes_a_series_as_the_dict_writer_did(s, depth):
    assert jsonio.dumps(s) == jsonio.dumps(old_encode_series(s))
    payload = s
    for _ in range(depth):
        payload = {"x": [payload]}
    assert jsonio.dumps(payload) == reference_dumps(payload)


SERIES_CASES = [
    PuiseuxSeries.zero(),
    PuiseuxSeries((), Fraction(3)),
    PuiseuxSeries.make([(Fraction(-5, 2), Fraction(-7, 3)), (Fraction(0), Fraction(1))]),
    PuiseuxSeries.make(
        [(Fraction(-1), QuadExt.make(1, Fraction(-1, 2), 2)), (Fraction(1, 3), Fraction(2))],
        Fraction(4),
    ),
]


@pytest.mark.parametrize("s", SERIES_CASES, ids=["zero", "unknown", "exact", "sqrt_truncated"])
def test_series_round_trips_through_the_one_writer(s):
    text = jsonio.dumps(s)
    assert text == jsonio.dumps(old_encode_series(s)) == reference_dumps(s)
    assert outcome(jsonio.decode_series, json.loads(text)) == shape(s)


def _tree_doc():
    return {
        "nodes": 2,
        "leaves": [
            {"color": "red", "index": 1, "node": 0},
            {"color": "blue", "index": 1, "node": 1},
        ],
        "edges": [{"u": 0, "v": 1, "len": "1"}],
    }


def test_decode_tree_reads_its_wire_format():
    tree = jsonio.decode_tree(_tree_doc())
    assert jsonio.encode_tree(tree) == _tree_doc()


@pytest.mark.parametrize(
    "path, value",
    [
        (("nodes",), 2.0),
        (("nodes",), "2"),
        (("nodes",), True),
        (("edges", 0, "u"), 0.9),
        (("edges", 0, "u"), False),
        (("edges", 0, "v"), "1"),
        (("edges", 0, "v"), 2),
        (("edges", 0, "u"), -1),
        (("leaves", 0, "index"), "1"),
        (("leaves", 0, "index"), True),
        (("leaves", 0, "node"), 1.0),
        (("leaves", 0, "node"), 5),
        (("leaves", 0, "color"), "green"),
        (("leaves", 0, "color"), None),
        (("edges",), {}),
        (("leaves", 0), ["red", 1, 0]),
    ],
    ids=lambda v: repr(v),
)
def test_decode_tree_rejects_what_the_wire_format_does_not_allow(path, value):
    doc = _tree_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError):
        jsonio.decode_tree(doc)
