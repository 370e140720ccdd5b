"""JSON wire formats.

Rationals travel as exact "p/q" strings.  A Puiseux series is
{"terms": [{"exp": "p/q", "coef": "p/q" | {"a","b","d"}}], "trunc": "p/q" | "inf"};
a matrix is {"symmetric": bool, "entries": [["p/q", ...], ...]}; a tree is
{"nodes": k, "leaves": [{"color", "index", "node"}], "edges": [{"u","v","len"}]},
with JSON integers for k, index, node, u and v, each node among 0..k-1, and
color "red" or "blue".  Decoding is the exact inverse of encoding for
matrices, series, trees, and certificates.  A wrong JSON type raises
ValueError, like any malformed input.

A series becomes JSON in one place: `dumps` writes it straight from its
sorted term tuples (`_series_json`); `encode_certificate` leaves the lift's
series for it.  Decoding has a fast path for the canonical form the writer
emits: a `-?digits[/digits]` string is read by int, a certificate parses
each distinct rational string and checks each distinct radicand once, and
a term list that is already sorted, merged and below `trunc` becomes the
series as it stands.  Any other input takes the general path (Fraction's
parser, PuiseuxSeries.make), so the set of accepted inputs, their values
and the errors are those of the general path.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from operator import lt

from .monomials import SignedMonomialClass
from .newton import NewtonEdge
from .puiseux import PuiseuxSeries
from .quadext import QuadExt, sqrt_exact
from .trees import BLUE, RED, BicoloredTree, Leaf
from .tropmat import TropMatrix
from .verify import CLAIMS, POSITIVITIES, LiftCertificate


def frac_to_str(x: Fraction) -> str:
    return str(x if type(x) is Fraction else Fraction(x))


def frac_from_str(s) -> Fraction:
    """The rational of a JSON string or int.  A canonical ASCII
    `-?digits[/digits]` string is split and read by int; every other
    string goes to Fraction, so its rules and errors hold unchanged."""
    if type(s) is str:
        num, slash, den = s.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isdigit() and digits.isascii() and (
            not slash or (den.isdigit() and den.isascii())
        ):
            try:
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            except ValueError:
                pass  # past int's digit limit: Fraction(s) raises its own error
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {s!r}") from None
    elif type(s) is not int:
        raise ValueError(f'a rational must be a "p/q" string, got {s!r}')
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _expect(value, kind, what: str):
    """value itself, when it is a JSON object (kind dict) or array (list)."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        raise ValueError(f"{what} must be a JSON {name}, got {value!r}")
    return value


class _Reader:
    """The rationals of one document: each distinct string is parsed once,
    and each distinct radicand string checked once."""

    __slots__ = ("fracs", "roots")

    def __init__(self):
        self.fracs: dict = {}
        self.roots: dict = {}  # radicand string -> (d, sqrt_exact(d))

    def frac(self, s) -> Fraction:
        if type(s) is not str:
            return frac_from_str(s)
        x = self.fracs.get(s)
        if x is None:
            x = self.fracs[s] = frac_from_str(s)
        return x

    def coef(self, c):
        """A coefficient, as QuadExt.make builds it: a + b*sqrt(d), folded
        to a Fraction when b = 0 or d is a square."""
        if not isinstance(c, dict):
            return self.frac(c)
        ds = c["d"]
        hit = self.roots.get(ds) if type(ds) is str else None
        if hit is None:
            d = self.frac(ds)
            if d <= 0:
                raise ValueError(f"radicand {d} is not positive")
            hit = (d, sqrt_exact(d))
            if type(ds) is str:
                self.roots[ds] = hit
        d, root = hit
        a, b = self.frac(c["a"]), self.frac(c["b"])
        if b == 0:
            return a
        return QuadExt(a, b, d) if root is None else a + b * root

    def series(self, obj) -> PuiseuxSeries:
        """Terms sorted and merged, as the encoder writes them, become the
        series as they stand; any other list goes through make."""
        pairs = []
        for term in _expect(_expect(obj, dict, "a series")["terms"], list, "terms"):
            coef = self.coef(_expect(term, dict, "a term")["coef"])
            pairs.append((self.frac(term["exp"]), coef))
        trunc = obj.get("trunc", "inf")
        trunc = None if trunc == "inf" else self.frac(trunc)
        exps = [e for e, _ in pairs]
        if (
            all(map(lt, exps, exps[1:]))
            and not any(type(c) is Fraction and not c for _, c in pairs)
            and (trunc is None or not exps or exps[-1] < trunc)
        ):
            return PuiseuxSeries(tuple(pairs), trunc)
        return PuiseuxSeries.make(pairs, trunc)


def decode_series(obj: dict) -> PuiseuxSeries:
    return _Reader().series(obj)


def encode_matrix(a: TropMatrix) -> dict:
    return {
        "symmetric": a.symmetric,
        "entries": [[frac_to_str(x) for x in row] for row in a.entries],
    }


def decode_matrix(obj: dict) -> TropMatrix:
    symmetric = _expect(obj, dict, "a matrix").get("symmetric", False)
    if not isinstance(symmetric, bool):
        raise ValueError(f"symmetric must be a JSON boolean, got {symmetric!r}")
    rows = [_expect(r, list, "a matrix row") for r in _expect(obj["entries"], list, "entries")]
    return TropMatrix.make([[frac_from_str(x) for x in row] for row in rows], symmetric=symmetric)


def encode_tree(t: BicoloredTree) -> dict:
    return {
        "nodes": t.nodes,
        "leaves": [
            {"color": l.color, "index": l.index, "node": l.node} for l in t.leaves
        ],
        "edges": [
            {"u": u, "v": v, "len": frac_to_str(w)} for u, v, w in t.edge_list()
        ],
    }


def _json_int(value, what: str) -> int:
    """value itself, when it is a JSON integer (not a boolean)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def decode_tree(obj: dict) -> BicoloredTree:
    nodes = _json_int(_expect(obj, dict, "a tree")["nodes"], "nodes")

    def node(value, what: str) -> int:
        if not 0 <= _json_int(value, what) < nodes:
            raise ValueError(f"{what} must be a node of 0..{nodes - 1}, got {value}")
        return value

    adj: dict = {u: {} for u in range(nodes)}
    for e in _expect(obj["edges"], list, "edges"):
        _expect(e, dict, "an edge")
        u, v, w = node(e["u"], "u"), node(e["v"], "v"), frac_from_str(e["len"])
        adj[u][v] = w
        adj[v][u] = w
    leaves = []
    for l in _expect(obj["leaves"], list, "leaves"):
        color = _expect(l, dict, "a leaf")["color"]
        if color not in (RED, BLUE):
            raise ValueError(f'color must be "red" or "blue", got {color!r}')
        leaves.append(Leaf(color, _json_int(l["index"], "index"), node(l["node"], "node")))
    return BicoloredTree(nodes, adj, tuple(leaves))


def encode_certificate(cert: LiftCertificate) -> dict:
    return {
        "target": encode_matrix(cert.target),
        "lift": cert.lift,
        "claimed": cert.claimed,
        "positivity": cert.positivity,
        "transcript": cert.transcript,
        "seed": cert.seed,
        "method": cert.method,
    }


def decode_certificate(obj: dict) -> LiftCertificate:
    if _expect(obj, dict, "a certificate")["claimed"] not in CLAIMS:
        raise ValueError(f"unknown claim {obj['claimed']!r}; expected one of {CLAIMS}")
    if obj["positivity"] not in POSITIVITIES:
        raise ValueError(
            f"unknown positivity {obj['positivity']!r}; expected one of {POSITIVITIES}"
        )
    seed, method = obj.get("seed"), obj.get("method", "")
    if seed is not None and type(seed) is not int:  # a bool is not a seed
        raise ValueError(f"seed must be a JSON integer or null, got {seed!r}")
    if not isinstance(method, str):
        raise ValueError(f"method must be a JSON string, got {method!r}")
    rows = [_expect(r, list, "a lift row") for r in _expect(obj["lift"], list, "lift")]
    series = _Reader().series
    return LiftCertificate(
        target=decode_matrix(obj["target"]),
        lift=tuple(tuple(series(e) for e in row) for row in rows),
        claimed=obj["claimed"],
        positivity=obj["positivity"],
        transcript=list(_expect(obj.get("transcript", []), list, "transcript")),
        seed=seed,
        method=method,
    )


def encode_class(cls: SignedMonomialClass) -> dict:
    return {
        "monomial": cls.monomial_str(),
        "exponent": [list(r) for r in cls.exponent],
        "sign": cls.sign,
        "coefficient": cls.coefficient,
        "representative": list(cls.representative),
        "cycle_type": list(cls.cycle_type),
        "graph": [
            {"component": kind, "vertices": [v + 1 for v in verts]}
            for kind, verts in cls.graph_components()
        ],
    }


def _indented(v, pad: str) -> str:
    """The bytes of json.dumps(tree, indent=2, sort_keys=True), nested below
    `pad`, where tree is v with each rational as its "p/q" string, each
    matrix, edge and series as its JSON object, each tuple as a list and
    each key as str(key) (the last of equal strings wins); an unknown type
    raises TypeError.  Most nodes are plain JSON already, so those are
    tested first."""
    if isinstance(v, str):
        return _quote(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        if any(type(k) is not str for k in v):
            v = {str(k): x for k, x in v.items()}
        inner = pad + "  "
        body = (",\n" + inner).join(
            [_quote(k) + ": " + _indented(v[k], inner) for k in sorted(v)]
        )
        return "{\n" + inner + body + "\n" + pad + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        inner = pad + "  "
        body = (",\n" + inner).join([_indented(x, inner) for x in v])
        return "[\n" + inner + body + "\n" + pad + "]"
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, Fraction):
        return _quote(frac_to_str(v))
    if isinstance(v, TropMatrix):
        return _indented(encode_matrix(v), pad)
    if isinstance(v, NewtonEdge):
        edge = {
            "u": v.u.monomial_str(),
            "v": v.v.monomial_str(),
            "lattice_length": v.lattice_length,
            "midpoint": None if v.midpoint is None else v.midpoint.monomial_str(),
            "union_cycle_length": v.union_cycle_length,
        }
        return _indented(edge, pad)
    if isinstance(v, PuiseuxSeries):
        return _series_json(v, pad)
    raise TypeError(f"no JSON encoding for {type(v).__name__}")


def _series_json(s: PuiseuxSeries, pad: str) -> str:
    """The indented, key-sorted JSON object of a series, written from its
    term tuples: {"terms": [{"coef": c, "exp": e}, ...], "trunc": t}, c a
    "p/q" string or {"a", "b", "d"} for a + b*sqrt(d).  The strings of
    rationals need no escaping."""
    p2 = pad + "  "
    p4 = p2 + "  "
    p6 = p4 + "  "
    p8 = p6 + "  "
    head = "{\n" + p6 + '"coef": '
    middle = ",\n" + p6 + '"exp": "'
    tail = '"\n' + p4 + "}"
    terms = []
    for exp, coef in s.terms:
        if isinstance(coef, QuadExt):
            coef = (
                "{\n" + p8 + '"a": "' + frac_to_str(coef.a) + '",\n'
                + p8 + '"b": "' + frac_to_str(coef.b) + '",\n'
                + p8 + '"d": "' + frac_to_str(coef.d) + '"\n' + p6 + "}"
            )
        else:
            coef = '"' + frac_to_str(coef) + '"'
        terms.append(head + coef + middle + frac_to_str(exp) + tail)
    body = "[\n" + p4 + (",\n" + p4).join(terms) + "\n" + p2 + "]" if terms else "[]"
    trunc = "inf" if s.trunc is None else frac_to_str(s.trunc)
    return "{\n" + p2 + '"terms": ' + body + ",\n" + p2 + '"trunc": "' + trunc + '"\n' + pad + "}"


def dumps(obj) -> str:
    """Indented JSON with sorted keys, as json.dumps(..., indent=2,
    sort_keys=True) writes it, in one pass over a command's payload."""
    return _indented(obj, "")
