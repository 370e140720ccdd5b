"""JSON wire formats.

Rationals travel as exact "p/q" strings.  A Puiseux series is
{"terms": [{"exp": "p/q", "coef": "p/q" | {"a","b","d"}}], "trunc": "p/q" | "inf"};
a matrix is {"symmetric": bool, "entries": [["p/q", ...], ...]}; a tree is
{"nodes": k, "leaves": [{"color", "index", "node"}], "edges": [{"u","v","len"}]}.
Decoding is the exact inverse of encoding for matrices, series, trees, and
certificates.  A wrong JSON type raises ValueError, like any malformed input.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .monomials import SignedMonomialClass
from .newton import NewtonEdge
from .puiseux import PuiseuxSeries
from .quadext import QuadExt
from .trees import BicoloredTree, Leaf
from .tropmat import TropMatrix
from .verify import CLAIMS, POSITIVITIES, LiftCertificate


def frac_to_str(x: Fraction) -> str:
    return str(x if type(x) is Fraction else Fraction(x))


def frac_from_str(s) -> Fraction:
    if type(s) not in (str, int):
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


def encode_series(s: PuiseuxSeries) -> dict:
    terms = []
    for exp, coef in s.terms:
        if isinstance(coef, QuadExt):
            cval = {"a": frac_to_str(coef.a), "b": frac_to_str(coef.b), "d": frac_to_str(coef.d)}
        else:
            cval = frac_to_str(coef)
        terms.append({"exp": frac_to_str(exp), "coef": cval})
    return {"terms": terms, "trunc": "inf" if s.trunc is None else frac_to_str(s.trunc)}


def decode_series(obj: dict) -> PuiseuxSeries:
    pairs = []
    for term in _expect(_expect(obj, dict, "a series")["terms"], list, "terms"):
        coef = _expect(term, dict, "a term")["coef"]
        if isinstance(coef, dict):
            d = frac_from_str(coef["d"])
            if d <= 0:
                raise ValueError(f"radicand {d} is not positive")
            coef = QuadExt.make(frac_from_str(coef["a"]), frac_from_str(coef["b"]), d)
        else:
            coef = frac_from_str(coef)
        pairs.append((frac_from_str(term["exp"]), coef))
    trunc = obj.get("trunc", "inf")
    return PuiseuxSeries.make(pairs, None if trunc == "inf" else frac_from_str(trunc))


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


def decode_tree(obj: dict) -> BicoloredTree:
    nodes = int(obj["nodes"])
    adj: dict = {u: {} for u in range(nodes)}
    for e in obj["edges"]:
        u, v, w = int(e["u"]), int(e["v"]), frac_from_str(e["len"])
        adj[u][v] = w
        adj[v][u] = w
    leaves = tuple(
        Leaf(l["color"], int(l["index"]), int(l["node"])) for l in obj["leaves"]
    )
    return BicoloredTree(nodes, adj, leaves)


def encode_certificate(cert: LiftCertificate) -> dict:
    return {
        "target": encode_matrix(cert.target),
        "lift": [[encode_series(e) for e in row] for row in cert.lift],
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
    rows = [_expect(r, list, "a lift row") for r in _expect(obj["lift"], list, "lift")]
    return LiftCertificate(
        target=decode_matrix(obj["target"]),
        lift=tuple(tuple(decode_series(e) for e in row) for row in rows),
        claimed=obj["claimed"],
        positivity=obj["positivity"],
        transcript=list(_expect(obj.get("transcript", []), list, "transcript")),
        seed=obj.get("seed"),
        method=obj.get("method", ""),
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
    matrix and edge as its JSON object, each tuple as a list and each key
    as str(key) (the last of equal strings wins); an unknown type raises
    TypeError.  Most nodes are plain JSON already (encode_certificate has
    turned every rational into a string), so those are tested first."""
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
    raise TypeError(f"no JSON encoding for {type(v).__name__}")


def dumps(obj) -> str:
    """Indented JSON with sorted keys, as json.dumps(..., indent=2,
    sort_keys=True) writes it, in one pass over a command's payload."""
    return _indented(obj, "")
