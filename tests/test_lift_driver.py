"""The seeded-attempt driver and the one issuing path, at their edges.

verify_lift is patched where lifts.py looks it up.  Rejecting the first
certificate makes each seeded lift return attempt 1's certificate;
rejecting every certificate makes it raise its own exhaustion error, and
makes a one-shot lift return an invalid certificate.
"""

import json
from pathlib import Path

import pytest

from troplift import jsonio, lifts, rng
from troplift.cli import main
from troplift.errors import DegenerateGeneric, GenericRetryExhausted
from troplift.fixtures import fixture
from troplift.tropmat import TropMatrix
from troplift.verify import verify_lift

GOLDEN = Path(__file__).parent / "golden"
CASES = {c["name"]: c for c in json.loads((GOLDEN / "cases.json").read_text())}
REJECTED = {"check": "rejected", "ok": False, "detail": "patched verifier"}


def _case(name):
    return jsonio.decode_matrix(CASES[name]["input"])


# stream kind -> the seeded lift that draws from it, on one input
SEEDED = {
    "rank2_real": lambda: lifts.lift_rank2_real(fixture("eq1")),
    "sym_rank2_real": lambda: lifts.lift_sym_rank2_real(_case("sample20-sym_rank2-R")),
    "corank1": lambda: lifts.lift_corank1(fixture("ex52"), "R"),
    "sym_corank1": lambda: lifts.lift_sym_corank1(fixture("fig2a"), "R+"),
}
EXHAUSTED = {
    "rank2_real": (GenericRetryExhausted, "frame completion kept cancelling after retries"),
    "sym_rank2_real": (GenericRetryExhausted, "generator construction kept cancelling after retries"),
    "corank1": (DegenerateGeneric, "generic draws kept failing the linear solve"),
    "sym_corank1": (DegenerateGeneric, "quadratic solve kept failing after retries"),
}


@pytest.fixture()
def streams(monkeypatch):
    """The token tuples of every rng.stream call, in order."""
    calls = []
    real = rng.stream

    def recorded(seed, *tokens):
        calls.append(tokens)
        return real(seed, *tokens)

    monkeypatch.setattr(rng, "stream", recorded)
    return calls


def _reject_first(monkeypatch):
    seen = []

    def verify(cert, bound):
        steps = verify_lift(cert, bound)
        if not seen:
            steps.append(dict(REJECTED))
        seen.append(cert)
        return steps

    monkeypatch.setattr(lifts, "verify_lift", verify)


def _reject_all(monkeypatch):
    def verify(cert, bound):
        cert.transcript = [dict(REJECTED)]
        return cert.transcript

    monkeypatch.setattr(lifts, "verify_lift", verify)


def _attempts(streams, kind):
    return [tokens[-1] for tokens in streams if tokens[0] == kind]


@pytest.mark.parametrize("kind", list(SEEDED))
def test_first_rejection_moves_to_attempt_1(kind, streams, monkeypatch):
    _reject_first(monkeypatch)
    assert SEEDED[kind]().valid
    assert _attempts(streams, kind) == ["0", "1"]


@pytest.mark.parametrize("kind", list(SEEDED))
def test_every_attempt_rejected_raises_the_lifts_own_error(kind, streams, monkeypatch):
    _reject_all(monkeypatch)
    cls, message = EXHAUSTED[kind]
    with pytest.raises(cls) as info:
        SEEDED[kind]()
    assert type(info.value) is cls and str(info.value) == message
    assert _attempts(streams, kind) == [str(k) for k in range(lifts.MAX_RETRIES)]


def test_boundary_tie_exhausts_with_the_closure_message(streams, monkeypatch):
    # fig3b's R+ tie strictly contains the qualifying edge; unpatched, it lifts
    _reject_all(monkeypatch)
    with pytest.raises(DegenerateGeneric) as info:
        lifts.lift_sym_corank1(fixture("fig3b"), "R+")
    assert str(info.value) == (
        "the tie strictly contains the qualifying edge; membership is a "
        "closure statement and an exact lift with these valuations may not exist"
    )
    assert _attempts(streams, "sym_corank1") == [str(k) for k in range(lifts.MAX_RETRIES)]


ONE_SHOT = [
    ("fig2a", "rank2", "R+"),  # factorization product
    ("fig2a", "sym_rank2", "R+"),  # mirror factor product
    ("fig4a", "sym_rank2", "R+"),  # spine recursion
]


@pytest.mark.parametrize("name,variety,mode", ONE_SHOT)
def test_one_shot_lift_returns_the_rejected_certificate(name, variety, mode, tmp_path, monkeypatch):
    _reject_all(monkeypatch)
    assert main(["fixtures", name, "--out", str(tmp_path)]) == 0
    out = tmp_path / "cert.json"
    argv = ["lift", "--in", str(tmp_path / f"{name}.json"), "--variety", variety, "--mode", mode]
    assert main(argv + ["--out", str(out)]) == 1
    assert json.loads(out.read_text())["transcript"] == [REJECTED]


def test_rank1_outer_square_returns_the_rejected_certificate(monkeypatch):
    _reject_all(monkeypatch)
    a = TropMatrix.make([[0, 1], [1, 2]], symmetric=True)
    cert = lifts.lift_sym_rank2_real(a)
    assert cert.method == "outer_square" and not cert.valid
