"""The seeded-attempt driver and the one issuing path, at their edges.

verify_lift is patched where lifts.py looks it up.  Rejecting the first
certificate makes each seeded lift return attempt 1's certificate;
rejecting every certificate makes it raise its own exhaustion error, and
makes a one-shot lift return an invalid certificate.  The singular
lifts clear the denominator of the solved entry instead of dividing by
it, so no series division runs, and a rejected root of the symmetric
solve leads to the next root or flip of the same draw, or to a later
attempt.
"""

import hashlib
import json
from pathlib import Path

import pytest

from troplift import jsonio, lifts, puiseux, rng
from troplift.cli import main
from troplift.errors import DegenerateGeneric, GenericRetryExhausted, NegativeResult
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


SYM_CORANK1 = [
    (name, mode) for name in ("ex52", "fig2a", "fig3b", "fig3c", "fig4a") for mode in ("R", "R+")
]


def _count(monkeypatch, name, *homes):
    """Calls of `name`, counted under each module that looks it up."""
    calls = []
    real = getattr(homes[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in homes:
        monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("name,mode", SYM_CORANK1)
def test_singular_lifts_divide_no_series(name, mode, monkeypatch):
    assert not hasattr(lifts, "ps_div")
    divisions = _count(monkeypatch, "ps_div", puiseux)
    issued = _count(monkeypatch, "_issue", lifts)
    for lift in (lifts.lift_corank1, lifts.lift_sym_corank1):
        try:
            assert lift(fixture(name), mode).valid
        except NegativeResult:
            pass  # SameSigns, or ex52's opposed deleted minors in R+
    assert issued and divisions == []


# sha256 of the certificate each lift returns when its first certificate is
# rejected; the lift finds it within attempt 0 (another root or flip of the
# same draw) or, in ATTEMPTS_AFTER_FIRST_REJECTION, in a later attempt
AFTER_FIRST_REJECTION = {
    ("ex52", "R"): "3d29ff6001bc31df9e4dd04ea52f2ec9ae40022ca20cdfb7f5c278e0ebce6b21",
    ("fig2a", "R"): "731ea3df811ef2f8222b265f733488a10ec11d670e8f6ed15e3c9261f1a172cd",
    ("fig2a", "R+"): "3f63f48079a09a50cb594b8b4424e3c717f34d8073f622a7f27cf7c2ffe420d8",
    ("fig3b", "R"): "55ab367043f92330993434d64f84a754dc2a3745f377367187a2515d0052341c",
    ("fig3b", "R+"): "123cdfa7a0ac14d308c3817e1653f39afab41ee1e3f56bc26ae5e5bffa2a2eec",
    ("fig3c", "R"): "0c06d9314fc55ad2308e6779cef026edc3d6016268f28b8701956a039e1dd577",
    ("fig3c", "R+"): "0457efc908f6ae92b2e0add43a3c888b6f39908ee33e35d0c853710d3fca13f7",
    ("fig4a", "R"): "c5cc7e31d3beffb2fe8d3426ae0157ca8d7aecd70ba3e44d9eea32830d2f73ec",
    ("fig4a", "R+"): "fb05157561d5ccd6b29d5f4ec180963ce16de58405463279bac7e7e36017be92",
}
ATTEMPTS_AFTER_FIRST_REJECTION = {
    ("fig2a", "R+"): ["0", "1"],
    ("fig3c", "R+"): ["0", "1"],
    ("fig4a", "R+"): ["0", "1", "2"],
}


@pytest.mark.parametrize("name,mode", list(AFTER_FIRST_REJECTION))
def test_rejected_root_leads_to_the_same_certificate(name, mode, streams, monkeypatch):
    _reject_first(monkeypatch)
    cert = lifts.lift_sym_corank1(fixture(name), mode)
    assert cert.valid
    text = jsonio.dumps(jsonio.encode_certificate(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == AFTER_FIRST_REJECTION[name, mode]
    want = ATTEMPTS_AFTER_FIRST_REJECTION.get((name, mode), ["0"])
    assert _attempts(streams, "sym_corank1") == want
