"""The verifier module: its guard by cost, realness, its trusted base, and
the term-wise comparison behind its symmetry check."""

import ast
import json
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from troplift import jsonio, lifts, verify
from troplift.cli import main
from troplift.errors import SizeLimit
from troplift.fixtures import fixture
from troplift.puiseux import PuiseuxSeries
from troplift.quadext import QuadExt
from troplift.tropmat import TropMatrix
from troplift.verify import CLAIMS, LiftCertificate, verify_lift

F = Fraction
GOLDEN = Path(__file__).parent / "golden"
PACKAGE = Path(verify.__file__).parent
TRUSTED = {"config", "errors", "puiseux", "quadext", "tropmat"}


def _golden(name):
    return jsonio.decode_certificate(json.loads((GOLDEN / f"{name}.json").read_text()))


def _failing(cert):
    return [step["check"] for step in cert.transcript if not step["ok"]]


class TestGuardByCost:
    """verify_lift refuses just before it would expand a minor with more
    rows than the bound: n x n for a singular claim, min(3, d, n) on a
    side for a rank claim."""

    @pytest.mark.parametrize("name", ["sample10-rank2-Rplus", "fig4a-rank2-R", "sample03-rank2-R"])
    def test_rank_claim_expands_3x3_minors(self, name):
        cert = _golden(name)  # 3x3, 4x4 and 4x5
        with pytest.raises(SizeLimit, match="expands 3x3 minors, above bound 2"):
            verify_lift(cert, 2)
        verify_lift(cert, 3)
        assert cert.valid

    def test_singular_claim_expands_the_determinant(self):
        cert = _golden("ex52-corank1-R")
        with pytest.raises(SizeLimit, match="expands the 4x4 determinant, above bound 3"):
            verify_lift(cert, 3)
        verify_lift(cert, 4)
        assert cert.valid

    def test_checks_that_expand_nothing_are_not_refused(self):
        # a 3x5 singular claim fails its square check before any minor
        cert = _golden("sample00-rank2-R")
        cert.claimed = "singular"
        verify_lift(cert, 1)
        assert _failing(cert) == ["square"]

    @pytest.mark.parametrize(
        "lift, a",
        [
            (lifts.lift_rank2_positive, fixture("fig4a")),
            (lifts.lift_rank2_real, fixture("fig4a")),  # caterpillar: the positive lift
            (lifts.lift_sym_caterpillar, fixture("fig2a")),
            (lifts.lift_sym_rank2_real, fixture("fig2a")),
            (lifts.lift_sym_rank2_real, TropMatrix.make([[0, 1, 2], [1, 2, 3], [2, 3, 4]])),
            (partial(lifts.lift_corank1, mode="R"), fixture("ex52")),
            (partial(lifts.lift_sym_corank1, mode="R"), fixture("ex52")),
        ],
        ids=[
            "rank2_positive", "rank2_real", "sym_caterpillar", "sym_rank2_real", "sym_rank1",
            "corank1", "sym_corank1",
        ],
    )
    def test_every_lift_passes_its_bound(self, lift, a, monkeypatch):
        seen = []

        def recording(cert, bound):
            seen.append(bound)
            return verify_lift(cert, bound)

        monkeypatch.setattr(lifts, "verify_lift", recording)
        assert lift(a, bound=7).valid
        assert seen and set(seen) == {7}


class TestRealCoefficients:
    """A coefficient over a radicand d <= 0 is no real number: it adds a
    failing real_coefficients step, and a nonreal lead is not positive."""

    def test_nonreal_rank1_lift_fails_every_claim(self):
        # x = 1 + sqrt(-1) t; [[1, x], [x, x^2]] has determinant exactly zero
        # and every leading coefficient 1
        one = PuiseuxSeries.constant(F(1))
        x = PuiseuxSeries.make([(F(0), F(1)), (F(1), QuadExt.make(0, 1, -1))])
        lift = ((one, x), (x, x * x))
        target = TropMatrix.make([[0, 0], [0, 0]], symmetric=True)
        for claimed in CLAIMS:
            cert = LiftCertificate(target, lift, claimed, "all-positive")
            verify_lift(cert)
            assert _failing(cert) == ["real_coefficients"], claimed
            (step,) = [s for s in cert.transcript if s["check"] == "real_coefficients"]
            assert step["detail"] == "radicand <= 0 at [(0, 1), (1, 0), (1, 1)]"

    def test_nonreal_lead_is_not_positive(self):
        lift = ((PuiseuxSeries.constant(QuadExt.make(1, 1, -1)),),)
        target = TropMatrix.make([[0]])
        for claimed in ("rank<=2", "singular"):
            cert = LiftCertificate(target, lift, claimed, "all-positive")
            verify_lift(cert)
            assert "real_coefficients" in _failing(cert)
            assert "positive_leading_terms" in _failing(cert)

    def test_real_lifts_carry_no_realness_step(self):
        cert = _golden("fig2a-sym_corank1-Rplus")  # coefficients over sqrt(d), d > 0
        assert any(isinstance(c, QuadExt) for row in cert.lift for e in row for _, c in e.terms)
        verify_lift(cert)
        assert cert.valid
        assert "real_coefficients" not in [s["check"] for s in cert.transcript]


def _package_imports(path: Path) -> set:
    """The troplift modules a source file imports, by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                names = [node.module] if node.module else [a.name for a in node.names]
            elif node.module.split(".")[0] == "troplift":
                names = node.module.split(".")[1:2] or [a.name for a in node.names]
            else:
                continue
        elif isinstance(node, ast.Import):
            names = [a.name.split(".")[1] for a in node.names if a.name.startswith("troplift.")]
        else:
            continue
        found.update(name.split(".")[0] for name in names)
    return found


def _series_builders(source: str) -> set:
    """The top-level definitions of a source that call PuiseuxSeries or one
    of its constructors (PuiseuxSeries.make, .zero, ...), by name;
    "<module>" for a call outside any definition."""
    found = set()
    for stmt in ast.parse(source).body:
        name = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    func = func.value
                if isinstance(func, ast.Name) and func.id == "PuiseuxSeries":
                    found.add(name)
    return found


class TestTrustedBase:
    """verify.py and what it imports stay apart from the constructions.
    The package __init__ imports every module, so sys.modules cannot tell;
    the sources are parsed instead."""

    def test_verifier_imports_only_the_trusted_base(self):
        assert _package_imports(PACKAGE / "verify.py") <= TRUSTED

    def test_trusted_base_is_closed(self):
        for name in TRUSTED:
            assert _package_imports(PACKAGE / f"{name}.py") <= TRUSTED, name

    def test_certificates_decode_without_the_constructions(self):
        assert "lifts" not in _package_imports(PACKAGE / "jsonio.py")

    def test_only_series_det_builds_a_series(self):
        """The verifier decides every minor on the grid's ints; only
        series_det, the determinant the constructions share, turns them
        back into a series."""
        assert _series_builders((PACKAGE / "verify.py").read_text()) == {"series_det"}

    def test_series_builder_scan_sees_each_constructor(self):
        source = (
            "def a(): return PuiseuxSeries((), 1)\n"
            "def b(): return [PuiseuxSeries.make(p) for p in q]\n"
            "class C:\n    def m(self): return PuiseuxSeries.zero()\n"
            "X = PuiseuxSeries.constant(1)\n"
            "def d(x: PuiseuxSeries) -> PuiseuxSeries: return x.terms\n"
        )
        assert _series_builders(source) == {"a", "b", "C", "<module>"}

    def test_lifts_reuse_the_verifier(self):
        assert lifts.verify_lift is verify.verify_lift
        assert lifts.series_det is verify.series_det
        assert lifts.LiftCertificate is verify.LiftCertificate


class TestOneRadicand:
    """Coefficients over two radicands fail a named step before any series
    arithmetic could mix them; a certificate over one radicand has no
    such step."""

    def _two_radicands(self, tmp_path):
        obj = json.loads((GOLDEN / "fig2a-sym_corank1-R.json").read_text())
        for term in obj["lift"][1][2]["terms"]:
            if isinstance(term["coef"], dict):
                assert term["coef"]["d"] == "75069342/5"
                term["coef"]["d"] = "2"
        path = tmp_path / "two-radicands.json"
        path.write_text(json.dumps(obj))
        return path

    def test_two_radicands_fail_one_radicand(self, tmp_path):
        cert = jsonio.decode_certificate(json.loads(self._two_radicands(tmp_path).read_text()))
        verify_lift(cert)
        assert _failing(cert) == ["one_radicand"]
        assert cert.transcript[-1]["detail"] == (
            "radicands sqrt(2) at (1, 2), sqrt(75069342/5) at (2, 1)"
        )

    def test_cli_verify_exits_1(self, tmp_path, capsys):
        assert main(["verify", "--in", str(self._two_radicands(tmp_path))]) == 1
        assert capsys.readouterr().err == ""

    def test_one_radicand_carries_no_step(self):
        for name in ("fig2a-sym_corank1-R", "fig2a-sym_corank1-Rplus"):
            cert = _golden(name)
            verify_lift(cert)
            assert cert.valid
            assert "one_radicand" not in [s["check"] for s in cert.transcript]


EXPONENTS = st.fractions(min_value=-2, max_value=4, max_denominator=3)
RATIONAL = st.fractions(min_value=-5, max_value=5, max_denominator=4)
COEFFS = RATIONAL | st.builds(lambda a, b: QuadExt.make(a, b, F(3)), RATIONAL, RATIONAL)
TERMS = st.lists(st.tuples(EXPONENTS, COEFFS), max_size=5)
ORDERS = st.none() | EXPONENTS


@st.composite
def _series_pairs(draw):
    """Two series over one radicand: the same terms, retruncated, with
    extra terms, with one term changed, or drawn independently."""
    pairs = draw(TERMS)
    x = PuiseuxSeries.make(pairs, draw(ORDERS))
    kind = draw(st.sampled_from(["same", "retruncated", "extra", "changed", "independent"]))
    if kind == "same":
        y = PuiseuxSeries.make(list(reversed(pairs)), x.trunc)
    elif kind == "retruncated":
        y = PuiseuxSeries.make(pairs, draw(ORDERS))
    elif kind == "extra":
        y = PuiseuxSeries.make(pairs + draw(TERMS), draw(ORDERS))
    elif kind == "changed":
        y = PuiseuxSeries.make(pairs + [(draw(EXPONENTS), draw(COEFFS))], x.trunc)
    else:
        y = PuiseuxSeries.make(draw(TERMS), draw(ORDERS))
    return x, y


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_series_pairs())
def test_termwise_agreement_is_a_known_zero_difference(pair):
    x, y = pair
    want = (x - y).is_known_zero()
    assert verify._agree(x, y) == want
    assert verify._agree(y, x) == want
