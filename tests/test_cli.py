"""Command-line interface: exit codes, wire formats, fixtures."""

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import SYM7_A, SYM7_B
from troplift import cli, errors, jsonio
from troplift.cli import dispatch, main
from troplift.fixtures import FIXTURE_NAMES, fixture

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def fixture_dir(tmp_path):
    for name in FIXTURE_NAMES:
        assert main(["fixtures", name, "--out", str(tmp_path)]) == 0
    return tmp_path


class TestFixtures:
    def test_all_names_written(self, fixture_dir):
        for name in FIXTURE_NAMES:
            assert (fixture_dir / f"{name}.json").exists()

    def test_unknown_fixture_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            dispatch(["fixtures", "nope", "--out", str(tmp_path)])

    def test_matrix_fixtures_reparse(self, fixture_dir):
        for name in ("eq1", "fig2a", "fig3b", "fig3c", "fig4a", "ex52", "cocircuit-ag23"):
            obj = json.loads((fixture_dir / f"{name}.json").read_text())
            assert jsonio.decode_matrix(obj).entries == fixture(name).entries


def _golden_cert(edit):
    """A maker of a golden certificate changed by edit."""

    def make():
        cert = json.loads((GOLDEN / "ex52-corank1-R.json").read_text())
        edit(cert)
        return cert

    return make


def _first_term(cert):
    return cert["lift"][0][0]["terms"][0]


# a value of a wrong JSON type, or a zero denominator: (command, file content or its maker)
MALFORMED = {
    "entries_not_an_array": ("rank", {"symmetric": False, "entries": 5}),
    "null_entry": ("rank", {"symmetric": False, "entries": [["0", None], ["1", "2"]]}),
    "zero_denominator": ("rank", {"symmetric": False, "entries": [["1/0", "1"], ["1", "2"]]}),
    "matrix_not_an_object": ("rank", [["0", "1"], ["1", "0"]]),
    "null_trunc": ("verify", _golden_cert(lambda c: c["lift"][0][0].update(trunc=None))),
    "null_exp": ("verify", _golden_cert(lambda c: _first_term(c).update(exp=None))),
    "terms_not_an_array": ("verify", _golden_cert(lambda c: c["lift"][0][0].update(terms="xx"))),
    "lift_not_an_array": ("verify", _golden_cert(lambda c: c.update(lift=3))),
    "coef_not_a_rational": ("verify", _golden_cert(lambda c: _first_term(c).update(coef=[1]))),
    "seed_a_float": ("verify", _golden_cert(lambda c: c.update(seed=1.5))),
    "seed_a_boolean": ("verify", _golden_cert(lambda c: c.update(seed=True))),
    "seed_a_string": ("verify", _golden_cert(lambda c: c.update(seed="x"))),
    "method_a_float": ("verify", _golden_cert(lambda c: c.update(method=2.5))),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_file_is_an_input_error(self, tmp_path, capsys, case):
        cmd, content = MALFORMED[case]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content() if callable(content) else content))
        assert main([cmd, "--in", str(bad)]) == 2
        assert "input error: ValueError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,code",
        [
            ("NotBarvinok2", 1),
            ("NotCaterpillar", 1),
            ("NotRank2", 1),
            ("NotSingular", 1),
            ("SameSigns", 1),
            ("MinorSignsOpposed", 1),
            ("RankTooHigh", 2),
            ("DegenerateGeneric", 2),
            ("GenericRetryExhausted", 2),
            ("SizeLimit", 3),
        ],
    )
    def test_error_class_decides_the_exit_code(self, name, code, monkeypatch, capsys):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.NegativeResult) == (code == 1)

        def raising(argv=None):
            raise cls("raised")

        monkeypatch.setattr(cli, "dispatch", raising)
        assert main([]) == code
        err = capsys.readouterr().err
        if code == 1:
            assert err == f"negative result: {name}: raised\n"
        if issubclass(cls, errors.ConstructionExhausted):
            assert err == f"construction exhausted: {name}: raised\n"

    def test_exhausted_construction_is_not_an_input_error(self, tmp_path, capsys):
        # a boundary tie: member says R+ (a closure statement), but no seeded
        # quadratic solve finds an exact lift with these valuations
        path = tmp_path / "tie.json"
        rows = [[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]]
        path.write_text(json.dumps({"symmetric": True, "entries": rows}))
        member = ["member", "--variety", "sym_corank1", "--mode", "R+", "--in", str(path)]
        assert main(member) == 0
        capsys.readouterr()
        lift = ["lift", "--variety", "sym_corank1", "--mode", "R+", "--in", str(path)]
        assert main(lift) == 2
        err = capsys.readouterr().err
        assert err.startswith("construction exhausted: DegenerateGeneric: the tie strictly contains")
        assert "input error" not in err

    def test_symmetric_7x7_ties_on_the_even_cycle(self, tmp_path, capsys):
        a, b, cert = tmp_path / "a.json", tmp_path / "b.json", str(tmp_path / "cert.json")
        a.write_text(json.dumps({"symmetric": True, "entries": SYM7_A}))
        b.write_text(json.dumps({"symmetric": True, "entries": SYM7_B}))
        lift = ["lift", "--variety", "sym_corank1", "--out", cert, "--mode"]
        for path, mode in ((a, "R+"), (a, "R"), (b, "R")):
            assert main(lift + [mode, "--in", str(path)]) == 0
            assert main(["verify", "--in", cert]) == 0
        capsys.readouterr()
        assert main(["member", "--variety", "sym_corank1", "--mode", "R+", "--in", str(b)]) == 1
        assert json.loads(capsys.readouterr().out)["reason"]["failure"] == "minor_signs"
        assert main(lift + ["R+", "--in", str(b)]) == 1
        assert "MinorSignsOpposed" in capsys.readouterr().err

    def test_member_positive_and_negative(self, fixture_dir):
        ex52 = str(fixture_dir / "ex52.json")
        assert main(["member", "--variety", "sym_corank1", "--mode", "C+", "--in", ex52]) == 0
        assert main(["member", "--variety", "sym_corank1", "--mode", "R+", "--in", ex52]) == 1

    def test_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["rank", "--in", str(bad)]) == 2
        assert main(["rank", "--in", str(tmp_path / "missing.json")]) == 2

    def test_infinite_entries_rejected_at_parse_time(self, tmp_path):
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps({"symmetric": False, "entries": [["0", "inf"], ["1", "2"]]}))
        assert main(["rank", "--in", str(bad)]) == 2

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_symmetric_flag_must_be_a_json_boolean(self, tmp_path, flag):
        bad = tmp_path / "flag.json"
        bad.write_text(json.dumps({"symmetric": flag, "entries": [["0", "1"], ["1", "0"]]}))
        assert main(["trop-det", "--in", str(bad)]) == 2
        cert = json.loads((GOLDEN / "fig2a-sym_rank2-Rplus.json").read_text())
        cert["target"]["symmetric"] = flag
        bad.write_text(json.dumps(cert))
        assert main(["verify", "--in", str(bad)]) == 2

    def test_missing_symmetric_flag_means_plain(self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"entries": [["0", "1"], ["1", "0"]]}))
        assert main(["trop-det", "--in", str(plain)]) == 0
        assert json.loads(capsys.readouterr().out)["symmetric"] is None

    @pytest.mark.parametrize("argv", [["verify-suite"], ["polytope", "--table2"]])
    def test_retired_command_and_flag_are_usage_errors(self, argv, capsys):
        """verify-suite's cross-checks run in tests/test_oracle.py, and
        `fixtures table2` writes the Table 2 rows."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: troplift")

    def test_negative_polytope_size_is_an_input_error(self, capsys):
        assert main(["polytope", "--n", "-1"]) == 2
        assert "--n must not be negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("what", ["monomials", "vertices", "edges"])
    def test_polytope_above_max_n_is_a_size_limit(self, what, capsys):
        assert main(["polytope", "--n", "4", "--max-n", "3", "--what", what]) == 3
        assert "size limit: enumeration bound 3 exceeded (n = 4)" in capsys.readouterr().err
        assert main(["polytope", "--n", "3", "--max-n", "3", "--what", what]) == 0

    def test_size_limit(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(
            json.dumps({"symmetric": False, "entries": [["0"] * 9 for _ in range(9)]})
        )
        assert main(["trop-det", "--in", str(big)]) == 3

    def test_determinant_of_a_non_square_matrix_is_an_input_error(self, tmp_path, capsys):
        wide = tmp_path / "wide.json"
        wide.write_text(
            json.dumps({"symmetric": False, "entries": [[str(i * j) for j in range(5)] for i in range(4)]})
        )
        member = ["member", "--in", str(wide), "--mode", "C", "--variety"]
        assert main(member + ["corank1"]) == 2
        assert main(member + ["sym_corank1"]) == 2
        assert main(["trop-det", "--in", str(wide)]) == 2
        assert main(["lift", "--in", str(wide), "--mode", "R", "--variety", "corank1"]) == 2
        assert "DimensionMismatch: determinant needs a square matrix, got 4x5" in capsys.readouterr().err

    def test_determinant_above_the_bound_is_a_size_limit(self, fixture_dir, capsys):
        ex52 = str(fixture_dir / "ex52.json")
        for variety in ("corank1", "sym_corank1"):
            argv = ["member", "--in", ex52, "--mode", "C", "--variety", variety, "--max-n", "3"]
            assert main(argv) == 3
        assert main(["trop-det", "--in", ex52, "--max-n", "3"]) == 3
        assert "size limit: enumeration bound 3 exceeded (n = 4)" in capsys.readouterr().err

    def test_lift_and_verify_honour_max_n(self, fixture_dir, tmp_path, monkeypatch):
        ex52 = str(fixture_dir / "ex52.json")
        cert = str(tmp_path / "cert.json")
        lift = ["lift", "--variety", "sym_corank1", "--mode", "R", "--in", ex52]
        assert main(lift + ["--max-n", "2"]) == 3
        assert main(lift + ["--out", cert]) == 0
        assert main(["verify", "--in", cert, "--max-n", "3"]) == 3
        monkeypatch.setenv("TROPLIFT_MAX_N", "3")
        assert main(["verify", "--in", cert]) == 3
        assert main(["verify", "--in", cert, "--max-n", "4"]) == 0
        # a rank <= 2 certificate expands 3x3 minors only, so the 4x4
        # fig4a certificate verifies at a bound of 3
        fig4a = str(fixture_dir / "fig4a.json")
        assert main(["lift", "--variety", "rank2", "--mode", "R", "--in", fig4a, "--out", cert]) == 0
        assert main(["verify", "--in", cert]) == 0

    @pytest.mark.parametrize("variety", ["rank2", "sym_rank2"])
    @pytest.mark.parametrize("mode", ["R", "R+"])
    def test_rank_certificate_verifies_at_the_bound_it_was_lifted_at(
        self, fixture_dir, tmp_path, variety, mode
    ):
        # a rank claim expands 3x3 minors only, in lift and verify alike
        fig4a, cert = str(fixture_dir / "fig4a.json"), str(tmp_path / "cert.json")
        lift = ["lift", "--variety", variety, "--mode", mode, "--in", fig4a, "--out", cert]
        assert main(lift + ["--max-n", "3"]) == 0
        assert main(["verify", "--in", cert, "--max-n", "3"]) == 0
        assert main(["verify", "--in", cert, "--max-n", "2"]) == 3

    @pytest.mark.parametrize(
        "mode, reason",
        [
            ("C", "NotRank2: tropical rank above 2"),
            ("R", "NotRank2: tropical rank above 2"),
            ("C+", "NotBarvinok2: no two-term factorization: rank_too_high"),
            ("R+", "NotBarvinok2: no two-term factorization: rank_too_high"),
        ],
    )
    def test_rank2_lift_of_a_wide_rank3_matrix_is_negative(self, fixture_dir, capsys, mode, reason):
        # 9x12, but the rank scan stops at 4x4 minors, within the bound
        cocircuit = str(fixture_dir / "cocircuit-ag23.json")
        capsys.readouterr()
        assert main(["lift", "--variety", "rank2", "--mode", mode, "--in", cocircuit]) == 1
        assert reason in capsys.readouterr().err

    def test_acknowledged_bound_above_8_reaches_the_lift(self, tmp_path):
        rng = random.Random(5)  # a 9x9 whose determinant has 4 minimizers
        entries = [[str(rng.randint(0, 3)) for _ in range(9)] for _ in range(9)]
        src, cert = tmp_path / "nine.json", str(tmp_path / "cert.json")
        src.write_text(json.dumps({"symmetric": False, "entries": entries}))
        large = ["--max-n", "9", "--acknowledge-large"]
        lift = ["lift", "--variety", "corank1", "--mode", "R", "--in", str(src), "--out", cert]
        assert main(lift + large) == 0
        assert main(["verify", "--in", cert, "--out", cert] + large) == 0
        assert main(["verify", "--in", cert]) == 3

    def test_verify_rejects_unknown_claim_and_positivity(self, fixture_dir, tmp_path):
        cert_file = tmp_path / "cert.json"
        fig2a = str(fixture_dir / "fig2a.json")
        lift = ["lift", "--variety", "sym_rank2", "--mode", "R+", "--in", fig2a]
        assert main(lift + ["--out", str(cert_file)]) == 0
        good = json.loads(cert_file.read_text())
        for key, value in (
            ("claimed", "bogus"),
            ("claimed", "rank<=1"),
            ("claimed", "nonsingular"),
            ("positivity", "mostly"),
        ):
            cert_file.write_text(json.dumps(dict(good, **{key: value})))
            assert main(["verify", "--in", str(cert_file)]) == 2

    def test_verify_rejects_vacuous_truncated_determinant(self, tmp_path):
        # the solved entry becomes O(t^0), no known term at its target
        # valuation: the determinant is then "zero" only up to its tropical
        # value, which proves nothing
        cert = json.loads((GOLDEN / "ex52-corank1-Rplus.json").read_text())
        cert["lift"][1][0] = {"terms": [], "trunc": "0"}
        src, out = tmp_path / "cert.json", tmp_path / "out.json"
        src.write_text(json.dumps(cert))
        assert main(["verify", "--in", str(src), "--out", str(out)]) == 1
        steps = {s["check"]: s for s in json.loads(out.read_text())["transcript"]}
        step = steps["determinant_vanishes"]
        assert not step["ok"]
        assert step["detail"] == "known only to order 0, not above its tropical value 0"

    def test_verify_rejects_non_square_singular_and_symmetric_claims(self, tmp_path, capsys):
        def const(c):
            return {"terms": [{"exp": "0", "coef": str(c)}], "trunc": "inf"}

        cases = (
            # the first two columns alone would make a vanishing 2x2 determinant
            ("singular", [[1, 1, 5], [1, 1, 7]]),
            ("singular", [[1, 1], [1, 1], [1, 2]]),
            ("symmetric singular", [[1, 1, 1], [1, 1, 1]]),
            ("symmetric rank<=2", [[1, 1], [1, 1], [1, 1]]),
        )
        src, out = tmp_path / "cert.json", tmp_path / "out.json"
        for claimed, rows in cases:
            d, n = len(rows), len(rows[0])
            cert = {
                "target": {"symmetric": False, "entries": [["0"] * n for _ in range(d)]},
                "lift": [[const(c) for c in row] for row in rows],
                "claimed": claimed,
                "positivity": "none",
            }
            src.write_text(json.dumps(cert))
            assert main(["verify", "--in", str(src), "--out", str(out)]) == 1
            back = jsonio.decode_certificate(json.loads(out.read_text()))
            assert not back.valid
            assert back.transcript[-1] == {
                "check": "square",
                "ok": False,
                "detail": f"{claimed} needs a square matrix, got {d}x{n}",
            }
            assert capsys.readouterr().err == ""

    def test_decoded_radicands_are_normalised(self, tmp_path):
        four = {"terms": [{"exp": "1", "coef": {"a": "1", "b": "1", "d": "4"}}], "trunc": "inf"}
        (coef,) = [c for _, c in jsonio.decode_series(four).terms]
        assert coef == 3 and type(coef) is Fraction
        cert = json.loads((GOLDEN / "fig2a-sym_corank1-R.json").read_text())
        term = next(
            t for row in cert["lift"] for e in row for t in e["terms"] if isinstance(t["coef"], dict)
        )
        src = tmp_path / "cert.json"
        for d in ("-2", "0"):
            term["coef"]["d"] = d
            src.write_text(json.dumps(cert))
            assert main(["verify", "--in", str(src)]) == 2

    def test_impossible_lift_is_negative(self, fixture_dir):
        eq1 = str(fixture_dir / "eq1.json")
        assert main(["lift", "--variety", "rank2", "--mode", "R+", "--in", eq1]) == 1
        ex52 = str(fixture_dir / "ex52.json")
        assert main(["lift", "--variety", "sym_corank1", "--mode", "R+", "--in", ex52]) == 1

    @pytest.mark.parametrize("mode", ["C+", "R+"])
    def test_positive_symmetric_rank2_lift_above_rank_2_is_negative(
        self, fixture_dir, capsys, mode
    ):
        ex52 = str(fixture_dir / "ex52.json")  # tropical rank 3
        capsys.readouterr()
        assert main(["lift", "--variety", "sym_rank2", "--mode", mode, "--in", ex52]) == 1
        assert "NotRank2" in capsys.readouterr().err


class TestCommands:
    def test_trop_det_output(self, fixture_dir, capsys):
        assert main(["trop-det", "--in", str(fixture_dir / "eq1.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plain"]["tie"] is True
        assert payload["plain"]["min_value"] == "0"
        assert payload["symmetric"]["tie"] is False

    def test_rank_output(self, fixture_dir, capsys):
        assert main(["rank", "--in", str(fixture_dir / "eq1.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"tropical_rank": 2, "symmetric_tropical_rank": 3}

    def test_text_format(self, fixture_dir, capsys):
        eq1, ex52 = str(fixture_dir / "eq1.json"), str(fixture_dir / "ex52.json")
        assert main(["rank", "--in", eq1, "--format", "text"]) == 0
        assert capsys.readouterr().out == "tropical rank 2, symmetric tropical rank 3\n"
        member = ["member", "--in", ex52, "--variety", "sym_corank1", "--format", "text"]
        assert main(member + ["--mode", "C+"]) == 0
        assert main(member + ["--mode", "R+"]) == 1
        out = capsys.readouterr().out
        assert out == "sym_corank1 over C+: member\nsym_corank1 over R+: not a member\n"

    def test_cocircuit_rank(self, fixture_dir, capsys):
        assert main(["rank", "--in", str(fixture_dir / "cocircuit-ag23.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tropical_rank"] == 3

    def test_tree_dot(self, fixture_dir, capsys):
        assert main(["tree", "--in", str(fixture_dir / "eq1.json"), "--format", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("graph") and "leaf_red_3" in out

    def test_tree_json_reparses(self, fixture_dir, capsys):
        assert main(["tree", "--in", str(fixture_dir / "fig2a.json")]) == 0
        obj = json.loads(capsys.readouterr().out)
        tree = jsonio.decode_tree(obj)
        assert tree.red_count == tree.blue_count == 3

    def test_lift_verify_roundtrip(self, fixture_dir, tmp_path, capsys):
        cert_file = tmp_path / "cert.json"
        code = main(
            [
                "lift", "--variety", "sym_rank2", "--mode", "C+",
                "--in", str(fixture_dir / "fig2a.json"), "--out", str(cert_file),
            ]
        )
        assert code == 0
        assert main(["verify", "--in", str(cert_file)]) == 0
        # tamper with one exponent and re-verify
        obj = json.loads(cert_file.read_text())
        obj["lift"][0][1]["terms"][0]["exp"] = "13"
        cert_file.write_text(json.dumps(obj))
        assert main(["verify", "--in", str(cert_file)]) == 1

    def test_polytope_table2(self, tmp_path):
        assert main(["fixtures", "table2", "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "table2.json").read_text())
        assert len(rows) == 5
        assert rows[0]["monomial"] == "2*x12*x13*x23*x44"

    def test_payload_of_an_unknown_type_is_a_program_fault(self):
        with pytest.raises(TypeError, match="no JSON encoding for set"):
            jsonio.dumps({"signs": {1, -1}})
        with pytest.raises(TypeError, match="no JSON encoding for object"):
            jsonio.dumps([(1, "a", [object()])])

    def test_polytope_counts(self, capsys):
        assert main(["polytope", "--n", "4", "--what", "vertices"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 14

    def test_seed_env_override(self, fixture_dir, tmp_path, capsys, monkeypatch):
        ex52 = str(fixture_dir / "ex52.json")
        monkeypatch.setenv("TROPLIFT_SEED", "7")
        assert main(["lift", "--variety", "sym_corank1", "--mode", "R", "--in", ex52]) == 0
        via_env = json.loads(capsys.readouterr().out)
        assert via_env["seed"] == 7
        monkeypatch.delenv("TROPLIFT_SEED")
        assert main(["lift", "--variety", "sym_corank1", "--mode", "R", "--in", ex52, "--seed", "7"]) == 0
        via_flag = json.loads(capsys.readouterr().out)
        assert via_flag == via_env

    def test_format_env_must_name_a_format(self, fixture_dir, capsys, monkeypatch):
        """An unknown TROPLIFT_FORMAT is an input error, as the same value
        given to --format is a usage error; a flag still takes precedence."""
        rank = ["rank", "--in", str(fixture_dir / "ex52.json")]
        monkeypatch.setenv("TROPLIFT_FORMAT", "xml")
        assert main(rank) == 2
        out, err = capsys.readouterr()
        assert out == "" and "input error: ValueError: output format 'xml' is not one of" in err
        assert main(rank + ["--format", "text"]) == 0
        assert capsys.readouterr().out.startswith("tropical rank")


class TestSharedParser:
    """main builds the parser once per process and shares it between calls."""

    LIFT = ["lift", "--variety", "sym_corank1", "--mode", "R"]

    def test_no_state_leaks_between_calls(self, fixture_dir, capsys):
        args = self.LIFT + ["--in", str(fixture_dir / "fig2a.json")]
        flags = ["--seed", "5", "--max-n", "3", "--format", "text"]
        assert main(args + flags) == 0
        flagged = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["lift", "--variety", "rank9"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(args) == 0
        again = capsys.readouterr().out
        env = {k: v for k, v in os.environ.items() if not k.startswith("TROPLIFT_")}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        fresh = subprocess.run(
            [sys.executable, "-m", "troplift.cli"] + args,
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert again == fresh
        assert flagged != fresh and json.loads(flagged)["seed"] == 5

    def test_trunc_is_a_usage_error(self, fixture_dir, capsys):
        """No option sets a series truncation: corank-one lifts are exact,
        and the symmetric square root's order is derived from the input."""
        args = self.LIFT + ["--in", str(fixture_dir / "fig2a.json"), "--trunc", "7"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --trunc 7" in err

    def test_parser_is_built_once(self, monkeypatch, tmp_path, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        cli.build_parser.__wrapped__()
        one_build = len(built)
        assert one_build > 1
        built.clear()
        cli.build_parser.cache_clear()
        out = str(tmp_path / "monomials.json")
        for _ in range(20):
            assert main(["polytope", "--n", "3", "--out", out]) == 0
        assert len(built) == one_build

    @pytest.mark.parametrize("command", [[], ["lift"], ["verify"]])
    @pytest.mark.parametrize("columns", ["40", "80", "132"])
    def test_help_matches_a_fresh_parser(self, command, columns, fixture_dir, monkeypatch, capsys):
        assert main(["rank", "--in", str(fixture_dir / "eq1.json"), "--format", "text"]) == 0
        capsys.readouterr()
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(command + ["--help"])
        assert exc.value.code == 0
        shared = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser.__wrapped__().parse_args(command + ["--help"])
        fresh = capsys.readouterr().out
        assert shared == fresh
        assert shared.startswith("usage: " + " ".join(["troplift"] + command))
