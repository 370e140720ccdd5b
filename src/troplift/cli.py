"""Command-line front end.

Exit codes: 0 success (and positive verdicts), 1 negative verdict,
failed certificate or impossible lift (errors.NegativeResult), 2 input or
usage error, or a seeded construction that spent its retries
(errors.ConstructionExhausted, under its own label), 3 enumeration size
limit.
Configuration precedence is flags, then TROPLIFT_* environment variables,
then defaults.  No option sets a series truncation: corank-one lifts are
exact, and the symmetric solve's square root runs to an order derived
from its input (config.default_truncation).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import jsonio, lifts, membership, newton, trees, verify
from .config import DEFAULT_SEED, MAX_ENUMERATION_BOUND, OUTPUT_FORMATS, Config
from .errors import ConstructionExhausted, NegativeResult, SizeLimit, TropliftError
from .fixtures import FIXTURE_NAMES, fixture_json
from .monomials import sym_det_monomials
from .tropical import (
    sym_trop_det,
    sym_trop_rank,
    trop_det,
    trop_rank,
)


def _env(name, cast, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    return cast(raw)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built on the first call.

    The parser is built once per process and shared by every later
    dispatch, so no code path may call set_defaults on it or change its
    actions after the build: such a change would leak into every later
    call of main.  Help text is formatted when it is printed, so the
    terminal width (COLUMNS) is read at each --help, not at the build.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master seed for randomized constructions")
    common.add_argument(
        "--max-n",
        type=int,
        default=None,
        help=f"enumeration bound (max {MAX_ENUMERATION_BOUND})",
    )
    common.add_argument(
        "--acknowledge-large",
        action="store_true",
        help=f"accept an enumeration bound above {MAX_ENUMERATION_BOUND} "
        "(uniqueness verdicts get slow)",
    )
    common.add_argument("--format", choices=OUTPUT_FORMATS, default=None)
    p = argparse.ArgumentParser(
        prog="troplift",
        description="Tropical rank tests, membership oracles, and certified Puiseux lifts",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_cmd(name, help_text, with_in=True):
        sp = sub.add_parser(name, help=help_text, parents=[common])
        if with_in:
            sp.add_argument("--in", dest="infile", required=True, help="input JSON file")
        sp.add_argument("--out", dest="outfile", default=None, help="output file (default stdout)")
        return sp

    add_cmd("trop-det", "tropical determinant with argmin and tie data")
    add_cmd("rank", "tropical rank (and symmetric tropical rank)")
    add_cmd("tree", "bicolored tree of a rank <= 2 matrix")
    for name in ("member", "lift"):
        sp = add_cmd(name, f"{name} for a matrix set and field mode")
        sp.add_argument(
            "--variety", required=True, choices=("rank2", "sym_rank2", "corank1", "sym_corank1")
        )
        sp.add_argument("--mode", required=True, choices=("C", "R", "C+", "R+"))
    add_cmd("verify", "re-verify a certificate file")
    sp = add_cmd("polytope", "monomial classes, vertices, and edges", with_in=False)
    sp.add_argument("--n", type=int, default=4)
    sp.add_argument("--what", choices=("monomials", "vertices", "edges"), default="monomials")
    sp = sub.add_parser("fixtures", help="write a bundled example input as JSON", parents=[common])
    sp.add_argument("name", choices=FIXTURE_NAMES)
    sp.add_argument("--out", dest="outdir", default=".")
    return p


def _config(args) -> Config:
    seed = args.seed if args.seed is not None else _env("TROPLIFT_SEED", int, DEFAULT_SEED)
    bound = (
        args.max_n if args.max_n is not None else _env("TROPLIFT_MAX_N", int, MAX_ENUMERATION_BOUND)
    )
    fmt = args.format if args.format is not None else _env("TROPLIFT_FORMAT", str, "json")
    return Config(
        enumeration_bound=bound,
        seed=seed,
        output_format=fmt,
        acknowledge_large=getattr(args, "acknowledge_large", False),
    )


def _read_matrix(path):
    with open(path) as fh:
        return jsonio.decode_matrix(json.load(fh))


def _emit(text: str, outfile):
    if outfile:
        Path(outfile).write_text(text + "\n")
    else:
        print(text)


def _check_enumeration(n: int, bound: int):
    """Refuse an n x n polytope enumeration above the bound."""
    if n > bound:
        raise SizeLimit(f"enumeration bound {bound} exceeded (n = {n})")


def _det_payload(res):
    return {
        "min_value": res.min_value,
        "tie": res.tie,
        "argmin": [
            {
                "monomial": cls.monomial_str(),
                "representative": list(cls.representative),
                "sign": cls.sign,
                "coefficient": cls.coefficient,
            }
            for cls in res.argmin
        ],
    }


def dispatch(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config(args)
    cmd = args.command

    if cmd == "trop-det":
        a = _read_matrix(args.infile)
        payload = {"plain": _det_payload(trop_det(a, cfg.enumeration_bound))}
        payload["symmetric"] = (
            _det_payload(sym_trop_det(a, cfg.enumeration_bound)) if a.symmetric else None
        )
        _emit(jsonio.dumps(payload), args.outfile)
        return 0

    if cmd == "rank":
        a = _read_matrix(args.infile)
        payload = {"tropical_rank": trop_rank(a, cfg.enumeration_bound)}
        payload["symmetric_tropical_rank"] = (
            sym_trop_rank(a, cfg.enumeration_bound) if a.symmetric else None
        )
        if cfg.output_format == "text":
            bits = [f"tropical rank {payload['tropical_rank']}"]
            if payload["symmetric_tropical_rank"] is not None:
                bits.append(f"symmetric tropical rank {payload['symmetric_tropical_rank']}")
            _emit(", ".join(bits), args.outfile)
        else:
            _emit(jsonio.dumps(payload), args.outfile)
        return 0

    if cmd == "tree":
        a = _read_matrix(args.infile)
        tree = trees.tree_from_rank2(a, cfg.enumeration_bound)
        if cfg.output_format == "dot":
            _emit(trees.tree_to_dot(tree), args.outfile)
        else:
            _emit(jsonio.dumps(jsonio.encode_tree(tree)), args.outfile)
        return 0

    if cmd == "member":
        a = _read_matrix(args.infile)
        fn = {
            "rank2": membership.member_rank2,
            "sym_rank2": membership.member_sym_rank2,
            "corank1": membership.member_corank1,
            "sym_corank1": membership.member_sym_corank1,
        }[args.variety]
        verdict = fn(a, args.mode, cfg.enumeration_bound)
        if cfg.output_format == "text":
            word = "member" if verdict.verdict else "not a member"
            _emit(f"{verdict.variety} over {verdict.mode}: {word}", args.outfile)
        else:
            _emit(
                jsonio.dumps(
                    {
                        "variety": verdict.variety,
                        "mode": verdict.mode,
                        "verdict": verdict.verdict,
                        "reason": verdict.reason,
                    }
                ),
                args.outfile,
            )
        return 0 if verdict.verdict else 1

    if cmd == "lift":
        a = _read_matrix(args.infile)
        cert = _run_lift(a, args.variety, args.mode, cfg)
        _emit(jsonio.dumps(jsonio.encode_certificate(cert)), args.outfile)
        return 0 if cert.valid else 1

    if cmd == "verify":
        with open(args.infile) as fh:
            cert = jsonio.decode_certificate(json.load(fh))
        verify.verify_lift(cert, cfg.enumeration_bound)
        _emit(jsonio.dumps(jsonio.encode_certificate(cert)), args.outfile)
        return 0 if cert.valid else 1

    if cmd == "polytope":
        if args.n < 0:
            raise ValueError(f"--n must not be negative, got {args.n}")
        _check_enumeration(args.n, cfg.enumeration_bound)
        if args.what == "monomials":
            payload = [jsonio.encode_class(c) for c in sym_det_monomials(args.n)]
        elif args.what == "vertices":
            payload = [jsonio.encode_class(c) for c in newton.polytope_vertices(args.n)]
        else:
            payload = newton.polytope_edges(args.n)
        _emit(jsonio.dumps(payload), args.outfile)
        return 0

    if cmd == "fixtures":
        path = Path(args.outdir) / f"{args.name}.json"
        path.write_text(jsonio.dumps(fixture_json(args.name)) + "\n")
        print(str(path))
        return 0

    raise AssertionError(f"unhandled command {cmd}")


def _run_lift(a, variety, mode, cfg: Config):
    seed, bound = cfg.seed, cfg.enumeration_bound
    if variety == "rank2":
        if mode in ("C+", "R+"):
            return lifts.lift_rank2_positive(a, seed=seed, bound=bound)
        return lifts.lift_rank2_real(a, seed=seed, bound=bound)
    if variety == "sym_rank2":
        if mode in ("C+", "R+"):
            return lifts.lift_sym_caterpillar(a, seed=seed, bound=bound)
        return lifts.lift_sym_rank2_real(a, seed=seed, bound=bound)
    real_mode = "R+" if mode.endswith("+") else "R"
    if variety == "corank1":
        return lifts.lift_corank1(a, real_mode, seed=seed, bound=bound)
    if variety == "sym_corank1":
        return lifts.lift_sym_corank1(a, real_mode, seed=seed, bound=bound)
    raise ValueError(variety)


def main(argv=None) -> int:
    try:
        code = dispatch(argv)
    except SizeLimit as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 3
    except NegativeResult as exc:
        print(f"negative result: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ConstructionExhausted as exc:
        print(f"construction exhausted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (TropliftError, OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
