"""Regenerate the golden series calls in tests/golden/series.

    PYTHONPATH=src python tests/golden/make_golden_series.py

Runs the criterion-5 property suite (tests/test_acceptance.py) with every
`ps_inv`, `ps_sqrt` and `quad_roots` replaced, under each module attribute
that holds it, by a recorder; calls those functions make of each other are
recorded too.  series/calls.json lists each distinct call once, in the
order first made: the function name, its series arguments encoded with
`jsonio.encode_series`, the `trunc` argument, and the sha256 digest of the
result's encoding (`result_digest`).  tests/test_golden_series.py replays
every call and compares digests.

Rerun this only for a deliberate change of what these functions return,
and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

GOLDEN = os.path.dirname(os.path.abspath(__file__))
HERE = os.path.join(GOLDEN, "series")
TESTS = os.path.dirname(GOLDEN)
sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "src"))

from troplift import jsonio, lifts, puiseux  # noqa: E402
from troplift.errors import TropliftError  # noqa: E402

RECORDED = ("ps_inv", "ps_sqrt", "quad_roots")
HOMES = (puiseux, lifts)


def result_digest(result) -> str:
    """sha256 of a series result, a quad_roots triple, or a raised error."""
    if isinstance(result, TropliftError):
        obj = {"raises": type(result).__name__}
    elif isinstance(result, tuple):
        x1, x2, sign = result
        obj = [None if x is None else jsonio.encode_series(x) for x in (x1, x2)] + [sign]
    else:
        obj = jsonio.encode_series(result)
    data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def call(name: str, series: list, trunc):
    """Run one recorded call on decoded arguments; errors become results."""
    args = [jsonio.decode_series(s) for s in series]
    trunc = None if trunc is None else jsonio.frac_from_str(trunc)
    try:
        return getattr(puiseux, name)(*args, trunc=trunc)
    except TropliftError as exc:
        return exc


def record(calls: list, seen: set) -> list:
    """Install recorders on every home of the recorded functions.

    Returns the replaced (module, name, original) triples.
    """
    replaced = []

    def recorder(name, fn):
        def wrapper(*args, trunc=None):
            key_series = [jsonio.encode_series(s) for s in args]
            key_trunc = None if trunc is None else jsonio.frac_to_str(trunc)
            try:
                result = fn(*args, trunc=trunc)
            except TropliftError as exc:
                result = exc
            key = json.dumps([name, key_series, key_trunc], sort_keys=True)
            if key not in seen:
                seen.add(key)
                calls.append(
                    {
                        "fn": name,
                        "series": key_series,
                        "trunc": key_trunc,
                        "result_digest": result_digest(result),
                    }
                )
            if isinstance(result, TropliftError):
                raise result
            return result

        return wrapper

    for name in RECORDED:
        fn = getattr(puiseux, name)
        wrapped = recorder(name, fn)
        for mod in HOMES:
            if getattr(mod, name, None) is fn:
                replaced.append((mod, name, fn))
                setattr(mod, name, wrapped)
    return replaced


def main():
    for key in [k for k in os.environ if k.startswith("TROPLIFT_")]:
        del os.environ[key]
    sys.path.insert(0, TESTS)
    import test_acceptance

    calls: list = []
    replaced = record(calls, set())
    try:
        test_acceptance.test_criterion_5_field_mode_property_suite()
    finally:
        for mod, name, fn in replaced:
            setattr(mod, name, fn)
    os.makedirs(HERE, exist_ok=True)
    with open(os.path.join(HERE, "calls.json"), "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(c, sort_keys=True) for c in calls) + "\n]\n")
    for name in RECORDED:
        print(name, sum(1 for c in calls if c["fn"] == name))


if __name__ == "__main__":
    main()
