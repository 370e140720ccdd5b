"""Regenerate the golden series calls in tests/golden/series.

    PYTHONPATH=src python tests/golden/make_golden_series.py

Runs the criterion-5 property suite (tests/test_acceptance.py) with every
function named in RECORDED replaced, under each module attribute that
holds it, by a recorder; calls those functions make of each other are
recorded too.  A RECORDED name that no home module binds stops the run
before anything is written, so a rename cannot shrink the set quietly.
series/calls.json lists each distinct call once, in the order first made:
the function name, its series arguments as JSON objects (`series_json`),
the `trunc` argument, and the sha256 digest of the
result's encoding (`result_digest`).  tests/test_golden_series.py replays
every call and compares digests.  series/pinned_calls.json, fixed inputs
of ps_inv and quad_roots, is not written here.

Rerun this only for a deliberate change of what these functions return,
and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import sys

GOLDEN = os.path.dirname(os.path.abspath(__file__))
HERE = os.path.join(GOLDEN, "series")
TESTS = os.path.dirname(GOLDEN)
sys.path.insert(0, os.path.join(os.path.dirname(TESTS), "src"))

from troplift import jsonio, lifts, puiseux  # noqa: E402
from troplift.errors import TropliftError  # noqa: E402

# the symmetric lift calls quad_numerators, and ps_sqrt serves it;
# quad_roots divides its numerators with ps_div, which ps_inv wraps too
RECORDED = ("ps_inv", "ps_sqrt", "quad_roots", "ps_div", "quad_numerators")
HOMES = (puiseux, lifts)


def series_json(s) -> dict:
    """The JSON object jsonio writes for a series."""
    return json.loads(jsonio.dumps(s))


def result_digest(result) -> str:
    """sha256 of a series result, of a quad_roots triple or quad_numerators
    quadruple (series or None, then the discriminant sign), or of a raised
    error."""
    if isinstance(result, TropliftError):
        obj = {"raises": type(result).__name__}
    elif isinstance(result, tuple):
        *parts, sign = result
        obj = [None if x is None else series_json(x) for x in parts] + [sign]
    else:
        obj = series_json(result)
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


def bindings(name: str) -> list:
    """The home modules that bind the function `name`; none is an error."""
    fn = getattr(puiseux, name, None)
    mods = [mod for mod in HOMES if fn is not None and getattr(mod, name, None) is fn]
    if not mods:
        raise SystemExit(f"{name} is bound in no home module; fix RECORDED before recording")
    return mods


def record(calls: list, seen: set) -> list:
    """Install recorders on every home of the recorded functions.

    Returns the replaced (module, name, original) triples.
    """
    replaced = []
    homes = {name: bindings(name) for name in RECORDED}

    def recorder(name, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            # the lifts pass trunc by position, the wrappers by keyword
            given = signature.bind(*args, **kwargs).arguments
            trunc = given.pop("trunc", None)
            args = list(given.values())
            key_series = [series_json(s) for s in args]
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

    for name, mods in homes.items():
        fn = getattr(puiseux, name)
        wrapped = recorder(name, fn)
        for mod in mods:
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
