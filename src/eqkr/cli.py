"""Command-line front end.

  eqkr compute --group SU3 --involution sigmaR --format json
  eqkr verify  --group SU2 --involution trivial --suite all

Exit codes: 0 success; 2 specification parse/validation error;
3 unclassifiable representation (supply an override table);
4 internal invariant violation; 5 verification failure (report still
emitted).  Output bytes are a function of (spec, seed) only.
"""

from __future__ import annotations

import sys

# Without bytecode caches a CLI process peaks in memory while compiling
# presentation.py, the largest module; importing it first compiles it while
# the least else is loaded.  argparse and json are imported where used, for
# the same reason.
from .presentation import build_kr_presentation
from .groups import (
    DominanceError,
    InvariantError,
    UnsupportedGroupError,
    build_root_data,
    parse_group,
)
from .realstruct import (
    InvolutionSpecError,
    UnclassifiableError,
    involution_from_name,
)
from .serialize import (
    presentation_json,
    presentation_text,
    report_json,
    report_text,
)
from .verifier import (
    DEFAULT_SEED,
    DEFAULT_TRUNCATION,
    MUTANT_KINDS,
    SUITES,
    SuiteSpecError,
    run_suite,
)

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_UNCLASSIFIABLE = 3
EXIT_INTERNAL = 4
EXIT_VERIFY = 5


def _build_parser():
    import argparse
    ap = argparse.ArgumentParser(
        prog="eqkr",
        description="generators-and-relations presentations of equivariant "
                    "KR-theory rings",
        epilog="--sensitivity-probe injects a named fault into the presentation "
               "that the fast and all suites check (self-test of their ability "
               "to fail); the other suites read none and refuse it")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--group", required=True,
                        help="group spec, e.g. SU3, Sp2, U2, SU2xSU2")
        sp.add_argument("--involution", default="trivial",
                        help="trivial | sigmaR | sigmaH, or a comma list "
                             "for products")
        sp.add_argument("--override", metavar="FILE",
                        help="JSON file with type overrides "
                             '{"overrides": [{"weight": [..], "type": "R"}]}')
        sp.add_argument("--format", choices=("json", "text"), default="json")
        sp.add_argument("--truncate", type=int, default=DEFAULT_TRUNCATION,
                        metavar="D", help="irrep dimension bound for tables")
        sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sp.add_argument("--out", metavar="FILE", help="write output here")

    sp = sub.add_parser("compute", help="build and emit a presentation")
    common(sp)

    sp = sub.add_parser("verify", help="run property checks")
    common(sp)
    sp.add_argument("--suite", choices=SUITES, default="fast")
    sp.add_argument("--sensitivity-probe", choices=MUTANT_KINDS, default=None,
                    help=argparse.SUPPRESS)
    return ap


def _load_overrides(path):
    import json
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvolutionSpecError(
            f"cannot read override file {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvolutionSpecError(
            f"override file {path} is not JSON: {exc}") from None
    try:
        return {_override_weight(entry): entry["type"]
                for entry in data.get("overrides", [])}
    except (AttributeError, KeyError, TypeError):
        raise InvolutionSpecError(
            f"override file {path} must hold "
            '{"overrides": [{"weight": [..], "type": "R"}, ...]} '
            "with integer weights") from None


def _override_weight(entry):
    # refuse rather than convert: int() would truncate 1.7 and parse "1",
    # and bool is an int subclass
    weight = tuple(entry["weight"])
    if any(type(x) is not int for x in weight):
        raise TypeError(f"weight {entry['weight']} has a non-integer entry")
    return weight


def _emit(text, out_path, code):
    """Write text to out_path, or to stdout without one, and return the
    exit code: ``code``, or EXIT_SPEC when the file cannot be written."""
    if not out_path:
        sys.stdout.write(text)
        return code
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output file {out_path}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_SPEC
    return code


def _involution(args):
    rd = build_root_data(parse_group(args.group))
    overrides = _load_overrides(args.override) if args.override else None
    return involution_from_name(rd, args.involution, overrides=overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.truncate < 1:  # even the trivial irreducible has dimension 1
        print(f"error: --truncate must be at least 1, not {args.truncate}",
              file=sys.stderr)
        return EXIT_SPEC
    try:
        inv = _involution(args)
        if args.command == "compute":
            p = build_kr_presentation(inv.rd, inv)
            render = presentation_json if args.format == "json" else presentation_text
            return _emit(render(p, args.truncate, args.seed), args.out, EXIT_OK)
        report = run_suite(inv, args.suite, args.seed, args.truncate,
                           probe=args.sensitivity_probe)
        render = report_json if args.format == "json" else report_text
        return _emit(render(report), args.out,
                     EXIT_OK if report.passed else EXIT_VERIFY)
    except (UnsupportedGroupError, InvolutionSpecError, DominanceError,
            SuiteSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except UnclassifiableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCLASSIFIABLE
    except InvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
