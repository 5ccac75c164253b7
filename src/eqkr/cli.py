"""Command-line front end.

  eqkr compute --group SU3 --involution sigmaR --format json
  eqkr verify  --group SU2 --involution trivial --suite all

Exit codes: 0 success; 2 specification parse/validation error;
3 unclassifiable representation (supply an override table);
4 internal invariant violation; 5 verification failure (report still
emitted).  Output bytes are a function of (spec, seed) only.
"""

from __future__ import annotations

import atexit
import functools
import gc
import sys

# Without bytecode caches a CLI process peaks in memory while compiling
# presentation.py, the largest module; importing it first compiles it while
# the least else is loaded.
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


# One table both parses argv and renders -h: (option, commands, default,
# kind, metavar, help).  kind is str, int or the tuple of allowed values;
# help None keeps the option out of -h.
_BOTH = ("compute", "verify")
_OPTIONS = (
    ("--group", _BOTH, None, str, "SPEC",
     "group spec, e.g. SU3, Sp2, U2, SU2xSU2 (required)"),
    ("--involution", _BOTH, "trivial", str, "NAME",
     "trivial | sigmaR | sigmaH, or a comma list for products"),
    ("--override", _BOTH, None, str, "FILE",
     'JSON file with type overrides {"overrides": [{"weight": [..], "type": "R"}]}'),
    ("--format", _BOTH, "json", ("json", "text"), None, "output format"),
    ("--truncate", _BOTH, DEFAULT_TRUNCATION, int, "D",
     "irrep dimension bound for tables"),
    ("--seed", _BOTH, DEFAULT_SEED, int, "N", "seed of the random draws"),
    ("--out", _BOTH, None, str, "FILE", "write output here, not to stdout"),
    ("--suite", ("verify",), "fast", SUITES, None, "the checks that verify runs"),
    ("--sensitivity-probe", ("verify",), None, MUTANT_KINDS, None, None),
)
_COMMANDS = {"compute": "build and emit a presentation",
             "verify": "run property checks"}
_EPILOG = ("--sensitivity-probe injects a named fault into the presentation\n"
           "that the fast and all suites check (self-test of their ability\n"
           "to fail); the other suites read none and refuse it")


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_SPEC)


def _help(command):
    """Write the help of ``command`` (of the whole CLI when None) and exit 0."""
    lines = [f"usage: eqkr {command or '{compute,verify}'} --group SPEC [option ...]",
             "", "generators-and-relations presentations of equivariant "
             "KR-theory rings", ""]
    if command is None:
        lines += ["commands:", *(f"  {name:9}{text}" for name, text in
                                 _COMMANDS.items()), ""]
    lines += ["options:", "  -h, --help", "      show this help and exit"]
    for name, commands, default, kind, metavar, text in _OPTIONS:
        if text is None or command not in (None, *commands):
            continue
        if isinstance(kind, tuple):
            metavar = "{" + ",".join(kind) + "}"
        if default is not None:
            text = f"{text} (default: {default})"
        lines += [f"  {name} {metavar}", f"      {text}"]
    sys.stdout.write("\n".join([*lines, "", _EPILOG, ""]))
    raise SystemExit(EXIT_OK)


def _dest(name):
    return name[2:].replace("-", "_")


def _parse(argv):
    """argv as a dict of the command and each of its options' values, keyed
    as argparse names them.  An option may be cut to a unique prefix, takes
    its value as ``--opt v`` or ``--opt=v`` (v may start with -), and may be
    repeated, the last value winning.  A usage error writes one line and
    exits 2; -h or --help writes the help and exits 0."""
    words = iter(sys.argv[1:] if argv is None else argv)
    args, rows = {}, {"--help": None}
    for word in words:
        if word == "-h":
            _help(args.get("command"))
        if word == "--" or not word.startswith("--"):
            if "command" in args:
                _usage_error(f"unexpected argument {word!r}")
            if word not in _COMMANDS:
                _usage_error(f"unknown command {word!r}: choose compute or verify")
            args["command"] = word
            for row in _OPTIONS:
                if word in row[1]:
                    rows[row[0]] = row
                    args[_dest(row[0])] = row[2]
            continue
        given, eq, value = word.partition("=")
        hits = [given] if given in rows else [n for n in rows if n.startswith(given)]
        if not hits:
            _usage_error(f"unknown option {given}")
        if len(hits) > 1:
            _usage_error(f"ambiguous option {given}: could be {', '.join(hits)}")
        name = hits[0]
        if name == "--help":
            if eq:
                _usage_error("--help takes no value")
            _help(args.get("command"))
        if not eq:
            value = next(words, None)
            if value is None:
                _usage_error(f"{name} needs a value")
        kind = rows[name][3]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"{name} must be an integer, not {value!r}")
        elif kind is not str and value not in kind:
            _usage_error(f"{name} must be one of {', '.join(kind)}, not {value!r}")
        args[_dest(name)] = value
    if "command" not in args:
        _usage_error("missing command: compute or verify")
    if args["group"] is None:
        _usage_error(f"eqkr {args['command']} needs --group")
    return args


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
    rd = build_root_data(parse_group(args["group"]))
    overrides = _load_overrides(args["override"]) if args["override"] else None
    return involution_from_name(rd, args["involution"], overrides=overrides)


@functools.cache
def _freeze_heap_at_exit():
    # Nothing a job builds needs a finaliser (no __del__ or weakref callback;
    # --out is closed by its with), so the heap is frozen at exit and the
    # interpreter's shutdown collection skips it.  Cached: once per process.
    atexit.register(gc.freeze)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    args = _parse(argv)
    if args["truncate"] < 1:  # even the trivial irreducible has dimension 1
        print(f"error: --truncate must be at least 1, not {args['truncate']}",
              file=sys.stderr)
        return EXIT_SPEC
    try:
        inv = _involution(args)
        if args["command"] == "compute":
            p = build_kr_presentation(inv.rd, inv)
            render = (presentation_json if args["format"] == "json"
                      else presentation_text)
            return _emit(render(p, args["truncate"], args["seed"]), args["out"],
                         EXIT_OK)
        report = run_suite(inv, args["suite"], args["seed"], args["truncate"],
                           probe=args["sensitivity_probe"])
        render = report_json if args["format"] == "json" else report_text
        return _emit(render(report), args["out"],
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
