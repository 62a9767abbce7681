"""Command-line front end.

Commands compose through JSON on stdin/stdout, so e.g. the generators
emitted by ``construct`` pipe straight into ``distortion``.  Every
command validates its input before computing and writes nothing on
failure.  Exit codes: 0 success, 1 malformed input (an OverflowError,
a number too large to convert, included), 2 verification failure (a
relator check, the verification suite, or an internal consistency
check), 3 engine guard refusal.
"""

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction

from .distortion import (
    GuardError,
    distorted_subgroup,
    distortion_degree,
    empirical_distortion,
    report_to_json,
    subgroup_from_json,
    subgroup_to_json,
)
from .jennings import (
    ORDERS,
    JenningsBasis,
    _survey,
    embedding_to_json,
    jennings_embedding,
)
from .matgroup import _entry_from_json
from .nickel import function_module, nickel_embedding, ordering_search
from .presentation import builtin, presentation_from_json
from .verify import run_all

__all__ = ["main"]


class UsageError(ValueError):
    """Bad command line or malformed payload."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _file_json(spec):
    """The JSON in the file that spec, file:PATH, names."""
    with open(spec[5:], "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_group(spec, consistent=False):
    """GroupSpec: a builtin selector or file:PATH with presentation
    JSON.  consistent=True also runs validate(), the associativity
    check, on file groups, for paths whose results assume a consistent
    presentation and cannot detect one that is not."""
    if spec.startswith("file:"):
        group = presentation_from_json(_file_json(spec))
        if consistent:
            group.validate()
        return group
    return builtin(spec)


def _load_subgroup(spec):
    """SubgroupSpec: file:PATH or '-' for stdin, JSON either way."""
    if spec == "-":
        return subgroup_from_json(json.load(sys.stdin))
    if spec.startswith("file:"):
        return subgroup_from_json(_file_json(spec))
    raise UsageError(
        f"subgroup source must be 'file:PATH' or '-', got {spec!r}"
    )


def _emit(args, payload, table):
    """Render the finished payload; nothing is written before this."""
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = table
    if args.out:
        _write_atomically(args.out, text)
    else:
        sys.stdout.write(text)


def _write_atomically(path, text):
    """Write text to a temporary file beside path, then rename it over
    path, so a failed write leaves any existing file as it was."""
    fd, tmp = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)), prefix=".nilmat-"
    )
    try:
        # the mode open(path, "w") would give, not mkstemp's 0600
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _matrix_lines(rows, indent="  "):
    cells = [[str(e) for e in row] for row in rows]
    width = max(len(c) for row in cells for c in row)
    return [
        indent + " ".join(c.rjust(width) for c in row) for row in cells
    ]


def _parse_order(text, kind):
    if text is None:
        return "weight-lex" if kind == "jennings" else None
    if kind == "jennings":
        if text in ORDERS:
            return text
        try:
            return tuple(map(_entry_from_json, text.split(",")))
        except ValueError:
            raise UsageError(
                "jennings order must be weight-lex, scheme-perturbed, "
                "or a comma list of basis indices"
            ) from None
    if text == "declared":
        return None
    return tuple(part.strip() for part in text.split(","))


def cmd_embed(args):
    if args.kind == "nickel" and args.truncation is not None:
        raise UsageError("--truncation applies to jennings embeddings only")
    group = _load_group(args.group, consistent=args.kind == "nickel")
    order = _parse_order(args.order, args.kind)
    if args.kind == "jennings":
        result = jennings_embedding(
            group, order=order, truncation=args.truncation
        )
    else:
        result = nickel_embedding(group, ordering=order)
    payload = embedding_to_json(result)
    lines = [
        f"d = {result.d}",
        f"unitriangular = {str(result.unitriangular).lower()}",
        f"relators_ok = {str(result.relators_ok).lower()}",
        "ordering: " + ", ".join(str(m) for m in payload["ordering"]),
    ]
    for k, g in enumerate(result.generators, start=1):
        lines.append(f"generator {k}:")
        lines.extend(_matrix_lines(g.rows))
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if result.relators_ok else 2


def cmd_distortion(args):
    sub = _load_subgroup(args.subgroup)
    report = distortion_degree(sub)
    payload = report_to_json(report)
    lines = [f"d_H = {report.degree}", "witness:"]
    lines.extend(_matrix_lines(report.witness.rows))
    lines.append("strata (ambient level m, subgroup depth t):")
    for s in report.strata:
        lines.append(f"  m={s.m} t={s.t}")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_construct(args):
    sub = distorted_subgroup(args.p, args.q)
    payload = subgroup_to_json(sub)
    lines = [
        f"N = {sub.n}",
        f"target degree = {Fraction(args.p, args.q)}",
    ]
    for k, g in enumerate(sub.generators, start=1):
        lines.append(f"generator {k}:")
        lines.extend(_matrix_lines(g.rows))
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_orderings(args):
    if args.kind == "jennings" and args.exhaustive:
        raise UsageError("--exhaustive applies to nickel orderings only")
    group = _load_group(args.group, consistent=args.kind == "nickel")
    if args.kind == "jennings":
        # the named basis orders that apply to the group, each a
        # permutation of the weight-lex images
        named = [JenningsBasis(group)]
        if group.positions is not None:
            named.append(JenningsBasis(group, order="scheme-perturbed"))
        records = _survey(
            named[0]._generator_rows(), [(b.order, b.perm) for b in named]
        )
        mode = "named"
    else:
        mode = "exhaustive" if args.exhaustive else "report-first"
        records = ordering_search(function_module(group), mode=mode)
    records = [
        dict(
            r,
            weights=list(r["weights"]) if r["weights"] else None,
            degree=None if r["degree"] is None else str(r["degree"]),
        )
        for r in records
    ]
    payload = {
        "group": group.label,
        "mode": mode,
        "records": records,
    }
    lines = [f"group = {group.label}", f"mode = {mode}"]
    for r in records:
        ordering = r["ordering"]
        if not isinstance(ordering, str):
            ordering = ",".join(str(x) for x in ordering)
        lines.append(
            f"  {ordering} | unitriangular={str(r['unitriangular']).lower()}"
            f" | weights={r['weights']} | degree={r['degree']}"
        )
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_empirical(args):
    if args.radius < 1:
        raise UsageError(f"--radius {args.radius} is below 1")
    if args.cap is not None and args.cap < 0:
        raise UsageError(f"--cap {args.cap} is negative")
    sub = _load_subgroup(args.subgroup)
    table = empirical_distortion(sub, args.radius, h_cap=args.cap)
    lines = [f"radius = {table['radius']}", f"cap = {table['h_cap']}"]
    lines.append("  n  delta")
    for r in range(1, table["radius"] + 1):
        mark = " (cap hit)" if table["capped"][r] else ""
        lines.append(f"  {r:2d}  {table['delta'][r]}{mark}")
    _emit(args, table, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args):
    rc, _records = run_all(report=print)
    return rc


def build_parser():
    parser = _Parser(
        prog="nilmat",
        description=(
            "embeddings and subgroup distortion for unitriangular "
            "integer matrix groups"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--format",
            choices=("json", "table"),
            default="json",
            help="output rendering (default json)",
        )
        p.add_argument(
            "--out", default=None, help="write output to a file"
        )

    def group(p):
        p.add_argument("kind", choices=("jennings", "nickel"))
        p.add_argument(
            "group",
            help="ut:m[:flavor], heisenberg:n, freenil23, or file:PATH",
        )

    def subgroup(p):
        p.add_argument(
            "subgroup",
            nargs="?",
            default="-",
            help="file:PATH with subgroup JSON, or - for stdin (default)",
        )

    p = sub.add_parser(
        "embed", help="build an embedding and print its matrices"
    )
    group(p)
    p.add_argument(
        "--order",
        default=None,
        help=(
            "jennings: weight-lex | scheme-perturbed | comma list of "
            "basis indices; nickel: declared | comma list of labels"
        ),
    )
    p.add_argument(
        "--truncation",
        type=int,
        default=None,
        help="ring truncation weight (jennings only)",
    )
    common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser(
        "distortion", help="distortion report for a matrix subgroup"
    )
    subgroup(p)
    common(p)
    p.set_defaults(func=cmd_distortion)

    p = sub.add_parser(
        "construct",
        help="generators of a subgroup with distortion degree p/q",
    )
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser(
        "orderings", help="survey basis orderings for an embedding"
    )
    group(p)
    p.add_argument(
        "--exhaustive",
        action="store_true",
        help="nickel: try every basis permutation (size guard <= 8)",
    )
    common(p)
    p.set_defaults(func=cmd_orderings)

    p = sub.add_parser(
        "empirical", help="exact distortion table by ball search"
    )
    subgroup(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument(
        "--cap",
        type=int,
        default=None,
        help="search cap on subgroup word length (default radius^2)",
    )
    common(p)
    p.set_defaults(func=cmd_empirical)

    p = sub.add_parser(
        "verify-paper", help="run the built-in verification suite"
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"nilmat: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"nilmat: guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OverflowError, OSError,
            RecursionError) as exc:
        print(f"nilmat: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        # an internal consistency check, such as standardize's closure
        print(f"nilmat: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
