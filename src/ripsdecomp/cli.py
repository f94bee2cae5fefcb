"""Command line interface.

Commands: ``vr`` (complex summary), ``homology`` (Betti/torsion table),
``decompose`` (criteria plus verification), ``corpus`` (embedded golden
cases).  Exit codes: 0 success, 1 soundness discrepancy or corpus mismatch,
2 input error, 141 (128 + SIGPIPE) stdout closed before the report was
written.  Reports go to stdout, diagnostics to stderr.
"""

import argparse
import json
import os
import sys

from . import linalg
from .analyzer import analyze, analyze_metric
from .complexes import check_dim_cap
from .errors import InvalidInput, RipsDecompError
from .homology import homology
from .io import cover_for_labels, load_cover, load_input
from .metric import MetricCover, parse_distance, vietoris_rips
from .reporting import render_json, render_text

FIELD_CHOICES_HELP = "coefficients: q (rationals), z (integers), zp:<p> (prime field)"


def _add_common(parser):
    parser.add_argument("input", help="input file (.json or .csv)")
    parser.add_argument("-r", "--radius", help="Vietoris-Rips radius")
    parser.add_argument(
        "--max-dim", type=int, default=4, help="dimension cap (default 4)"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )


def _check_field(value):
    try:
        if value != "z":
            linalg.characteristic(value)
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(f"bad field {value!r}: {exc}") from None
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ripsdecomp",
        description="Vietoris-Rips and simplicial complex decomposition analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_vr = sub.add_parser("vr", help="build a Vietoris-Rips complex and summarize it")
    _add_common(p_vr)

    p_hom = sub.add_parser("homology", help="homology of an input complex")
    _add_common(p_hom)
    p_hom.add_argument(
        "--field",
        action="append",
        type=_check_field,
        help=FIELD_CHOICES_HELP + " (repeatable; default q and z)",
    )
    p_hom.add_argument(
        "--unreduced", action="store_true", help="report unreduced homology"
    )

    p_dec = sub.add_parser("decompose", help="evaluate the decomposition criteria")
    _add_common(p_dec)
    p_dec.add_argument("--cover", required=True, help="cover file (JSON with X and Y)")
    p_dec.add_argument(
        "--field",
        action="append",
        type=_check_field,
        help=FIELD_CHOICES_HELP + " (repeatable; default q and z)",
    )
    p_dec.add_argument("--no-verify", dest="verify", action="store_false")

    p_cor = sub.add_parser("corpus", help="run or list the embedded example corpus")
    p_cor.add_argument("action", choices=("run", "list"))
    return parser


_PARSER = None


def _parser():
    """The parser, built on the first call and reused by every later one."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def _radius(args):
    """The parsed ``--radius``, which a distance input needs."""
    if args.radius is None:
        raise RipsDecompError("distance input needs --radius")
    return parse_distance(args.radius)


def _complex_from(args, document, cap):
    """The input's complex, a distance input's flag complex capped at
    ``cap``; ``--max-dim`` past ``MAX_DIM_CAP`` is refused before either."""
    if args.max_dim < 0:
        raise InvalidInput("--max-dim must be nonnegative")
    check_dim_cap(args.max_dim)
    if document.space is not None:
        return vietoris_rips(document.space, _radius(args), cap)
    return document.facet_complex


def cmd_vr(args):
    document = load_input(args.input)
    if document.space is None:
        raise RipsDecompError("vr needs a distance input")
    levels = _complex_from(args, document, args.max_dim).levels(args.max_dim)
    counts = {d: len(level) for d, level in enumerate(levels) if level}
    if args.format == "json":
        print(json.dumps({"counts_by_dim": {str(d): c for d, c in counts.items()}}))
    else:
        print(f"Vietoris-Rips complex at radius {args.radius}:")
        for d, c in counts.items():
            print(f"  dim {d}: {c}")
        if not counts:
            print("  (empty)")
    return 0


def cmd_homology(args):
    document = load_input(args.input)
    # H_(max-dim) reads the boundaries of the (max-dim + 1)-simplices
    complex_ = _complex_from(args, document, args.max_dim + 1)
    fields = args.field or ["q", "z"]
    reduced = not args.unreduced
    out = {}
    for coeffs in fields:
        profile = homology(complex_, coeffs, max_deg=args.max_dim, reduced=reduced)
        out[coeffs] = profile
    if args.format == "json":
        print(json.dumps({c: p.to_dict() for c, p in out.items()}, indent=2))
    else:
        kind = "reduced" if reduced else "unreduced"
        for coeffs, profile in out.items():
            degrees = [d for d in profile.degrees if d >= 0]
            print(f"{kind} homology, coefficients {coeffs}:")
            for d in degrees:
                tor = profile.torsion_at(d)
                extra = f"  torsion {list(tor)}" if tor else ""
                print(f"  H_{d}: rank {profile.betti.get(d, 0)}{extra}")
    return 0


def cmd_decompose(args):
    document = load_input(args.input)
    x_labels, y_labels = load_cover(args.cover)
    fields = args.field or ["q", "z"]
    if document.space is not None:
        mc = MetricCover(document.space, x_labels, y_labels, _radius(args))
        report = analyze_metric(
            mc, dim_cap=args.max_dim, fields=fields, verify=args.verify
        )
    else:
        cover = cover_for_labels(document, x_labels, y_labels)
        report = analyze(
            document.facet_complex,
            cover,
            dim_cap=args.max_dim,
            fields=fields,
            verify=args.verify,
        )
    print(render_json(report) if args.format == "json" else render_text(report))
    return 0 if report.soundness["ok"] else 1


def cmd_corpus(args):
    # imported here: no other command needs the corpus, and importing it
    # costs every command when no bytecode is cached
    from . import corpus as corpus_mod

    if args.action == "list":
        for case in corpus_mod.CASES:
            print(case.name)
        return 0
    failed = 0
    for case in corpus_mod.CASES:
        _, mismatches = corpus_mod.run_case(case)
        status = "ok" if not mismatches else "FAIL"
        print(f"{case.name}: {status}")
        for m in mismatches:
            print(f"  {m}")
        failed += bool(mismatches)
    print(f"{len(corpus_mod.CASES) - failed}/{len(corpus_mod.CASES)} cases pass")
    return 1 if failed else 0


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = {
        "vr": cmd_vr,
        "homology": cmd_homology,
        "decompose": cmd_decompose,
        "corpus": cmd_corpus,
    }[args.command]
    try:
        status = handler(args)
        sys.stdout.flush()  # a reader that is gone shows here, not at exit
        return status
    except RipsDecompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: what is left in the buffer goes nowhere at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
