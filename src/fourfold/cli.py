"""Command line front-end.

Each verb's handler computes its answer and returns (status, result,
lines): status is "ok" or "negative", result is the JSON-ready payload
and lines() builds the text report.  main alone names the verb, prints the
lines or, under --json, the report envelope, and maps the status to the
exit code: 0 for a completed computation (and positive verdicts), 1 for
a negative verdict from a classify-style command, 2 for input errors and
for a computation that runs out of memory.  An error is written to
stderr as "error: ..." in text mode, and as an envelope with status
"error" under --json.  A call [--json] VERB ARGS parses only ARGS, with
VERB's parser; the full argument tree serves the top-level help, usage
errors outside one verb and any argument the verb leaves over (_parse).
Each call reads FOURFOLD_BUDGET once and runs its verb under that
budget, and main builds the whole output before it prints any of it.
A complex document is parsed and validated once per process and text
(_complex_document), and a bare matrix document is parsed and charged
once per text and budget (_matrix_document), so later verbs on either
reuse what earlier ones kept: a complex's augmentations, expansions and
Smith forms, or a matrix's Smith form, which snf, em-torsion, recover-m
and classify-aspherical all read.
"""

import argparse
import functools
import json
import sys

from fourfold.classify import (
    ManifoldRecord,
    aspherical_equivalent,
    bordism_group,
    classify_aspherical,
    classify_lens_family,
    hopf_check,
    kreck_equivalent,
)
from fourfold.complexes import homology_Lambda, homology_Zw
from fourfold.errors import (
    FourfoldError,
    ParseError,
    _printable,
    _too_long,
    budget,
    budget_from_environment,
    charge,
    generator_budget,
)
from fourfold.extensions import em_torsion, pi2_extension
from fourfold.homology import bar_homology_oracle, group_homology
from fourfold.intmat import AbelianInvariants
from fourfold.manifolds import LensSpace, linking_form, linking_isometric
from fourfold.serialize import (
    emit_group_spec,
    invariants_to_json,
    parse_char_spec,
    parse_complex,
    parse_group_spec,
    parse_int_matrix,
    parse_record_document,
    report_envelope,
)

__all__ = ["main"]


def _read_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))


# An entry is a document text and its validated complex, with what its
# boundaries keep once verbs have read them (tracemalloc): 3-7 kB for
# S^4, CP^2 and RP^4 after hopf-check, 7-15 kB for L(5..9, q) after
# ext-class and homology --coeff lambda, 13.5 kB for T^4 after every
# em-torsion and recover-m, 230 kB for the Z/6 x Z/6 presentation
# complex after hopf-check.  Sixteen entries catch every repeat of the
# perfbench extensions pass (15 documents).
_DOCUMENT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_DOCUMENT_CACHE_SIZE)
def _complex_document(text):
    """The complex of a document text, parsed and validated once per
    process.  Parsing is a pure function of the text, and no code writes
    a complex or a matrix after it is built, so the augmentations,
    expansions and Smith forms that one verb keeps on its boundaries
    serve the next verb on the same document.  A document that fails
    raises, and nothing is kept.  parse_complex itself stays uncached,
    so a library caller gets a fresh complex."""
    return parse_complex(text)


# An entry is a matrix document text and its matrix, with the Smith form
# that snf and em-torsion keep on it (tracemalloc): about 1.7 kB for a
# generated matrix of at most 6 x 6, 100 kB for the 60 of the perfbench
# extensions pass.  In the seed 1 order, maxsize 16, 32, 48 and 64 catch
# 10, 29, 43 and 60 of its 60 repeats.  One cache shared with the complex
# memo would need about 80 entries, and a complex entry can weigh 1.24 MB.
_MATRIX_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_MATRIX_CACHE_SIZE)
def _matrix_document(text, budget):
    """The matrix of a bare matrix document, parsed and charged once per
    process and budget, so every verb on the same text reads the one
    Smith form that IntMatrix.smith() keeps.  The charge is the square of
    each side, the cells of the U and V that form keeps, and is made
    before anything is reduced.  The budget is a key argument only, the
    one the charge reads, so a kept matrix serves only calls under the
    budget that admitted it.  A document that fails or is refused raises,
    and nothing is kept.  parse_int_matrix itself stays uncached, so a
    library caller gets a fresh matrix."""
    m = parse_int_matrix(text)
    cells = m.rows * m.rows + m.cols * m.cols
    charge(cells, "Smith form of a %s x %s matrix keeps %s transform cells", m.rows, m.cols, cells)
    return m


def _load_matrix_or_d3(path):
    """A bare integer matrix (through _matrix_document), or a complex
    document contributing its twisted degree-3 boundary (through
    _complex_document).  Either way the matrix is the one kept for the
    text, so its Smith form is reduced once per process."""
    text = _read_file(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        c = _complex_document(text)
        if c.top_degree < 3:
            raise ParseError("complex has no degree-3 boundary")
        return c.d(3).augment(c.w)
    return _matrix_document(text, generator_budget())


def _parse_invariants(spec):
    """FREE:TORSION where TORSION is a comma list (may be empty)."""
    parts = str(spec).split(":")
    if len(parts) != 2:
        raise ParseError("invariants spec must look like FREE:a,b,c (torsion may be empty)")
    try:
        free = int(parts[0])
    except ValueError:
        raise ParseError("bad free rank %r" % parts[0])
    if free < 0:
        raise ParseError("free rank must be >= 0, got %d" % free)
    torsion = []
    if parts[1]:
        try:
            torsion = [int(x) for x in parts[1].split(",")]
        except ValueError:
            raise ParseError("bad torsion list %r" % parts[1])
    if any(t < 1 for t in torsion):
        raise ParseError("torsion orders must be >= 1, got %r" % parts[1])
    return AbelianInvariants.from_diag(free, torsion)


def _status(positive):
    return "ok" if positive else "negative"


def _cmd_snf(args):
    m = _matrix_document(_read_file(args.file), generator_budget())
    s = m.smith()
    result = {
        "diag": list(s.diag),
        "rank": len(s.diag),
        "rows": m.rows,
        "cols": m.cols,
    }
    return "ok", result, lambda: [
        "matrix %d x %d" % (m.rows, m.cols),
        "rank %d" % len(s.diag),
        "invariant factors: %s" % (" ".join(str(d) for d in s.diag) or "(none)"),
    ]


def _cmd_homology(args):
    c = _complex_document(_read_file(args.file))
    homology = homology_Zw if args.coeff == "zw" else homology_Lambda
    invs = [homology(c, i) for i in range(c.top_degree + 1)]
    result = {"coefficients": args.coeff, "degrees": [invariants_to_json(inv) for inv in invs]}
    return "ok", result, lambda: ["H_%d = %s" % (i, inv) for i, inv in enumerate(invs)]


def _cmd_group_homology(args):
    group = parse_group_spec(args.group)
    w = parse_char_spec(args.w, group)
    inv = group_homology(group, w, args.degree)
    result = {
        "group": emit_group_spec(group),
        "degree": args.degree,
        "invariants": invariants_to_json(inv),
    }
    if args.oracle is None:
        return "ok", result, lambda: ["H_%d(%s) = %s" % (args.degree, group, inv)]
    oracle = bar_homology_oracle(group, w, args.degree)
    agree = oracle == inv
    result["oracle"] = invariants_to_json(oracle)
    result["oracle_agrees"] = agree
    return _status(agree), result, lambda: [
        "H_%d(%s) = %s" % (args.degree, group, inv),
        "bar oracle: %s (%s)" % (oracle, "agrees" if agree else "MISMATCH"),
    ]


def _cmd_lens_classify(args):
    rep = classify_lens_family(args.p, args.q1, args.q2)
    verdict = "EQUIVALENT" if rep.equivalent else "NOT_EQUIVALENT"
    result = {
        "p": args.p,
        "q1": args.q1,
        "q2": args.q2,
        "verdict": verdict,
        "criteria": rep.verdicts,
        "certificates": rep.certificates,
    }
    head = "%s  (p=%d, q1=%d, q2=%d)" % (verdict, args.p, args.q1, args.q2)
    return _status(rep.equivalent), result, lambda: [head] + [
        "  %s: %s%s" % (name, rep.verdicts[name], "  %s" % rep.certificates[name] if rep.certificates[name] else "")
        for name in sorted(rep.verdicts)
    ]


def _cmd_lens_linking(args):
    f1 = linking_form(LensSpace(args.p, args.q1))
    f2 = linking_form(LensSpace(args.p, args.q2))
    iso, u, sign = linking_isometric(f1, f2)
    verdict = "ISOMETRIC" if iso else "NOT_ISOMETRIC"
    result = {
        "p": args.p,
        "q1": args.q1,
        "q2": args.q2,
        "verdict": verdict,
        "certificate": {"unit": u, "sign": sign} if iso else None,
    }
    return _status(iso), result, lambda: [verdict + ("" if not iso else "  unit=%d sign=%d" % (u, sign))]


def _cmd_em_torsion(args):
    mat = _load_matrix_or_d3(args.file)
    inv = em_torsion(mat, args.m)
    result = {"m": args.m, "invariants": invariants_to_json(inv)}
    return "ok", result, lambda: ["E_%d = %s" % (args.m, inv)]


def _cmd_recover_m(args):
    mat = _load_matrix_or_d3(args.file)
    inv = _parse_invariants(args.invariants)
    cands = classify_aspherical(mat, inv)
    result = {"invariants": invariants_to_json(inv), "candidates": sorted(cands)}
    return _status(cands), result, lambda: ["candidates: %s" % (sorted(cands) or "(none)")]


def _cmd_ext_class(args):
    # the constructor refused d_2 . d_3 != 0, so the sequence is exact
    c = _complex_document(_read_file(args.file))
    cls = pi2_extension(c)
    inv = cls.context.ext_invariants()
    trivial = cls.is_trivial()
    result = {
        "ext_invariants": invariants_to_json(inv),
        "class_trivial": trivial,
        "sequence_exact": True,
    }
    return "ok", result, lambda: [
        "extension group: %s" % inv,
        "class trivial: %s" % trivial,
        "sequence exact: True",
    ]


def _record_from_file(path):
    return ManifoldRecord.over(*parse_record_document(_read_file(path)))


def _cmd_classify_kreck(args):
    r1 = _record_from_file(args.a)
    r2 = _record_from_file(args.b)
    eq, cert = kreck_equivalent(r1, r2)
    verdict = "EQUIVALENT" if eq else "NOT_EQUIVALENT"
    result = {"verdict": verdict, "certificate": cert}
    return _status(eq), result, lambda: [verdict + ("" if cert is None else "  %s" % cert)]


def _cmd_classify_aspherical(args):
    mat = _load_matrix_or_d3(args.file)
    inv1 = _parse_invariants(args.inv)
    if args.inv2 is None:
        cands = classify_aspherical(mat, inv1)
        return _status(cands), {"candidates": sorted(cands)}, lambda: ["candidates: %s" % sorted(cands)]
    inv2 = _parse_invariants(args.inv2)
    same, cert = aspherical_equivalent(mat, inv1, inv2, proj1=args.proj, proj2=args.proj2)
    verdict = "EQUIVALENT" if same else "NOT_EQUIVALENT"
    result = {"verdict": verdict, "certificate": cert}
    return _status(same), result, lambda: [verdict + "  %s" % cert]


def _cmd_bordism(args):
    group = parse_group_spec(args.group)
    w = parse_char_spec(args.w, group)
    stable, h4 = bordism_group(group, w)
    result = {
        "group": emit_group_spec(group),
        "stable": invariants_to_json(stable),
        "h4": invariants_to_json(h4),
    }
    return "ok", result, lambda: ["%s x %s" % (stable, h4)]


def _cmd_hopf_check(args):
    c = _complex_document(_read_file(args.file))
    rep = hopf_check(c)
    result = {
        "passed": rep.passed,
        "groups": {k: invariants_to_json(v) for k, v in rep.groups.items()},
        "checks": rep.checks,
        "notes": rep.notes,
    }
    return _status(rep.passed), result, lambda: (
        ["passed: %s" % rep.passed]
        + ["  %s = %s" % (k, rep.groups[k]) for k in sorted(rep.groups)]
        + ["  check %s: %s" % (k, rep.checks[k]) for k in sorted(rep.checks)]
        + ["  note: %s" % note for note in rep.notes]
    )


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fourfold",
        description="Exact invariants for the stable classification of closed 4-manifolds.",
    )
    ap.add_argument("--json", action="store_true", help="emit a JSON report envelope")
    sub = ap.add_subparsers(dest="command", required=True)
    # argparse takes "-1,1" after a space for an option, so signs need "="
    w_help = '"trivial" or one sign per generator, written --w=-1,1'

    p = sub.add_parser("snf", help="Smith form of an integer matrix file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_snf)

    p = sub.add_parser("homology", help="homology of a complex document")
    p.add_argument("file")
    p.add_argument("--coeff", choices=("zw", "lambda"), default="zw")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("group-homology", help="twisted group homology")
    p.add_argument("--group", required=True, help='e.g. "cyclic:5", "product:2,2", "cyclic:3*Z"')
    p.add_argument("--w", default="trivial", help=w_help)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--oracle", choices=("bar",), default=None)
    p.set_defaults(func=_cmd_group_homology)

    for name in ("lens-classify", "classify-lens"):
        p = sub.add_parser(name, help="all equivalence criteria for a lens pair")
        p.add_argument("p", type=int)
        p.add_argument("q1", type=int)
        p.add_argument("q2", type=int)
        # the alias reports the canonical name in every envelope
        p.set_defaults(func=_cmd_lens_classify, command="lens-classify")

    p = sub.add_parser("lens-linking", help="linking form comparison")
    p.add_argument("p", type=int)
    p.add_argument("q1", type=int)
    p.add_argument("q2", type=int)
    p.set_defaults(func=_cmd_lens_linking)

    p = sub.add_parser("em-torsion", help="twisted quotient invariants for one m")
    p.add_argument("file", help="integer matrix file, or a complex document (uses d3)")
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_em_torsion)

    p = sub.add_parser("recover-m", help="candidate twisting numbers from invariants")
    p.add_argument("file", help="integer matrix file, or a complex document (uses d3)")
    p.add_argument("invariants", help="FREE:TORSION, e.g. 6:3,3,3,3 or 6:")
    p.set_defaults(func=_cmd_recover_m)

    p = sub.add_parser("ext-class", help="second homotopy extension class of a complex")
    p.add_argument("file")
    p.set_defaults(func=_cmd_ext_class)

    p = sub.add_parser("classify-kreck", help="orbit comparison of two records")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_classify_kreck)

    p = sub.add_parser("classify-aspherical", help="aspherical-route comparison")
    p.add_argument("file", help="integer matrix file, or a complex document (uses d3)")
    p.add_argument("inv", help="observed invariants, FREE:TORSION")
    p.add_argument("--inv2", default=None, help="second observation to compare")
    p.add_argument("--proj", type=int, choices=(0, 1), default=None, help="projectivity flag for the first")
    p.add_argument("--proj2", type=int, choices=(0, 1), default=None, help="projectivity flag for the second")
    p.set_defaults(func=_cmd_classify_aspherical)

    p = sub.add_parser("bordism", help="stable bordism of a 1-type")
    p.add_argument("--group", required=True)
    p.add_argument("--w", default="trivial", help=w_help)
    p.set_defaults(func=_cmd_bordism)

    p = sub.add_parser("hopf-check", help="exact sequence bookkeeping for a 4-complex")
    p.add_argument("file")
    p.set_defaults(func=_cmd_hopf_check)

    return ap


@functools.lru_cache(maxsize=1)
def _parser():
    """The parser and its map from verb to verb parser, built on the
    first call and reused for the process."""
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return ap, sub.choices


def _parse(argv):
    """The namespace of argv.  A call [--json] VERB ARGS is parsed by
    VERB's parser alone, and the namespace gets json and command as the
    full parse sets them; the full parse would rescan argv and then hand
    ARGS to the same parser.  Every other argv, and one whose verb parser
    leaves arguments over, goes to the full parse, which writes the
    top-level help and usage errors.  An argument starting with "--=" is
    an ambiguous option to the top-level scan alone, so it goes there
    too."""
    ap, verbs = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    start = 1 if argv[:1] == ["--json"] else 0
    if start < len(argv) and argv[start] in verbs:
        verb, rest = argv[start], argv[start + 1:]
        if not any(a.startswith("--=") for a in rest):
            ns, extra = verbs[verb].parse_known_args(rest)
            if not extra:
                # the verb parser's defaults win, as they do in the full
                # parse, so classify-lens reports lens-classify
                return argparse.Namespace(**{"json": start == 1, "command": verb, **vars(ns)})
    return ap.parse_args(argv)


_EXIT_CODES = {"ok": 0, "negative": 1, "error": 2}


def _largest_int(value):
    """The integer of largest magnitude in a JSON-ready value, or 0."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return max(map(_largest_int, value), key=abs, default=0)
    return value if isinstance(value, int) else 0


def main(argv=None):
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    result = None
    try:
        with budget(budget_from_environment()):
            status, result, lines = args.func(args)
        if args.json:
            out = json.dumps(report_envelope(args.command, status, result), sort_keys=True) + "\n"
        else:
            out = "".join(line + "\n" for line in lines())
    except FourfoldError as exc:
        message = str(exc)
    except MemoryError:
        # Reported once the handler has ended, so the frames that the
        # traceback holds, and the matrices in them, are freed first.
        message = "out of memory"
    except ValueError:
        # str() and json.dumps refuse an integer with more digits than
        # sys.get_int_max_str_digits(); any other ValueError is a bug
        big = abs(_largest_int(result))
        if not _too_long(big):
            raise
        message = "the answer holds an integer too long to print: %s" % _printable(big)
    else:
        sys.stdout.write(out)
        return _EXIT_CODES[status]
    if args.json:
        print(json.dumps(report_envelope(args.command, "error", {"message": message}), sort_keys=True))
    else:
        print("error: %s" % message, file=sys.stderr)
    return _EXIT_CODES["error"]


if __name__ == "__main__":
    sys.exit(main())
