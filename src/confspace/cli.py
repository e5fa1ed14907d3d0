"""Command-line workbench: algebra-file parsing, command dispatch, output.

Commands:

    pages    - page dimension tables of the graph-side bicomplex
    ct-e2    - second page of the tensor-power complex
    total    - total cohomology of a chosen bicomplex kind
    check    - named verification suites (see reports module)
    massey   - triple Massey product of three classes
    d2       - second-page differential of a four-fold tensor class
    catalog  - list built-in algebras

Exit codes: 0 success / PASS, 1 FAIL verdict, 2 input error.

Algebra file format (line oriented, '#' comments):

    algebra NAME          or   cdga-free NAME
    field Q               or   field F5
    basis LABEL degree D       generator LABEL degree D   (free form)
    unit LABEL
    top LABEL                  (optional)
    product A B = 1*C + -2*D   (omitted products are zero; the reversed
                                order is filled in by graded commutativity)
    d A = 1*B                  (free form: d X = 1*y*y, monomials in
                                generators with optional ^ powers)
    truncate N                 (free form only)
    end

Every term is COEFF*LABEL with an integer or fraction coefficient; a bare
LABEL means coefficient 1.  `= 0` denotes the zero element."""

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction

from .exactlinalg import Field, QQ, vec_iadd
from .algebra import (Algebra, TruncatedFreeCDGA, AxiomViolation, Overflow,
                      cohomology, format_element, el_degree)
from . import graphs as gr
from . import catalog as cat
from . import reports
from .bgcomplex import build_AG, build_C
from .spectral import SpectralSequence, total_cohomology
from .ctcomplex import CTComplex
from .massey import (triple_massey, d2_formula, d2_certificate,
                     quadruple_tensor, corner_element, obstruction_residual,
                     NotDefined)


class ParseError(ValueError):
    def __init__(self, line_no, message):
        super().__init__("line %d: %s" % (line_no, message))
        self.line_no = line_no


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# algebra file format

def _parse_scalar(field, tok, line_no):
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return field.of(Fraction(int(num), int(den)))
        return field.of(int(tok))
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, "bad coefficient %r" % tok)


# a comment: '#' at line start or after any whitespace
_COMMENT = re.compile(r"(?:^|\s)#")

# an integer or fraction literal: a coefficient, never part of a label
_NUMBER = re.compile(r"[+-]?\d+(/[+-]?\d+)?")


def _parse_terms(field, text, line_no):
    """'1*A + -2*B' -> list of (coeff, label); '0' -> []."""
    text = text.strip()
    if text == "0":
        return []
    out = []
    for piece in text.split("+"):
        piece = piece.strip()
        if not piece:
            raise ParseError(line_no, "empty term")
        if "*" in piece:
            head, rest = piece.split("*", 1)
            try:
                c = _parse_scalar(field, head, line_no)
            except ParseError:
                # a number the field cannot hold, such as 1/3 over F3
                if _NUMBER.fullmatch(head.strip()):
                    raise
            else:
                out.append((c, rest.strip()))
                continue
        out.append((field.one, piece))
    return out


def _parse_field(tok):
    if tok == "Q":
        return QQ
    if tok.startswith("F") and tok[1:].isdigit():
        return Field(int(tok[1:]))
    raise InputError("field must be Q or Fp, got %r" % tok)


def parse_algebra_text(text, bound=None):
    """Parse an algebra file into an Algebra or TruncatedFreeCDGA.

    A bound given here replaces the one on the file's truncate line (which
    the free form still requires); the algebra form ignores it."""
    lines = text.splitlines()
    kind = name = None
    field = QQ
    basis = []
    unit_label = top_label = None
    product_lines = []
    d_lines = []
    truncate = None
    ended = False
    for ln, raw in enumerate(lines, 1):
        # '#' starts a comment only at line start or after whitespace
        # (names like A#B keep their hash)
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if ended:
            raise ParseError(ln, "content after end")
        toks = line.split()
        head = toks[0]
        if head in ("algebra", "cdga-free"):
            if kind is not None:
                raise ParseError(ln, "duplicate header")
            if len(toks) != 2:
                raise ParseError(ln, "expected: %s NAME" % head)
            kind, name = head, toks[1]
        elif kind is None:
            raise ParseError(ln, "file must start with algebra/cdga-free")
        elif head == "field":
            if len(toks) != 2:
                raise ParseError(ln, "expected: field Q|Fp")
            try:
                field = _parse_field(toks[1])
            except InputError as e:
                raise ParseError(ln, str(e))
        elif head in ("basis", "generator"):
            want = "basis" if kind == "algebra" else "generator"
            if head != want:
                raise ParseError(ln, "%r lines belong to the other form" % head)
            if len(toks) != 4 or toks[2] != "degree":
                raise ParseError(ln, "expected: %s LABEL degree D" % head)
            if not toks[3].lstrip("-").isdigit():
                raise ParseError(ln, "bad degree token %r" % toks[3])
            basis.append((toks[1], int(toks[3])))
        elif head in ("unit", "top"):
            if len(toks) != 2:
                raise ParseError(ln, "expected: %s LABEL" % head)
            if head == "unit":
                unit_label = toks[1]
            else:
                top_label = toks[1]
        elif head == "product":
            if kind != "algebra":
                raise ParseError(ln, "product lines belong to the algebra form")
            if len(toks) < 5 or toks[3] != "=":
                raise ParseError(ln, "expected: product A B = terms")
            product_lines.append((ln, toks[1], toks[2],
                                  line.split("=", 1)[1]))
        elif head == "d":
            if len(toks) < 4 or toks[2] != "=":
                raise ParseError(ln, "expected: d A = terms")
            d_lines.append((ln, toks[1], line.split("=", 1)[1]))
        elif head == "truncate":
            if kind != "cdga-free":
                raise ParseError(ln, "truncate belongs to the free form")
            if len(toks) != 2 or not toks[1].isdigit():
                raise ParseError(ln, "expected: truncate N")
            truncate = int(toks[1])
        elif head == "end":
            ended = True
        else:
            raise ParseError(ln, "unknown directive %r" % head)
    if not ended:
        raise ParseError(len(lines), "missing end")
    if kind == "cdga-free":
        if truncate is None:
            raise ParseError(0, "free form requires truncate N")
        return _build_free(name, field, basis, d_lines,
                           truncate if bound is None else bound)
    return _build_algebra(name, field, basis, unit_label, top_label,
                          product_lines, d_lines)


def _build_algebra(name, field, basis, unit_label, top_label,
                   product_lines, d_lines):
    labels = [lab for lab, _ in basis]
    index = {lab: i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise ParseError(0, "duplicate labels")

    def look(lab, ln):
        if lab not in index:
            raise ParseError(ln, "unknown label %r" % lab)
        return index[lab]

    if unit_label is None:
        raise ParseError(0, "missing unit")
    unit = look(unit_label, 0)
    top = look(top_label, 0) if top_label else None
    products = {}
    for (ln, a, b, rhs) in product_lines:
        el = {}
        for c, lab in _parse_terms(field, rhs, ln):
            vec_iadd(el, {look(lab, ln): c})
        products[(look(a, ln), look(b, ln))] = el
    differential = {}
    for (ln, a, rhs) in d_lines:
        el = {}
        for c, lab in _parse_terms(field, rhs, ln):
            vec_iadd(el, {look(lab, ln): c})
        if el:
            differential[look(a, ln)] = el
    return Algebra(name, field, basis, unit, products,
                   differential=differential or None, top=top)


def _build_free(name, field, gens, d_lines, truncate):
    gen_names = {lab for lab, _ in gens}

    def mono_of(lab, ln):
        # product of generators with optional ^ powers, e.g. x*y^2
        parts = []
        for piece in lab.split("*"):
            if "^" in piece:
                g, k = piece.split("^", 1)
                if not k.isdigit():
                    raise ParseError(ln, "bad power in %r" % piece)
                parts.extend([g] * int(k))
            else:
                parts.append(piece)
        for g in parts:
            if g not in gen_names:
                raise ParseError(ln, "unknown generator %r" % g)
        return tuple(parts)

    d_gens = {}
    for (ln, g, rhs) in d_lines:
        if g not in gen_names:
            raise ParseError(ln, "unknown generator %r" % g)
        terms = []
        for c, lab in _parse_terms(field, rhs, ln):
            terms.append((mono_of(lab, ln), c))
        d_gens[g] = terms
    return TruncatedFreeCDGA(name, field, gens, d_gens, truncate)


# ---------------------------------------------------------------------------
# command plumbing

N_MIN, N_MAX = 2, 4

_KINDS = {"full": gr.FULL, "bar": gr.NODUPTARGET, "j": gr.JFAMILY}

_SUITES = {
    "acyclic-ideal": ("n", reports.check_acyclic_ideal),
    "reduced-embedding": ("n", reports.check_reduced_embedding),
    "collapse": ("n", reports.check_collapse),
    "three-point-sequence": ("", reports.check_three_point_sequence),
    "four-point-corner": ("", reports.check_four_point_corner),
    "duality": ("n", reports.check_duality),
    "anchors": ("none", reports.check_anchors),
    "formal-negative": ("", reports.check_formal_negative),
}

# short aliases kept for compatibility with published invocations
_SUITE_ALIASES = {
    "prop1": "acyclic-ideal",
    "prop3": "reduced-embedding",
    "thm2": "collapse",
    "prop5": "three-point-sequence",
    "prop6": "four-point-corner",
    "thm1": "duality",
}


def _load(args):
    if args.input and args.catalog:
        raise InputError("give --input or --catalog, not both")
    if args.input and args.field:
        raise InputError("--field does not apply to --input: "
                         "the file names its field")
    if args.input:
        with open(args.input) as fh:
            obj = parse_algebra_text(fh.read(), args.truncate)
        if args.truncate is not None and not isinstance(obj, TruncatedFreeCDGA):
            raise InputError("--truncate applies only to a free CDGA "
                             "file (cdga-free)")
        return obj
    if args.catalog:
        field = _parse_field(args.field) if args.field else QQ
        return cat.load(args.catalog, field=field, truncate=args.truncate)
    raise InputError("an algebra is required (--input FILE or --catalog NAME)")


def _check_n(n):
    if n is None:
        raise InputError("--n is required for this command")
    if not (N_MIN <= n <= N_MAX):
        raise InputError("n must be between %d and %d" % (N_MIN, N_MAX))
    return n


def _check_qmax(qmax):
    if qmax is not None and qmax < 0:
        raise InputError("--qmax must be at least 0, got %d" % qmax)
    return qmax


def _emit(payload, args, duration):
    if args.format == "json":
        payload = dict(payload)
        payload.setdefault("duration_ms", 0)  # fixed: outputs must be stable
        print(json.dumps(payload, sort_keys=True, default=str))
    else:
        _print_table(payload)
        print("duration: %d ms" % int(duration * 1000))


def _print_table(payload, indent=0):
    pad = "  " * indent
    for k in payload:
        v = payload[k]
        if isinstance(v, dict):
            print("%s%s:" % (pad, k))
            _print_table(v, indent + 1)
        elif isinstance(v, list) and v and isinstance(v[0], dict):
            print("%s%s:" % (pad, k))
            for item in v:
                print("%s  - %s" % (pad, json.dumps(item, default=str)))
        else:
            print("%s%s: %s" % (pad, k, v))


def _resolve_class(H, token):
    for lab in (token, "[%s]" % token):
        if lab in H.labels:
            return H.element(lab)
    raise InputError("unknown class %r (have: %s)"
                     % (token, ", ".join(H.labels)))


def _cohomology_of(obj):
    """Cohomology with representatives of a loaded algebra; one that
    already keeps representatives is returned as it is.  A truncated model
    is taken up to its declared formal dimension, else below its bound."""
    if hasattr(obj, "representatives"):
        return obj
    if isinstance(obj, TruncatedFreeCDGA):
        return cohomology(obj, getattr(obj, "formal_dimension",
                                       obj.bound - 1))
    return cohomology(obj, max(obj.degrees))


def _tensor_to_labels(H, t):
    return {"%s (x) %s" % (H.labels[i], H.labels[j]): str(c)
            for (i, j), c in sorted(t.items())}


# ---------------------------------------------------------------------------
# commands

def cmd_pages(args):
    if args.page is not None and args.page < 1:
        raise InputError("--page must be at least 1, got %d" % args.page)
    qmax = _check_qmax(args.qmax)
    obj = _load(args)
    n = _check_n(args.n)
    bc = build_AG(obj, n, _KINDS[args.kind], qmax=qmax)
    ss = SpectralSequence(bc)
    rmax = bc.pmax + 1 if args.page is None else args.page
    # a window determines the blocks of total degree below it
    inside = [pq for pq in sorted(bc.blocks) if qmax is None or sum(pq) < qmax]
    pages = {}
    for r in range(1, rmax + 1):
        pages["E%d" % r] = {"(%d,%d)" % pq: d
                            for pq, d in ss.page(r, inside).items() if d}
    payload = {"command": "pages", "algebra": obj.name, "n": n,
               "kind": args.kind, "pages": pages}
    return payload, 0


def cmd_ct_e2(args):
    obj = _load(args)
    n = _check_n(args.n)
    if isinstance(obj, TruncatedFreeCDGA) or obj.has_differential:
        raise InputError("the tensor-power complex needs a formal algebra "
                         "(use its cohomology)")
    ct = CTComplex(obj, n)
    e2 = ct.e2_dims()
    by_deg = reports.e2_by_degree(e2, ct.m)
    payload = {"command": "ct-e2", "algebra": obj.name, "n": n,
               "blocks": {"(%d,%d)" % k: d for k, d in sorted(e2.items()) if d},
               "total_by_degree": {str(k): d for k, d in sorted(by_deg.items())}}
    return payload, 0


def cmd_total(args):
    qmax = _check_qmax(args.qmax)
    obj = _load(args)
    n = _check_n(args.n)
    if args.kind == "c":
        bc = build_C(obj, n, qmax=qmax)
    else:
        bc = build_AG(obj, n, _KINDS[args.kind], qmax=qmax)
    # a window determines the degrees below it
    ks = [p + q for (p, q) in bc.blocks if qmax is None or p + q < qmax]
    h = total_cohomology(bc, min(ks), max(ks)) if ks else {}
    payload = {"command": "total", "algebra": obj.name, "n": n,
               "kind": args.kind,
               "cohomology": {str(k): d for k, d in sorted(h.items()) if d}}
    return payload, 0


def cmd_check(args):
    suite = _SUITE_ALIASES.get(args.suite, args.suite)
    if suite not in _SUITES:
        raise InputError("unknown suite %r (have: %s)"
                         % (args.suite, ", ".join(sorted(_SUITES))))
    arity, fn = _SUITES[suite]
    # options a suite does not read are refused, not silently ignored
    unread = []
    if arity == "none":
        unread = ["--%s" % o for o in ("input", "catalog", "field", "truncate")
                  if getattr(args, o) is not None]
    if arity != "n" and args.n is not None:
        unread.append("--n")
    if unread:
        raise InputError("%s does not apply to check %s"
                         % (", ".join(unread), args.suite))
    if arity == "none":
        report = fn()
    else:
        obj = _load(args)
        if arity == "n":
            report = fn(obj, _check_n(args.n))
        else:
            report = fn(obj)
    code = 0 if report["verdict"] == "pass" else 1
    return report, code


def cmd_massey(args):
    obj = _load(args)
    if len(args.classes) != 3:
        raise InputError("massey takes exactly three class labels")
    H = _cohomology_of(obj)
    a, b, c = (_resolve_class(H, t) for t in args.classes)
    try:
        res = triple_massey(H, a, b, c)
    except NotDefined as e:
        return {"command": "massey", "algebra": obj.name,
                "classes": args.classes, "defined": False,
                "reason": str(e)}, 1
    payload = {
        "command": "massey", "algebra": obj.name, "classes": args.classes,
        "defined": True,
        "representative": format_element(H.ambient, res.rep),
        "class": format_element(H, res.class_el),
        "class_modulo_indeterminacy":
            format_element(H, res.class_modulo_indeterminacy()),
        "indeterminacy_dim": res.indeterminacy_dim,
        "residual": {str(k): str(v) for k, v in sorted(res.residual().items())},
    }
    return payload, 0


def cmd_d2(args):
    obj = _load(args)
    n = _check_n(args.n)
    if n != 4:
        raise InputError("the second-page differential command needs --n 4")
    if len(args.classes) != 4:
        raise InputError("d2 takes exactly four class labels")
    H = _cohomology_of(obj)
    cls = [_resolve_class(H, t) for t in args.classes]
    qtot = sum(el_degree(H, u) for u in cls)
    bc = build_C(H.ambient, 4, qmax=qtot)
    try:
        tensors = d2_formula(H, *cls)
    except NotDefined as e:
        return {"command": "d2", "algebra": obj.name,
                "classes": args.classes, "defined": False,
                "reason": str(e)}, 1
    zz, fcls = d2_certificate(bc, quadruple_tensor(bc, H, *cls),
                              corner_element(bc, H, tensors))

    def res_key(k):
        if k[0] == "kq":
            return "1 (x) Q%d" % k[1]
        return "Q%d (x) Q%d" % (k[1], k[2])

    residuals = {name: {res_key(k): str(v) for k, v in
                        sorted(obstruction_residual(H, t).items())}
                 for name, t in tensors.items() if t}
    verdict = ("nonzero in E2^{2,*}" if zz else "zero in E2^{2,*}")
    payload = {
        "command": "d2", "algebra": obj.name, "classes": args.classes,
        "defined": True,
        "e23e24_component": _tensor_to_labels(H, tensors["e2324"]),
        "e23e34_component": _tensor_to_labels(H, tensors["e2334"]),
        "residuals": residuals,
        "zigzag_cross_validation": "agree" if zz == fcls else "DISAGREE",
        "verdict": verdict,
    }
    return payload, 0 if zz == fcls else 1


def cmd_catalog(args):
    return {"command": "catalog", "names": cat.names()}, 0


# ---------------------------------------------------------------------------

@functools.cache  # built once per process: a parse keeps no state on it
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="confspace",
        description="configuration-space bicomplex workbench")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, run, algebra=True, n=True, qmax=False):
        # each command registers only the options it reads
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        if algebra:
            p.add_argument("--input", help="algebra file")
            p.add_argument("--catalog", help="catalog algebra name")
            p.add_argument("--field", help="Q or Fp (catalog algebras)")
            p.add_argument("--truncate", type=int,
                           help="bound of a truncated free model")
        if n:
            p.add_argument("--n", type=int, help="number of points")
        if qmax:
            p.add_argument("--qmax", type=int,
                           help="internal degree window; only the total "
                                "degrees below it are reported")
        p.add_argument("--format", choices=("table", "json"), default="table")
        return p

    pages = command("pages", cmd_pages, qmax=True)
    pages.add_argument("--page", type=int, help="last page to show")
    pages.add_argument("--kind", choices=("full", "bar", "j"), default="bar")
    command("ct-e2", cmd_ct_e2)
    command("total", cmd_total, qmax=True).add_argument(
        "--kind", choices=("full", "bar", "j", "c"), default="bar")
    command("check", cmd_check).add_argument("suite", help="suite name")
    command("massey", cmd_massey, n=False).add_argument(
        "classes", nargs="*", help="class labels")
    command("d2", cmd_d2).add_argument(
        "classes", nargs="*", help="class labels")
    command("catalog", cmd_catalog, algebra=False, n=False)
    return ap


def main(argv=None):
    args = _build_parser().parse_args(argv)
    t0 = time.time()
    try:
        payload, code = args.run(args)
    except (ValueError, cat.CatalogError, AxiomViolation,
            Overflow, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    _emit(payload, args, time.time() - t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
