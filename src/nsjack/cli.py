"""Command-line front end: verification drivers with JSON and text output.

Exit codes: 0 on success, 1 on a mathematical verification failure (any
failed check, caught once in ``main``: the emitted document carries the
evidence), 2 on usage errors, which include bad family parameters, malformed
integer lists or kappa values, contents of no tableau, tableau entries that
are not integers, a declared shape that is not a partition, unreadable input
files, an unwritable output file, operator parameters out of range (an index
outside 1..n, kappa = 0 for U'_i) and an input polynomial with a pole at the
requested kappa; these print one line on standard error.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .combinatorics import (
    BadShapeParams,
    ColumnStrictTableau,
    NoSuchTableau,
    Rsyt,
    is_partition,
    max_inv_source,
    rsyt_from_contents,
)
from .jack import ZeroDenominator, construct_jack, specialize
from .operators import cherednik, cherednik_prime, dunkl, jucys_murphy
from .ratfunc import PoleAtKappa, RatFunc, format_rational, parse_rational
from .singular import (
    NotIsotypic,
    alpha_variants,
    brick_map,
    closure_check,
    example_n5,
    family_context,
    mu_commutation_check,
    norms_and_gamma,
    singular_family,
    uniqueness_oracle,
)
from .vectorpoly import VectorPoly

if TYPE_CHECKING:
    import argparse


class UsageError(ValueError):
    """Malformed command-line input (exit code 2)."""


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise UsageError(f"{path} is not JSON: {exc}") from None


def _load_tableau(path):
    rows = _read_json(path)
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(type(v) is int for v in row) for row in rows
    ):
        raise UsageError(f"{path} holds no tableau: expected rows of integers")
    try:
        return Rsyt(rows)
    except ValueError:
        pass
    try:
        return ColumnStrictTableau(rows)
    except ValueError as exc:
        raise UsageError(f"{path} holds no tableau: {exc}") from None


def _parse_ints(text) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _parse_kappa(text) -> Fraction:
    try:
        return parse_rational(text)
    except ZeroDivisionError:
        raise UsageError(f"bad kappa {text!r}: zero denominator") from None
    except ValueError as exc:
        raise UsageError(f"bad kappa {text!r}: {exc}") from None


# -- subcommand handlers: return (exit_code, document, text) --------------------


def _cmd_singular_verify(args):
    cert = singular_family(family_context(args.m, args.k, args.n))
    doc = cert.to_json()
    doc["verified"] = True
    lines = [
        f"singular family m={cert.m} k={cert.k} n={cert.n} "
        f"kappa={format_rational(cert.kappa0)}: "
        f"{len(cert.members)} members verified"
    ]
    for record in cert.members:
        lines.append("")
        lines.append(str(Rsyt(record["source"])))
        lines.append(f"  beta   = {tuple(record['beta'])}")
        lines.append(f"  gamma  = {record['gamma']}")
        lines.append(f"  zeta   = {record['spectral']}")
    return 0, doc, "\n".join(lines)


def _cmd_brickmap(args):
    source = _load_tableau(args.tableau_json)
    pair = brick_map(source, args.m)
    doc = {
        "beta": list(pair.beta),
        "tableau": [list(r) for r in pair.tableau.rows],
    }
    return 0, doc, f"beta = {pair.beta}\n{pair.tableau}"


def _cmd_uniq_check(args):
    top = brick_map(max_inv_source(args.m, args.k), args.m)
    kappa0 = Fraction(1, args.m + 2)
    if args.s is None:
        if args.variant is not None:
            raise UsageError("--variant selects a swapped label and needs --s")
        beta = top.beta
        doc_extra = {}
    else:
        variants = alpha_variants(args.m, args.k, args.s)
        name = f"variant{args.variant or 1}"
        beta = getattr(variants, name)
        doc_extra = {
            "window": list(variants.window(beta)),
            "spectral_window": [
                format_rational(v) for v in variants.spectral_window(name)
            ],
        }
    report = uniqueness_oracle(beta, top.tableau, kappa0)
    doc = report.to_json()
    doc.update(doc_extra)
    verdict = "Unique" if report.unique else f"{len(report.collisions)} collisions"
    text = (
        f"label beta={beta}\n"
        f"kappa = {format_rational(kappa0)}\n"
        f"enumeration size = {report.enumeration_size}\n"
        f"verdict: {verdict}"
    )
    return (0 if report.unique else 1), doc, text


def _cmd_norms(args):
    report = norms_and_gamma(args.m, args.k)
    doc = report.to_json()
    lines = [
        f"norms m={args.m} k={args.k}: recursion cross-checked on "
        f"{report.steps_checked} permissible steps"
    ]
    for member in doc["members"]:
        lines.append(
            f"  norm^2 = {member['norm_squared']:>10}  gamma = "
            f"{member['gamma']:>10}   source {member['source']}"
        )
    return 0, doc, "\n".join(lines)


def _cmd_mu_verify(args):
    report = mu_commutation_check(family_context(args.m, args.k))
    doc = report.to_json()
    text = (
        f"module map m={args.m} k={args.k} kappa={doc['kappa']}: commutes in "
        f"every degree, from {report.dunkl_images} zero Dunkl images and "
        f"{report.transports} transports"
    )
    return 0, doc, text


def _cmd_example_n5(args):
    report = example_n5()
    doc = report.to_json()
    text = (
        "five-variable hook example at kappa = 1/2\n"
        f"  shared spectral vector: {doc['shared_spectral_vector']}\n"
        f"  first label is a sum of {report.monomial_count} monomials\n"
        f"  neither label singular alone: {report.neither_singular}\n"
        f"  combination singular and invariant: "
        f"{report.combination_singular and report.combination_invariant}"
    )
    return 0, doc, text


def _cmd_closure(args):
    report = closure_check(family_context(args.m, args.k, args.n))
    doc = report.to_json()
    text = (
        f"closure m={args.m} k={args.k}: cases {doc['case_counts']}, "
        f"{len(report.hinge_labels)} hinge labels certified pole-free"
    )
    return 0, doc, text


def _cmd_jack_construct(args):
    alpha = _parse_ints(args.alpha)
    tableau = rsyt_from_contents(_parse_ints(args.tableau_contents))
    if len(alpha) != tableau.n:
        raise UsageError(
            f"label has {len(alpha)} exponents, the tableau {tableau.n} entries"
        )
    if min(alpha) < 0:
        raise UsageError(f"exponents must be nonnegative, got {args.alpha!r}")
    kappa0 = None if args.kappa is None else _parse_kappa(args.kappa)
    jack = construct_jack(alpha, tableau)
    doc = {
        "alpha": list(alpha),
        "tableau": [list(r) for r in tableau.rows],
        "spectral": [z.to_json() for z in jack.spectral],
        "polynomial": jack.poly.to_json(),
        "monomials": jack.monomial_count(),
    }
    lines = [
        f"label alpha={alpha}",
        str(tableau),
        f"{len(jack.poly.terms)} terms over {jack.monomial_count()} monomials",
    ]
    if kappa0 is not None:
        doc["kappa"] = format_rational(kappa0)
        try:
            spec = specialize(jack, kappa0)
            doc["specialized"] = spec.to_json()
            lines.append(f"specialized at kappa = {doc['kappa']}: no pole")
        except PoleAtKappa as exc:
            doc["pole"] = True
            doc["offending_exponents"] = [list(e) for e in exc.exponents]
            lines.append(
                f"pole at kappa = {doc['kappa']}; offending exponents "
                f"{doc['offending_exponents']}"
            )
    return 0, doc, "\n".join(lines)


_OPERATORS = {
    "dunkl": dunkl,
    "cherednik": cherednik,
    "cherednik-prime": cherednik_prime,
    "jucys-murphy": lambda i, p, kappa=None: jucys_murphy(i, p),
}


def _cmd_apply_operator(args):
    doc_in = _read_json(args.input)
    shape = None
    if isinstance(doc_in, dict) and "shape" in doc_in:
        shape = doc_in["shape"]
        if not (
            isinstance(shape, list)
            and all(type(part) is int for part in shape)
            and is_partition(shape)
        ):
            raise UsageError(
                f"{args.input} declares shape {json.dumps(shape)}, not a partition"
            )
        shape = tuple(shape)
    try:
        poly = VectorPoly.from_json(doc_in["poly"], shape=shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{args.input} holds no polynomial: {exc!r}") from None
    if not 1 <= args.index <= poly.n:
        raise UsageError(f"index {args.index} outside 1..{poly.n}")
    kappa = _parse_kappa(args.kappa) if args.kappa is not None else None
    if kappa is not None:
        try:
            poly = poly.map_coefficients(
                lambda c: c.evaluate(kappa) if isinstance(c, RatFunc) else c
            )
        except PoleAtKappa as exc:
            raise UsageError(f"{args.input} has a coefficient with a {exc}") from None
    try:
        result = _OPERATORS[args.op](args.index, poly, kappa)
    except ValueError as exc:  # a parameter the operator rejects: kappa = 0 for U'_i
        raise UsageError(str(exc)) from None
    doc = {"op": args.op, "index": args.index, "result": result.to_json()}
    if args.kappa is not None:
        doc["kappa"] = format_rational(kappa)
    return 0, doc, json.dumps(doc["result"], indent=2)


# -- parser ----------------------------------------------------------------------


def _writable(path) -> bool:
    """An existing file must be writable; a new one needs a writable directory."""
    if os.path.exists(path):
        return not os.path.isdir(path) and os.access(path, os.W_OK)
    folder = os.path.dirname(path) or "."
    return os.path.isdir(folder) and os.access(folder, os.W_OK)


def build_parser() -> argparse.ArgumentParser:
    # argparse (and gettext with it) loads only when a parser is built, so
    # importing nsjack.cli as a library does not pay for it
    import argparse

    parser = argparse.ArgumentParser(
        prog="nsjack",
        description=(
            "Exact nonsymmetric Jack polynomials with values in tableau "
            "modules, and verification of their singular families"
        ),
    )
    parser.add_argument("--output", metavar="FILE", help="write the document here")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    singular = sub.add_parser("singular", help="singular family verification")
    ssub = singular.add_subparsers(dest="subcommand", required=True)
    verify = ssub.add_parser("verify", help="construct and certify the family")
    verify.add_argument("--m", type=int, required=True)
    verify.add_argument("--k", type=int, required=True)
    verify.add_argument("--n", type=int, default=1)
    verify.set_defaults(handler=_cmd_singular_verify)

    brickmap_p = sub.add_parser("brickmap", help="map a two-row tableau to its label")
    brickmap_p.add_argument("--tableau-json", required=True, metavar="FILE")
    brickmap_p.add_argument("--m", type=int, required=True, help="brick width")
    brickmap_p.set_defaults(handler=_cmd_brickmap)

    uniq = sub.add_parser("uniq", help="spectral-vector uniqueness oracles")
    usub = uniq.add_subparsers(dest="subcommand", required=True)
    check = usub.add_parser("check")
    check.add_argument("--m", type=int, required=True)
    check.add_argument("--k", type=int, required=True)
    check.add_argument("--s", type=int, default=None)
    check.add_argument("--variant", type=int, choices=(1, 2), help="needs --s")
    check.set_defaults(handler=_cmd_uniq_check)

    norms = sub.add_parser("norms", help="norms and gamma factors")
    norms.add_argument("--m", type=int, required=True)
    norms.add_argument("--k", type=int, required=True)
    norms.set_defaults(handler=_cmd_norms)

    mu = sub.add_parser("mu", help="module map checks")
    msub = mu.add_subparsers(dest="subcommand", required=True)
    mverify = msub.add_parser("verify")
    mverify.add_argument("--m", type=int, required=True)
    mverify.add_argument("--k", type=int, required=True)
    mverify.set_defaults(handler=_cmd_mu_verify)

    example = sub.add_parser("example", help="worked examples")
    esub = example.add_subparsers(dest="subcommand", required=True)
    n5 = esub.add_parser("n5")
    n5.set_defaults(handler=_cmd_example_n5)

    closure = sub.add_parser("closure", help="family span closure under reflections")
    closure.add_argument("--m", type=int, required=True)
    closure.add_argument("--k", type=int, required=True)
    closure.add_argument("--n", type=int, default=1)
    closure.set_defaults(handler=_cmd_closure)

    jack = sub.add_parser("jack", help="construct one Jack polynomial")
    jsub = jack.add_subparsers(dest="subcommand", required=True)
    construct = jsub.add_parser("construct")
    construct.add_argument("--alpha", required=True, help="comma-separated exponents")
    construct.add_argument(
        "--tableau-contents", required=True, help="comma-separated content vector"
    )
    construct.add_argument("--kappa", default=None, help='rational "p/q"')
    construct.set_defaults(handler=_cmd_jack_construct)

    apply_op = sub.add_parser("apply-operator", help="apply one operator (debugging)")
    apply_op.add_argument("--op", choices=sorted(_OPERATORS), required=True)
    apply_op.add_argument("--index", type=int, required=True)
    apply_op.add_argument("--input", required=True, metavar="FILE")
    apply_op.add_argument("--kappa", default=None, help='rational "p/q"')
    apply_op.set_defaults(handler=_cmd_apply_operator)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.output and not _writable(args.output):
            raise UsageError(f"cannot write {args.output}")
        code, doc, text = args.handler(args)
    except (UsageError, BadShapeParams, NoSuchTableau) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, NotIsotypic, PoleAtKappa, ZeroDenominator) as exc:
        # every check in the library raises one of these on a failure
        code, doc, text = 1, {"verified": False, "error": str(exc)}, f"FAILED: {exc}"
    rendered = json.dumps(doc, indent=2) if args.format == "json" else text
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(rendered + "\n")
    else:
        try:
            print(rendered, flush=True)
        except BrokenPipeError:  # the reader left early; keep the exit flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
