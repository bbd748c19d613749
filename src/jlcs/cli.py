"""Batch command line frontend.

Verbs: sums (single exponential-sum values), verify (identity sweeps),
char (theta value tables, closed form versus direct sums), jl (transfer
relation sweeps), epsilon (local constants), csa (algebra selftest).

Reports are JSON lines (or CSV with --format csv, flattening exact
values to their complex embedding); given the same configuration and
seed, two runs emit identical bytes.  Exit codes: 0 all checks passed,
1 a mathematical verification failed (a failed report or an
IdentityFailure), 2 usage or validation error (including an unwritable
--out), 3 budget or precision abort, 4 an internal error (an
InvariantError or any unexpected exception; the traceback goes to
stderr).

Each command is parsed by its own subcommand parser, reached by a walk
by exact names; the full-tree parse is the tests' oracle for the walk,
and reports any tokens that parser leaves over.
"""

from __future__ import annotations

import argparse
import contextlib
import csv as csv_mod
import functools
import io
import sys
import traceback

from . import csa, expsum, ff, ssc
from . import locfield as lf
from ._util import json_line, stable_rng
from .chars import AddChar, MultChar
from .cyc import CycElem, ring_for
from .errors import (BudgetExceeded, DomainError, IdentityFailure,
                     PrecisionError, ValidationError)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision", type=int, default=lf.DEFAULT_PREC,
                        help="working absolute precision for series")
    common.add_argument("--budget", type=int, default=expsum.DEFAULT_BUDGET,
                        help="enumeration budget; larger sums abort")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for any sampled elements")
    return common


def _field_flags(sub, m_r=False, n=False, ell=False):
    sub.add_argument("--p", type=int, required=True, help="residue characteristic")
    sub.add_argument("--f", type=int, required=True, help="q = p**f")
    if m_r:
        sub.add_argument("--m", type=int, required=True, help="matrix size")
        sub.add_argument("--r", type=int, required=True,
                         help="degree of the division algebra")
        sub.add_argument("--s", type=int, default=None, help="Hasse twist")
    if n:
        sub.add_argument("--n", type=int, required=True, help="degree")
    if ell:
        sub.add_argument("--l", type=int, required=True,
                         help="tuple length / extension degree")


def _eta_flags(sub):
    sub.add_argument("--zeta", type=int, default=0,
                     help="dlog of the Teichmuller parameter zeta")
    sub.add_argument("--chi", type=int, default=1,
                     help="exponent of the residue character chi")
    sub.add_argument("--c-order", type=int, default=1)
    sub.add_argument("--c-power", type=int, default=0)
    sub.add_argument("--psi-twist", type=int, default=0,
                     help="dlog of the additive twist")


def _parser() -> argparse.ArgumentParser:
    """The top of the argument tree.  Each command is parsed by its own
    subcommand parser after a walk by exact names (_parse); the full-tree
    parse_args here is the tests' oracle for that walk."""
    return _tree()[0]


@functools.cache
def _tree():
    """The argument tree, built once per process, and each parser's
    (dest, name -> subparser) map: parsing leaves both unchanged, so every
    main call can share them."""
    common = _common_flags()
    top = argparse.ArgumentParser(prog="jlcs")
    verbs = top.add_subparsers(dest="verb", required=True)

    sums = verbs.add_parser("sums", help="evaluate one exponential sum")
    kinds = sums.add_subparsers(dest="sum_kind", required=True)
    g = kinds.add_parser("gauss", parents=[common])
    _field_flags(g)
    g.add_argument("--chi", type=int, default=1)
    g.add_argument("--psi-twist", type=int, default=0)
    rg = kinds.add_parser("restricted-gauss", parents=[common])
    _field_flags(rg, n=True)
    rg.add_argument("--chi", type=int, default=1)
    rg.add_argument("--psi-twist", type=int, default=0)
    rg.add_argument("--a-dlog", type=int, default=0)
    rg.add_argument("--a-zero", action="store_true",
                    help="evaluate at a = 0 instead of --a-dlog")
    kl = kinds.add_parser("kloosterman", parents=[common])
    _field_flags(kl, ell=True)
    kl.add_argument("--a-dlog", type=int, default=0)
    kl.add_argument("--psi-twist", type=int, default=0)
    nf = kinds.add_parser("norm-fiber", parents=[common])
    _field_flags(nf, ell=True)
    nf.add_argument("--lambda-dlog", type=int, default=0)
    nf.add_argument("--psi-twist", type=int, default=0)

    verify = verbs.add_parser("verify", help="run an identity sweep")
    checks = verify.add_subparsers(dest="check", required=True)
    d716 = checks.add_parser("d716", parents=[common])
    _field_flags(d716, n=True)
    d716.add_argument("--chi", type=int, default=None,
                      help="restrict to one character exponent")
    d716.add_argument("--psi-twist", type=int, default=0)
    d725 = checks.add_parser("d725", parents=[common])
    _field_flags(d725)
    d725.add_argument("--m", type=int, required=True)
    d725.add_argument("--r", type=int, required=True)
    d725.add_argument("--lambda-dlog", type=int, default=None,
                      help="restrict to one lambda")
    d725.add_argument("--psi-twist", type=int, default=0)
    fou = checks.add_parser("fourier", parents=[common])
    _field_flags(fou, n=True)
    fou.add_argument("--chi", type=int, default=None)
    fou.add_argument("--psi-twist", type=int, default=0)
    sep = checks.add_parser("separation", parents=[common])
    _field_flags(sep, n=True)
    sep.add_argument("--aprime-dlog", type=int, default=None,
                     help="restrict to one ratio")
    sep.add_argument("--psi-twist", type=int, default=0)

    char = verbs.add_parser("char", parents=[common],
                            help="theta values, closed form vs direct sums")
    _field_flags(char, m_r=True)
    _eta_flags(char)
    char.add_argument("--all-lambda", action="store_true")
    char.add_argument("--lambda-dlog", type=int, default=None)
    char.add_argument("--samples", type=int, default=3,
                      help="seeded random u matrices for the g_u family")
    char.add_argument("--deep", action="store_true",
                      help="add conjugation-orbit rows for the unipotent family")

    jl = verbs.add_parser("jl", help="transfer relation checks")
    jl_sub = jl.add_subparsers(dest="jl_cmd", required=True)
    jlv = jl_sub.add_parser("verify", parents=[common])
    _field_flags(jlv, m_r=True)
    _eta_flags(jlv)
    jlv.add_argument("--all-lambda", action="store_true")
    jlv.add_argument("--lambda-dlog", type=int, default=None)
    jlv.add_argument("--samples", type=int, default=3)

    eps = verbs.add_parser("epsilon", parents=[common],
                           help="local constants of the parameter")
    _field_flags(eps, m_r=True)
    _eta_flags(eps)
    eps.add_argument("--twist-unit", type=int, default=0,
                     help="exponent of the tame twist on units")
    eps.add_argument("--twist-varpi-order", type=int, default=1)
    eps.add_argument("--twist-varpi-power", type=int, default=0)

    csa_verb = verbs.add_parser("csa", help="algebra invariants")
    csa_sub = csa_verb.add_subparsers(dest="csa_cmd", required=True)
    st = csa_sub.add_parser("selftest", parents=[common])
    _field_flags(st, m_r=True)

    subs = [(top, verbs), (sums, kinds), (verify, checks), (jl, jl_sub),
            (csa_verb, csa_sub)]
    return top, {p: (sub.dest, sub.choices) for p, sub in subs}


def _parse(argv) -> argparse.Namespace:
    """_parser().parse_args(argv) in one parse: step into the subparser
    while the next token is exactly one of its names, then parse the rest
    with the parser reached.  Only the error on leftover tokens differs:
    the parser reached reports them, with its own usage line."""
    top, commands = _tree()
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, namespace, i = top, argparse.Namespace(), 0
    for token in argv:
        dest, names = commands.get(parser, (None, {}))
        if token not in names:
            break
        setattr(namespace, dest, token)
        parser, i = names[token], i + 1
    return parser.parse_args(argv[i:], namespace)


# ---------------------------------------------------------------------------
# report plumbing


def _display(value: CycElem) -> str:
    """Human-readable rendering; integers print as integers."""
    coeffs = list(value.coeffs)
    if not any(coeffs[1:]):
        return str(coeffs[0] if coeffs else 0)
    parts = []
    for i, c in enumerate(coeffs):
        if c:
            parts.append(f"{c}" if i == 0 else f"{c}*z{value.ring.M}^{i}")
    return " + ".join(parts)


def _header(args, subcommand: str, parameters: dict) -> dict:
    return {
        "kind": "run_header",
        "tool": "jlcs",
        "subcommand": subcommand,
        "parameters": parameters,
        "precision": args.precision,
        "budget": args.budget,
        "seed": args.seed,
    }


def _summary(records) -> dict:
    checked = [r for r in records if "equal" in r or "match" in r or "ok" in r]
    failures = sum(1 for r in checked
                   if not r.get("equal", r.get("match", r.get("ok"))))
    return {"kind": "summary", "checks": len(checked),
            "failures": failures, "ok": failures == 0}


def _flatten(record: dict, prefix: str = "") -> dict:
    """Dotted-key flattening for CSV; exact values become complex strings."""
    flat = {}
    for key, value in record.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            if "approx" in value:
                flat[name] = str(complex(*value["approx"]))
            else:
                flat.update(_flatten(value, name + "."))
        elif isinstance(value, list):
            flat[name] = ";".join(str(v) for v in value)
        else:
            flat[name] = value
    return flat


def _emit(records, args, stream) -> None:
    if args.format == "json":
        text = "".join(json_line(r) + "\n" for r in records)
    else:
        rows = [_flatten(r) for r in records]
        columns = sorted({key for row in rows for key in row})
        buf = io.StringIO()
        writer = csv_mod.DictWriter(buf, fieldnames=columns,
                                    restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    stream.write(text)


# ---------------------------------------------------------------------------
# verb implementations: each returns (records, ok)


def _setup_chars(args, chi_j=None):
    k = ff.make_field(args.p, args.f)
    ring = ring_for(args.p, k.order)
    psi = AddChar(k, k.from_dlog(getattr(args, "psi_twist", 0)), ring)
    chi = None if chi_j is None else MultChar(k, chi_j, ring)
    return k, ring, psi, chi


def _run_sums(args):
    if args.sum_kind == "gauss":
        k, ring, psi, chi = _setup_chars(args, args.chi)
        value = expsum.gauss_sum(chi, psi)
        params = {"q": k.size, "chi_exponent": chi.j,
                  "psi_twist_dlog": ff.dlog(psi.twist)}
    elif args.sum_kind == "restricted-gauss":
        k, ring, psi, chi = _setup_chars(args, args.chi)
        a = k.zero() if args.a_zero else k.from_dlog(args.a_dlog)
        value = expsum.restricted_gauss(args.n, chi, psi, a)
        params = {"q": k.size, "n": args.n, "chi_exponent": chi.j,
                  "a_dlog": None if a.is_zero() else ff.dlog(a),
                  "psi_twist_dlog": ff.dlog(psi.twist)}
    elif args.sum_kind == "kloosterman":
        k, ring, psi, _ = _setup_chars(args)
        a = k.from_dlog(args.a_dlog)
        value = expsum.kloosterman(k, args.l, a, psi, args.budget)
        params = {"q": k.size, "l": args.l, "a_dlog": ff.dlog(a),
                  "psi_twist_dlog": ff.dlog(psi.twist)}
    else:
        k, ring, psi, _ = _setup_chars(args)
        ext = ff.make_extension(k, args.l)
        lam = k.from_dlog(args.lambda_dlog)
        value = expsum.kloosterman(ext, 1, lam, psi, args.budget)
        params = {"q": k.size, "l": args.l, "lambda_dlog": ff.dlog(lam),
                  "psi_twist_dlog": ff.dlog(psi.twist)}
    record = {"kind": args.sum_kind, "parameters": params,
              "value": value.to_json(), "display": _display(value)}
    return [record], True


def _run_verify(args):
    records = []
    if args.check == "d716":
        k, ring, psi, _ = _setup_chars(args)
        exponents = range(k.order) if args.chi is None else [args.chi]
        for j in exponents:
            chi = MultChar(k, j, ring)
            records.append(
                expsum.check_identity_716(args.n, chi, psi,
                                          args.budget).to_json())
    elif args.check == "d725":
        k, ring, psi, _ = _setup_chars(args)
        dlogs = (range(k.order) if args.lambda_dlog is None
                 else [args.lambda_dlog])
        for t in dlogs:
            records.append(
                expsum.check_identity_725(args.m, args.r, k.from_dlog(t),
                                          psi, args.budget).to_json())
    elif args.check == "fourier":
        k, ring, psi, _ = _setup_chars(args)
        exponents = range(k.order) if args.chi is None else [args.chi]
        for j in exponents:
            chi = MultChar(k, j, ring)
            witness = expsum.gn_nonzero_witness(args.n, chi, psi,
                                                args.budget)
            records.append({
                "kind": "gn_nonzero",
                "parameters": {"q": k.size, "n": args.n,
                               "chi_exponent": chi.j},
                "witness_dlog": (None if witness is None or witness.is_zero()
                                 else ff.dlog(witness)),
                "ok": witness is not None,
            })
            records.append(expsum.fourier_inversion_check(
                args.n, chi, psi, args.budget).to_json())
    else:  # separation
        k, ring, psi, _ = _setup_chars(args)
        if k.order < 2:
            raise ValidationError(
                f"F_{k.size} has no ratio a' outside zero and one")
        dlogs = (range(1, k.order) if args.aprime_dlog is None
                 else [args.aprime_dlog])
        aprimes = [k.from_dlog(t) for t in dlogs]
        witnesses = expsum.separation_witnesses(args.n, psi, aprimes,
                                                args.budget)
        for aprime, witness in zip(aprimes, witnesses):
            records.append({
                "kind": "separation",
                "parameters": {"q": k.size, "n": args.n,
                               "aprime_dlog": ff.dlog(aprime)},
                "witness_dlog": None if witness is None else ff.dlog(witness),
                "ok": witness is not None,
            })
    records.append(_summary(records))
    return records, records[-1]["ok"]


def _build_param(args, extra_orders=()):
    c = ssc.CUnit(order=args.c_order, power=args.c_power)
    return ssc.make_param(args.p, args.f, args.m, args.r, args.s,
                          zeta_dlog=args.zeta, chi_j=args.chi, c=c,
                          psi_twist_dlog=args.psi_twist,
                          extra_orders=extra_orders)


def _pick_lambdas(args, k):
    if args.all_lambda:
        return ff.enumerate_mu(k, k.order)
    if args.lambda_dlog is not None:
        return [k.from_dlog(args.lambda_dlog)]
    return [k.one()]


def _sample_us(eta, args):
    if args.samples < 0:
        raise ValidationError(
            f"the sample count must be nonnegative, got {args.samples}")
    rng = stable_rng(args.seed, "cli-u-samples", args.p, args.f, args.m,
                     args.r, args.s or 0)
    us = [eta.alg.zero()]
    us += [eta.alg.random_in_order(rng, args.precision)
           for _ in range(args.samples)]
    return us


def _run_char(args):
    eta = _build_param(args)
    lambdas = _pick_lambdas(args, eta.k)
    us = _sample_us(eta, args)
    rows = ssc.char_table(eta, us=us, lambdas=lambdas, deep=args.deep,
                          budget=args.budget)
    records = [_header(args, "char", eta.to_json())]
    records += [row.to_json() for row in rows]
    records.append(_summary(records))
    return records, records[-1]["ok"]


def _run_jl(args):
    eta = _build_param(args)
    lambdas = _pick_lambdas(args, eta.k)
    us = _sample_us(eta, args)
    rows = ssc.character_relation_check(eta, us=us, lambdas=lambdas,
                                        budget=args.budget)
    records = [_header(args, "jl verify", {
        "eta": eta.to_json(),
        "transfer": ssc.jl_transfer(eta).to_json(),
    })]
    records += [row.to_json() for row in rows]
    records.append(_summary(records))
    return records, records[-1]["ok"]


def _run_epsilon(args):
    eta = _build_param(args, extra_orders=(args.twist_varpi_order,))
    xi = ssc.TameChar(MultChar(eta.k, args.twist_unit, eta.chi.ring),
                      ssc.CUnit(order=args.twist_varpi_order,
                                power=args.twist_varpi_power))
    records = [_header(args, "epsilon", {
        "eta": eta.to_json(), "xi": xi.to_json()})]
    records.append({"kind": "epsilon",
                    "value": ssc.epsilon(eta).to_json()})
    records.append({"kind": "epsilon_twisted",
                    "value": ssc.epsilon_twisted(eta, xi).to_json()})
    if eta.n > 1:
        records.append({
            "kind": "normalized_tau",
            "value": ssc.normalized_tau(eta, xi).to_json(),
            "sign": ssc.jl_transfer(eta).sign,
        })
    return records, True


def _run_csa(args):
    report = csa.selftest(args.p, args.f, args.m, args.r, args.s,
                          prec=args.precision, seed=args.seed)
    return [report], report["ok"]


_DISPATCH = {
    "sums": _run_sums,
    "verify": _run_verify,
    "char": _run_char,
    "jl": _run_jl,
    "epsilon": _run_epsilon,
    "csa": _run_csa,
}


def _error(exc, kind="error") -> dict:
    return {"kind": kind, "error": type(exc).__name__, "message": str(exc)}


def _run(args):
    """Run the verb; returns (exit code, records)."""
    try:
        if args.budget < 0:
            raise ValidationError(
                f"the budget must be nonnegative, got {args.budget}")
        records, ok = _DISPATCH[args.verb](args)
    except (ValidationError, DomainError) as exc:
        return EXIT_USAGE, [_error(exc)]
    except (BudgetExceeded, PrecisionError) as exc:
        return EXIT_LIMIT, [_error(exc)]
    except IdentityFailure as exc:
        return EXIT_MATH, [_error(exc)]
    except Exception as exc:  # InvariantError and every unexpected one
        traceback.print_exc()
        return EXIT_INTERNAL, [_error(exc, "internal_error")]
    return (EXIT_OK if ok else EXIT_MATH), records


def main(argv=None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        target = (open(args.out, "w", encoding="utf-8") if args.out
                  else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        _emit([_error(exc)], args, sys.stdout)
        return EXIT_USAGE
    with target as stream:
        code, records = _run(args)
        _emit(records, args, stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
