"""Batch front door: seed, verify, deform, scan, and the character-side
utilities, with reproducible file outputs.

Exit codes separate the failure classes a caller scripts against:

  0  all requested verdicts pass
  1  a verdict failed, or a domain/validation error
  2  congruence bound refused (including hypothesis (*) refusals)
  3  working precision insufficient
  4  seed solve hit a singular system
  5  file I/O or malformed input data

Every numeric flag accepts an exact rational (``--m 1/2``); nothing on this
surface is floating point.  `seed`, `deform` and `scan` make every refusal
of `deform.check_request` (p, chi(gamma), k, e, the level, then the valuation
bound on exact rationals) BEFORE any budget, seeding work or file, so a
hopeless request is refused in microseconds.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .deform import (
    alpha,
    check_request,
    converse_bound,
    default_chi,
    deform_trace,
    precision_default,
    precision_floor,
)
from .errors import (
    BoundViolated,
    MalformedFile,
    PreconditionFails,
    PrecisionExhausted,
    SeedSingular,
    VersionMismatch,
    WachdeformError,
)
from .padics import MAX_PREC_X, PadicElt, PadicParams
from .trianguline import hypothesis_star, psi_eval, weight_step
from .wach import (
    _require_chi_fits,
    _write_text,
    check_axioms,
    default_nx,
    load_wach,
    save_wach,
    seed_companion,
)

__all__ = ["build_parser", "main"]


# --------------------------------------------------------------------------- #
# flag plumbing
# --------------------------------------------------------------------------- #

def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}")


def _resolve_precisions(args, k: int, m: Fraction, alpha_k1: int) -> tuple[PadicParams, int]:
    """The ring at its cap, and nx: budget-formula defaults, overrides refused below floor.

    A cap or an nx above its maximum is refused here, before any ring or table.
    """
    p, e = args.p, args.e
    nx = default_nx(p, k) if args.prec_x is None else args.prec_x
    if nx < 1:
        raise PrecisionExhausted(f"--prec-x {nx} is below 1")
    if nx > MAX_PREC_X:
        what = (f"--prec-x {nx}" if args.prec_x is not None
                else f"x-precision {nx} (the default at p={p}, k={k})")
        raise PrecisionExhausted(f"{what} exceeds the maximum {MAX_PREC_X}")
    if args.prec_pi is None:
        return PadicParams(p, e, precision_default(p, e, k, m, alpha_k1, nx)), nx
    floor = precision_floor(e, k, m, alpha_k1)
    if args.prec_pi < floor:
        raise PrecisionExhausted(
            f"--prec-pi {args.prec_pi} is below the certified floor {floor} for k={k}"
        )
    return PadicParams(p, e, args.prec_pi), nx


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=1, sort_keys=True) + "\n")


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #

def cmd_seed(args) -> int:
    chi = args.chi_gamma or default_chi(args.p)
    m, ak1, _ = check_request(args.p, chi, args.k, args.e, 1)
    params, nx = _resolve_precisions(args, args.k, m, ak1)
    if args.out:
        _require_chi_fits(params, chi)
    w = seed_companion(params, args.k, PadicElt.from_rational(params, args.ap), chi, nx)
    report = check_axioms(w)
    print(
        f"seeded p={args.p} k={args.k} a_p={args.ap} chi={chi} "
        f"prec pi^{params.prec_pi} x^{nx}; defect valuation >= {report.commutation_defect_val}"
    )
    if args.out:
        save_wach(w, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    w = load_wach(args.infile)
    report = check_axioms(w)
    for name in ("commutation_ok", "det_unit_ok", "gamma_trivial_ok", "charpoly_ok"):
        print(f"{name}: {'pass' if getattr(report, name) else 'FAIL'}")
    print(f"defect valuation {report.commutation_defect_val} at cap "
          f"{report.commutation_defect_cap}")
    return 0 if report.ok else 1


def cmd_deform(args) -> int:
    p, k = args.p, args.k
    chi = args.chi_gamma or default_chi(p)
    m, ak1, _ = check_request(p, chi, k, args.e, args.m, args.ap, args.ap_new - args.ap)
    params, nx = _resolve_precisions(args, k, m, ak1)
    w = seed_companion(params, k, PadicElt.from_rational(params, args.ap), chi, nx)
    wp, cert = deform_trace(w, PadicElt.from_rational(params, args.ap_new), m)
    print(f"bound: v(eps) = {cert.bound_observed} >= {cert.bound_required}")
    print(f"verdicts: P'={'pass' if cert.p_congruent else 'FAIL'} "
          f"G'={'pass' if cert.g_congruent else 'FAIL'} "
          f"charpoly={'pass' if cert.charpoly_ok else 'FAIL'} "
          f"axioms={'pass' if cert.axioms_ok else 'FAIL'}")
    if args.out:
        _write_json(args.out, {"kind": "deform-report", "certificate": cert.as_obj()})
        print(f"wrote {args.out}")
    return 0 if cert.ok else 1


def cmd_alpha(args) -> int:
    chi = args.chi_gamma or default_chi(args.p)
    print(alpha(args.p, args.r, chi))
    return 0


def cmd_psi(args) -> int:
    params = PadicParams(args.p, args.e, args.prec_pi)
    value = psi_eval(PadicElt.from_rational(params, args.alpha), args.s)
    print(f"{','.join(map(str, value.digits))} (mod {args.p}^{value.cap // args.e})")
    return 0


def cmd_star(args) -> int:
    print(hypothesis_star(args.p, args.vap, args.m))
    return 0


def cmd_weightstep(args) -> int:
    w = load_wach(args.infile)
    wp, cert = weight_step(w, args.m)
    obj = cert.as_obj()
    print(f"weight step: a_p {obj['a_p']} -> {obj['ap_new']}, "
          f"bound {cert.bound_observed} >= {cert.bound_required}")
    if args.out:
        _write_json(args.out, {"kind": "weightstep-report", "certificate": obj})
        print(f"wrote {args.out}")
    return 0 if cert.ok else 1


# --- scan -------------------------------------------------------------------

def _scan_point(payload: tuple) -> list[str]:
    """One grid point, built from primitives so worker processes can unpickle."""
    (p, e, k, ap_str, m_str, chi, prec_pi, nx, seed) = payload
    ap = Fraction(ap_str)
    m, ak1, bound = check_request(p, chi, k, e, m_str, ap)

    if ap == 0:
        ap_new = ap                          # only the identity deformation exists
    else:
        u = random.Random(f"{seed}:{k}:{ap}").randrange(1, p)
        ap_new = ap + u * Fraction(p) ** math.ceil(bound)

    try:
        threshold = str(converse_bound(m, ak1))
    except PreconditionFails:
        threshold = ""

    cert_pass = False
    min_defect = ""
    try:
        params = PadicParams(p, e, prec_pi)
        w = seed_companion(params, k, PadicElt.from_rational(params, ap), chi, nx)
        _, cert = deform_trace(w, PadicElt.from_rational(params, ap_new), m)
        cert_pass = cert.ok
        if cert.iteration_log:
            min_defect = str(min(v for _, v in cert.iteration_log))
    except WachdeformError:
        pass
    # bound_ok holds by construction: v(a'_p - a_p) = ceil(bound) >= bound for
    # 0 < u < p, and a'_p = a_p at a_p = 0; deform_trace re-checks the bound on
    # the capped elements for cert_pass
    return [
        str(k), str(ap), str(ap_new), str(m), "true",
        "true" if cert_pass else "false",
        min_defect, threshold,
    ]


def _pool_size(jobs: int, points: int) -> int:
    """Worker processes for a scan: at most one per grid point and per usable CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(jobs, points, cpus or 1)


def cmd_scan(args) -> int:
    p, e = args.p, args.e
    if args.jobs < 1:
        raise MalformedFile(f"--jobs must be at least 1, got {args.jobs}")
    chi = args.chi_gamma or default_chi(p)
    lo, sep, hi = args.k_range.partition(":")
    try:
        k_lo, k_hi = int(lo), int(hi if sep else lo)
        ap_list = [Fraction(s) for s in args.ap_list.split(",") if s.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedFile(
            f"scan needs --k-range A:B of integers and --ap-list of rationals: {exc}"
        ) from exc
    if not ap_list or k_lo < 2 or k_hi < k_lo:
        raise MalformedFile("scan needs --k-range A:B with A >= 2 and a nonempty --ap-list")

    grid = [(k, ap) for k in range(k_lo, k_hi + 1) for ap in ap_list]
    # every refusal, then every budget, before any file
    ak1s = {k: check_request(p, chi, k, e, args.m)[1] for k in range(k_lo, k_hi + 1)}
    m = args.m
    payloads = []
    for k, ap in grid:
        params, nx = _resolve_precisions(args, k, m, ak1s[k])
        payloads.append((p, e, k, str(ap), str(m), chi, params.prec_pi, nx, args.seed))

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    plan = {
        "p": p, "e": e, "k_range": [k_lo, k_hi],
        "ap_list": [str(a) for a in ap_list], "m": str(m),
        "chi_gamma": chi, "prec_pi": args.prec_pi or 0, "prec_x": args.prec_x or 0,
        "seed": args.seed, "jobs": args.jobs,
    }
    _write_json(outdir / "plan.json", plan)

    # both paths give the rows in grid order
    workers = _pool_size(args.jobs, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor   # only this path pays for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_point, payloads))
    else:
        results = [_scan_point(pl) for pl in payloads]

    csv_path = outdir / "results.csv"
    header = "k,a_p,ap_new,m,bound_ok,cert_pass,min_defect_val,converse_threshold"
    # no field holds a comma, quote or newline, so none is quoted; CSV lines end in \r\n
    _write_text(csv_path, "".join(f"{line}\r\n" for line in [header, *map(",".join, results)]))
    all_pass = all(row[5] == "true" for row in results)
    print(f"scan: {len(results)} grid points -> {csv_path} "
          f"({'all pass' if all_pass else 'failures present'})")
    return 0 if all_pass else 1


# --------------------------------------------------------------------------- #
# parser and entry point
# --------------------------------------------------------------------------- #

def _add_ring_flags(sp, with_k: bool = True) -> None:
    sp.add_argument("--p", type=int, required=True, help="residue characteristic")
    sp.add_argument("--e", type=int, default=1, help="ramification index (default 1)")
    if with_k:
        sp.add_argument("--k", type=int, required=True, help="weight, k >= 2")
    sp.add_argument("--chi-gamma", type=int, default=0,
                    help="generator chi(gamma); default: smallest primitive root mod p^2")
    sp.add_argument("--prec-pi", type=int,
                    help="pi-adic cap; default from the budget formula")
    sp.add_argument("--prec-x", type=int,
                    help="x-adic truncation; default max(2k, 32, (p-1)(k-1)+2)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wachdeform",
        description="Wach-module seeding, verification, and congruence certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("seed", help="construct companion-form module data")
    _add_ring_flags(sp)
    sp.add_argument("--ap", type=_rat, required=True, help="trace a_p (exact rational)")
    sp.add_argument("--out", default="", help="write module JSON here")
    sp.set_defaults(fn=cmd_seed)

    sp = sub.add_parser("verify", help="re-check the axioms of a stored module")
    sp.add_argument("--in", dest="infile", required=True, help="module JSON to verify")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("deform", help="deform the trace and certify congruence")
    _add_ring_flags(sp)
    sp.add_argument("--ap", type=_rat, required=True,
                    help="trace a_p of the seed (exact rational)")
    sp.add_argument("--ap-new", type=_rat, required=True,
                    help="target trace a'_p (exact rational)")
    sp.add_argument("--m", type=_rat, required=True, help="congruence level in (1/e)Z")
    sp.add_argument("--out", default="", help="write certificate JSON here")
    sp.set_defaults(fn=cmd_deform)

    sp = sub.add_parser("alpha", help="print alpha(r)")
    sp.add_argument("--p", type=int, required=True, help="residue characteristic")
    sp.add_argument("--r", type=int, required=True, help="order r >= 1")
    sp.add_argument("--chi-gamma", type=int, default=0,
                    help="generator chi(gamma); default: smallest primitive root mod p^2")
    sp.set_defaults(fn=cmd_alpha)

    sp = sub.add_parser("psi", help="evaluate alpha^s by both series routes")
    sp.add_argument("--p", type=int, required=True, help="residue characteristic")
    sp.add_argument("--e", type=int, default=1, help="ramification index (default 1)")
    sp.add_argument("--prec-pi", type=int, default=24, help="pi-adic cap (default %(default)s)")
    sp.add_argument("--alpha", type=_rat, required=True,
                    help="base alpha in 1 + pZ_p (exact rational)")
    sp.add_argument("--s", type=_rat, required=True, help="exponent s in Z_p (exact rational)")
    sp.set_defaults(fn=cmd_psi)

    sp = sub.add_parser("star", help="minimal weight satisfying hypothesis (*)")
    sp.add_argument("--p", type=int, required=True, help="residue characteristic")
    sp.add_argument("--vap", type=_rat, required=True, help="v(a_p)")
    sp.add_argument("--m", type=_rat, required=True, help="congruence level m > 0")
    sp.set_defaults(fn=cmd_star)

    sp = sub.add_parser("weightstep", help="deform a_p by p^(k-1)/a_p under (*)")
    sp.add_argument("--in", dest="infile", required=True, help="module JSON to deform")
    sp.add_argument("--m", type=_rat, required=True, help="congruence level in (1/e)Z")
    sp.add_argument("--out", default="", help="write certificate JSON here")
    sp.set_defaults(fn=cmd_weightstep)

    sp = sub.add_parser("scan", help="grid of deformation runs, CSV summary")
    _add_ring_flags(sp, with_k=False)
    sp.add_argument("--k-range", required=True, help="A:B inclusive")
    sp.add_argument("--ap-list", required=True, help="comma-separated rationals")
    sp.add_argument("--m", type=_rat, required=True, help="congruence level in (1/e)Z")
    sp.add_argument("--seed", type=int, default=0,
                    help="random seed of each point's a'_p (default 0)")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--jobs", type=int, default=1,
                    help="worker processes, at most one per grid point and usable CPU")
    sp.set_defaults(fn=cmd_scan)
    return ap


# built on first use and reused: parsing leaves the parser unchanged, and an
# in-process caller running many commands pays for the tree once
_parser = cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BoundViolated, PreconditionFails) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print(f"precision: {exc}", file=sys.stderr)
        return 3
    except SeedSingular as exc:
        print(f"seed: {exc}", file=sys.stderr)
        return 4
    except (MalformedFile, VersionMismatch) as exc:
        print(f"input: {exc}", file=sys.stderr)
        return 5
    except OSError as exc:
        print(f"io: {exc}", file=sys.stderr)
        return 5
    except WachdeformError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
