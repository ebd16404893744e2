"""Exit-code contract and output determinism of the command-line front door."""
import argparse
import contextlib
import csv
import dataclasses
import io
import json
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wachdeform import cli, deform
from wachdeform.cli import main
from wachdeform.deform import alpha, deform_trace, deformation_bound
from wachdeform.errors import (
    BoundViolated,
    DomainError,
    NotAGenerator,
    PreconditionFails,
    WachdeformError,
)
from wachdeform.padics import MAX_PREC_PI, MAX_PREC_X, PadicElt, PadicParams, vp
from wachdeform.trianguline import weight_step
from wachdeform.wach import check_axioms, load_wach, save_wach, seed_companion

from test_wach import JUNK, mutated_text


def run(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


# --------------------------------------------------------------------------- #
# small arithmetic commands
# --------------------------------------------------------------------------- #

def test_alpha_prints_bare_value(capsys):
    code, out = run("alpha", "--p", "3", "--r", "6", capsys=capsys)
    assert code == 0
    assert out.strip() == "4"


def test_alpha_large_order(capsys):
    code, out = run("alpha", "--p", "3", "--r", "16", capsys=capsys)
    assert code == 0
    assert out.strip() == "10"


def test_star_minimal_weights(capsys):
    for p, expected in ((3, 17), (5, 7), (7, 6)):
        code, out = run("star", "--p", str(p), "--vap", "1", "--m", "1",
                        capsys=capsys)
        assert code == 0
        assert out.strip() == str(expected)


def test_star_accepts_rational_valuation(capsys):
    code, out = run("star", "--p", "3", "--vap", "1/2", "--m", "1", capsys=capsys)
    assert code == 0
    assert out.strip() == "11"


def test_star_rejects_nonpositive_valuation(capsys):
    assert main(["star", "--p", "3", "--vap", "0", "--m", "1"]) == 1


def test_psi_square_root_of_four(capsys):
    code, out = run("psi", "--p", "3", "--alpha", "4", "--s", "1/2",
                    capsys=capsys)
    assert code == 0
    # psi_4(1/2) is the principal square root of 4, which is -2 (= 2 mod 3)
    assert out.startswith(str(3 ** 24 - 2))


def test_psi_ramified_prints_digits(capsys):
    code, out = run("psi", "--p", "3", "--e", "2", "--alpha", "4", "--s", "1/2",
                    capsys=capsys)
    assert code == 0
    digits, modulus = out.split(" (mod ")
    assert len(digits.split(",")) == 2
    assert modulus.strip() == "3^12)"


@pytest.mark.parametrize("alpha, s, message", [
    ("2", "1/2", "argument not in 1 + pZ_p: v(alpha - 1) = 0"),
    ("1/3", "1", "1/3 is not in Z_p (denominator divisible by p)"),
    ("4", "1/3", "1/3 is not in Z_p (denominator divisible by p)"),
], ids=["alpha 2", "alpha 1/3", "s 1/3"])
def test_psi_outside_domain_is_an_error(alpha, s, message, capsys):
    assert main(["psi", "--p", "3", "--alpha", alpha, "--s", s]) == 1
    assert capsys.readouterr() == ("", f"error: DomainError: {message}\n")


def test_rational_flag_rejects_garbage():
    with pytest.raises(SystemExit):
        main(["star", "--p", "3", "--vap", "sqrt2", "--m", "1"])


# --------------------------------------------------------------------------- #
# seed / verify round trip
# --------------------------------------------------------------------------- #

def test_seed_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "mod.json"
    assert main(["seed", "--p", "3", "--k", "2", "--ap", "3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    code, out = run("verify", "--in", str(path), capsys=capsys)
    assert code == 0
    assert out.count("pass") == 4
    assert "FAIL" not in out


def test_seed_out_dev_null(capsys):
    # the writer opens without truncating and cuts only a longer regular file
    assert main(["seed", "--p", "3", "--k", "2", "--ap", "3", "--out", "/dev/null"]) == 0
    assert capsys.readouterr().out.endswith("wrote /dev/null\n")


def test_verify_missing_file_is_io_error():
    assert main(["verify", "--in", "/nonexistent/nowhere.json"]) == 5


def test_verify_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("this is not structured text")
    assert main(["verify", "--in", str(path)]) == 5


def test_verify_wrong_version_tag(tmp_path):
    path = tmp_path / "vtag.json"
    path.write_text(json.dumps({"format_version": "999"}))
    assert main(["verify", "--in", str(path)]) == 5


SMALL_SEED = ["seed", "--p", "3", "--k", "2", "--ap", "3", "--prec-pi", "12", "--prec-x", "8"]


@pytest.mark.parametrize("old, new", [
    ('"cap": "12"', '"cap": 1e999'),          # an element's cap
    ('"digits": [\n      "1"', '"digits": [\n      Infinity'),   # the first digit, of G(0)
    ('"k": "2"', '"k": 1e999'),               # the header
])
def test_verify_non_finite_number_is_malformed(tmp_path, capsys, old, new):
    # int(float('inf')) raises OverflowError, which once escaped the loader
    path = tmp_path / "mod.json"
    assert main(SMALL_SEED + ["--out", str(path)]) == 0
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("input: ") and err.count("\n") == 1


@pytest.mark.parametrize("where, value", [
    (["p"], 3.9),
    (["k"], 2.5),
    (["a_p", "cap"], 37.9),
    (["a_p", "digits", 0], 3.7),
    (["a_p", "digits"], "3"),              # a string, not a list of digits
    (["a_p", "digits", 0], " 3 "),
    (["a_p", "digits", 0], "3_0"),
    (["a_p", "digits", 0], "\u0663"),      # ARABIC-INDIC DIGIT THREE
    (["a_p", "digits", 0], True),
], ids=["p-float", "k-float", "cap-float", "digit-float", "digits-string", "digit-padded",
        "digit-grouped", "digit-non-ascii", "digit-bool"])
def test_verify_refuses_numbers_save_never_writes(tmp_path, capsys, where, value):
    # each once loaded, truncated or leniently parsed: verify then passed, or
    # failed a module nobody wrote (a_p = 30 from "3_0", a_p = 1 from true)
    path = tmp_path / "mod.json"
    assert main(["seed", "--p", "3", "--k", "2", "--ap", "3", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    *keys, last = where
    node = obj
    for key in keys:
        node = node[key]
    node[last] = value
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify", "--in", str(path)]) == 5
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input: ") and err.count("\n") == 1


@pytest.mark.parametrize("chi", [
    {"cap": "1", "digits": ["5"]}, {"cap": "2", "digits": ["11"]},
])
@pytest.mark.parametrize("cmd", [["verify"], ["weightstep", "--m", "1"]])
def test_inexact_chi_gamma_file_is_malformed(tmp_path, capsys, chi, cmd):
    # both once loaded as chi(gamma) = 2, and verify passed
    path = tmp_path / "mod.json"
    assert main(SMALL_SEED + ["--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["chi_gamma"] = chi
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(cmd + ["--in", str(path)]) == 5
    assert capsys.readouterr() == (
        "", "input: chi_gamma must encode an integer: cap 12, no digits past the first\n"
    )


def test_seed_refuses_chi_gamma_past_the_file_cap(tmp_path, capsys):
    # 3^20 + 2 reduced at cap 20 would be stored as chi(gamma) = 2
    path = tmp_path / "m.json"
    argv = ["seed", "--p", "3", "--k", "2", "--ap", "3", "--chi-gamma", str(3**20 + 2),
            "--prec-pi", "20", "--out", str(path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""   # refused before the seed solve, so nothing is reported as seeded
    assert err == (f"error: DomainError: chi_gamma {3**20 + 2} does not fit a file at "
                   "prec_pi 20: it must be below p^20\n")
    assert not path.exists()


def test_seed_singular_point_exit_code():
    # k = 4, a_p = 3: the order-1 linear system has no integral solution
    assert main(["seed", "--p", "3", "--k", "4", "--ap", "3"]) == 4


def test_seed_precision_failure_names_its_order(capsys):
    # cap 12 clears the certified floor 11, yet the contraction at order
    # 2 * 12 - 1 has no digit left to divide by pi: the floor is necessary,
    # not sufficient, and the refusal says where it ran out
    assert main(["seed", "--p", "3", "--k", "2", "--ap", "9", "--prec-pi", "12"]) == 3
    assert capsys.readouterr().err == (
        "precision: order 23: cap 1 cannot absorb pi^1 division\n")


# --------------------------------------------------------------------------- #
# deform: pass, refuse, singular, precision
# --------------------------------------------------------------------------- #

def test_deform_pass_writes_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out = run("deform", "--p", "3", "--k", "2", "--ap", "3",
                    "--ap-new", "30", "--m", "1", "--out", str(cert_path),
                    capsys=capsys)
    assert code == 0
    obj = json.loads(cert_path.read_text())
    cert = obj["certificate"]
    assert cert["pass"] is True
    assert cert["bound_required"] == "3"
    assert cert["bound_observed"] == "3"
    assert cert["a_p"] == "3"
    assert cert["ap_new"] == "30"


def test_deform_out_in_missing_directory_is_io_error(tmp_path, capsys):
    path = tmp_path / "missing" / "c.json"
    assert main(["deform", "--p", "3", "--k", "2", "--ap", "3", "--ap-new", "30",
                 "--m", "1", "--out", str(path)]) == 5
    err = capsys.readouterr().err
    assert err == f"io: [Errno 2] No such file or directory: {str(path)!r}\n"
    assert not path.parent.exists()


def test_deform_bound_refusal_precedes_seeding():
    # k = 4 seeding would raise SeedSingular (exit 4); the bound is checked
    # on exact rationals first, so the hopeless request exits 2 instead
    assert main(["deform", "--p", "3", "--k", "4", "--ap", "3",
                 "--ap-new", "30", "--m", "1"]) == 2


def test_deform_bound_ok_then_seed_singular():
    # eps = 81 clears the bound 2 + alpha(3) + 1 = 4, so this reaches the
    # seeding stage and reports the singular system honestly
    assert main(["deform", "--p", "3", "--k", "4", "--ap", "3",
                 "--ap-new", "84", "--m", "1"]) == 4


def test_seed_failing_det_check_names_prec_x(capsys):
    # nx = 3 is below the degree (p-1)(k-1) = 6 of Q^(k-1): only the det check
    # fails, and the advice once named the pi-adic precision
    assert main(["deform", "--p", "3", "--k", "4", "--ap", "0", "--ap-new", "0",
                 "--m", "1", "--prec-x", "3"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "det(P) is not a unit times Q^(k-1) at x-precision 3" in err
    assert "--prec-x" in err and "(p-1)(k-1) = 6" in err


def test_deform_underfloor_precision_refused():
    assert main(["deform", "--p", "3", "--k", "2", "--ap", "3",
                 "--ap-new", "30", "--m", "1", "--prec-pi", "5"]) == 3


def test_deform_deeper_level_needs_deeper_congruence(tmp_path):
    # level m = 2 needs v(eps) >= 4; eps = 27 only has valuation 3
    assert main(["deform", "--p", "3", "--k", "2", "--ap", "3",
                 "--ap-new", "30", "--m", "2"]) == 2


def _deform_argv(ap, ap_new, *extra):
    return ["deform", "--p", "3", "--k", "2", "--ap", str(ap),
            "--ap-new", str(ap_new), "--m", "1", *extra]


# the CLI refuses on exact rationals before it resolves precisions or seeds:
# with an under-floor --prec-pi, a request that got past it would exit 3
UNDER_FLOOR = ("--prec-pi", "5")


@pytest.mark.parametrize("ap", [3, 9])          # v(a_p) = 1 and 2
def test_deform_refusal_agrees_with_library(ap):
    # the CLI refuses on exact rationals, deform_trace on capped elements;
    # both must draw the line at the same valuation
    bound = deformation_bound(vp(ap, 3), alpha(3, 1, 2), Fraction(1))
    at, below = ap + 3 ** int(bound), ap + 3 ** (int(bound) - 1)
    assert main(_deform_argv(ap, at)) == 0
    assert main(_deform_argv(ap, below, *UNDER_FLOOR)) == 2

    params = PadicParams(3, 1, 24)
    w = seed_companion(params, 2, PadicElt.from_int(params, ap), 2, 16)
    _, cert = deform_trace(w, PadicElt.from_int(params, at), 1)
    assert cert.ok and cert.bound_required == bound
    with pytest.raises(BoundViolated):
        deform_trace(w, PadicElt.from_int(params, below), 1)


def test_deform_ap_zero_admits_only_identity():
    assert main(_deform_argv(0, 0)) == 0
    assert main(_deform_argv(0, 9, *UNDER_FLOOR)) == 2

    params = PadicParams(3, 1, 24)
    w = seed_companion(params, 2, PadicElt.zero(params), 2, 16)
    _, cert = deform_trace(w, w.a_p, 1)
    assert cert.ok and cert.bound_required == deformation_bound(0, 0, Fraction(1))
    with pytest.raises(BoundViolated):
        deform_trace(w, PadicElt.from_int(params, 9), 1)


def test_deform_ramified_end_to_end(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out = run("deform", "--p", "3", "--e", "2", "--k", "2", "--ap", "3",
                    "--ap-new", "246", "--m", "1/2", "--out", str(cert_path),
                    capsys=capsys)
    assert code == 0
    assert "P'=pass G'=pass charpoly=pass axioms=pass" in out
    cert = json.loads(cert_path.read_text())["certificate"]
    assert cert["pass"] is True
    assert cert["bound_required"] == "5/2"
    assert (cert["a_p"], cert["ap_new"]) == ("3,0", "246,0")


def test_verify_tampered_module_fails_axioms(tmp_path, capsys):
    path = tmp_path / "mod.json"
    assert main(["seed", "--p", "3", "--k", "2", "--ap", "3",
                 "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["P"][0][0][0]["digits"][0] = "1"  # corrupt P's constant coefficient
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    code, out = run("verify", "--in", str(path), capsys=capsys)
    assert code == 1
    assert "FAIL" in out


def test_huge_prec_pi_header_refused_fast(tmp_path, capsys):
    # a raised prec_pi header alone once made verify build every digit modulus
    path = tmp_path / "mod.json"
    assert main(["seed", "--p", "3", "--k", "2", "--ap", "3", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["prec_pi"] = "10000000"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["verify", "--in", str(path)]) == 5
    assert time.perf_counter() - t0 < 1.0
    assert f"exceeds the maximum {MAX_PREC_PI}" in capsys.readouterr().err


def test_ramification_past_prec_pi_header_refused_fast(tmp_path, capsys):
    # when prec_pi alone was capped, a raised e header once made verify build
    # e * 4097 digit moduli; the row of moduli has prec_pi + e entries, and an
    # e above prec_pi is refused before it is built
    path = tmp_path / "mod.json"
    assert main(["seed", "--p", "3", "--k", "2", "--ap", "3", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["e"], obj["prec_pi"] = "20000", str(MAX_PREC_PI)
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["verify", "--in", str(path)]) == 5
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        f"input: bad ring parameters: ramification index 20000 exceeds prec_pi {MAX_PREC_PI}\n")


def test_psi_ramification_past_prec_pi_refused(capsys):
    assert main(["psi", "--p", "3", "--e", "30", "--prec-pi", "24",
                 "--alpha", "4", "--s", "1/2"]) == 3
    assert capsys.readouterr().err == "precision: ramification index 30 exceeds prec_pi 24\n"


def _no_alpha_table(*args):
    raise AssertionError("alpha was checked at every j up to r")


def test_weightstep_huge_weight_header_ends_fast(monkeypatch, tmp_path, capsys):
    # p^(k-1) at k = 10^400 is zero at the cap and the bound takes alpha(k-1)
    # from the floor formula, so the deformation refuses without the per-j check
    monkeypatch.setattr(deform, "alpha", _no_alpha_table)
    path = tmp_path / "mod.json"
    assert main(["seed", "--p", "3", "--k", "2", "--ap", "3", "--out", str(path)]) == 0
    obj = json.loads(path.read_text())
    obj["k"] = 10**400
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    t0 = time.perf_counter()
    assert main(["weightstep", "--in", str(path), "--m", "1"]) == 3
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("precision: cap 37 cannot certify the hypothesis v(eps) >= ")


@pytest.mark.parametrize("argv, code", [
    (["deform", "--p", "3", "--k", "1000000", "--ap", "3", "--ap-new", "30", "--m", "1"], 2),
    (["seed", "--p", "3", "--k", "1000000", "--ap", "3"], 3),
    (["scan", "--p", "3", "--k-range", "1000000:1000000", "--ap-list", "3", "--m", "1",
      "--out", "OUT"], 3),
])
def test_huge_weight_refused_before_any_alpha_table(argv, code, monkeypatch, tmp_path, capsys):
    # the bound and the precision budget take alpha(k-1) from the floor formula
    monkeypatch.setattr(cli, "alpha", _no_alpha_table)
    monkeypatch.setattr(deform, "alpha", _no_alpha_table)
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    t0 = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cmd", [
    ["seed", "--p", "3", "--k", "2", "--ap", "3"],
    ["deform", "--p", "3", "--k", "2", "--ap", "3", "--ap-new", "30", "--m", "1"],
    ["psi", "--p", "3", "--alpha", "4", "--s", "1/2"],
    ["scan", "--p", "3", "--k-range", "2:3", "--ap-list", "3", "--m", "1", "--out", "OUT"],
])
def test_huge_prec_pi_flag_refused_fast(cmd, tmp_path, capsys):
    cmd = [str(tmp_path / "scan") if a == "OUT" else a for a in cmd]
    t0 = time.perf_counter()
    assert main(cmd + ["--prec-pi", "10000000"]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert f"exceeds the maximum {MAX_PREC_PI}" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", [
    # the default nx (p-1)(k-1)+2 = 10008 of a large p
    ["seed", "--p", "10007", "--k", "2", "--ap", "0"],
    ["seed", "--p", "3", "--k", "2", "--ap", "3", "--prec-pi", "40", "--prec-x", "1000000"],
    ["deform", "--p", "3", "--k", "2", "--ap", "3", "--ap-new", "30", "--m", "1",
     "--prec-x", "1025"],
    ["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3", "--m", "1", "--out", "OUT",
     "--prec-x", "1025"],
])
def test_huge_prec_x_refused_fast(cmd, tmp_path, capsys):
    # each once ran past 5 s building its (1+x)^c - 1 tables, refused by nothing
    outdir = tmp_path / "scan"
    cmd = [str(outdir) if a == "OUT" else a for a in cmd]
    t0 = time.perf_counter()
    assert main(cmd) == 3
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("precision: ") and f"exceeds the maximum {MAX_PREC_X}" in err
    assert not outdir.exists()


@pytest.mark.parametrize("flag", ["--prec-pi", "--prec-x"])
@pytest.mark.parametrize("cmd", [
    ["seed", "--p", "3", "--k", "2", "--ap", "3"],
    ["deform", "--p", "3", "--k", "2", "--ap", "3", "--ap-new", "30", "--m", "1"],
    ["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3", "--m", "1", "--out", "OUT"],
])
def test_zero_precision_flag_is_refused_not_default(cmd, flag, tmp_path, capsys):
    outdir = tmp_path / "scan"
    cmd = [str(outdir) if a == "OUT" else a for a in cmd]
    assert main(cmd + [flag, "0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"precision: {flag} 0 is below ") and err.count("\n") == 1
    assert not outdir.exists()


def test_scan_plan_bytes_without_precision_flags(tmp_path, capsys):
    outdir = tmp_path / "scan"
    assert main(["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3", "--m", "1",
                 "--out", str(outdir)]) == 0
    capsys.readouterr()
    assert (outdir / "plan.json").read_text() == (
        '{\n "ap_list": [\n  "3"\n ],\n "chi_gamma": 2,\n "e": 1,\n "jobs": 1,\n'
        ' "k_range": [\n  2,\n  2\n ],\n "m": "1",\n "p": 3,\n "prec_pi": 0,\n'
        ' "prec_x": 0,\n "seed": 0\n}\n'
    )


def test_weightstep_below_star_threshold(tmp_path):
    path = tmp_path / "mod.json"
    assert main(["seed", "--p", "3", "--k", "2", "--ap", "3",
                 "--out", str(path)]) == 0
    assert main(["weightstep", "--in", str(path), "--m", "1"]) == 2


# --------------------------------------------------------------------------- #
# scan
# --------------------------------------------------------------------------- #

def _read_rows(outdir):
    with open(outdir / "results.csv", newline="") as fh:
        return list(csv.reader(fh))


def test_scan_grid_shape_and_columns(tmp_path, capsys):
    outdir = tmp_path / "scan"
    code, _ = run("scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3,6,12",
                  "--m", "1", "--out", str(outdir), "--seed", "11",
                  capsys=capsys)
    assert code == 0
    rows = _read_rows(outdir)
    assert rows[0] == ["k", "a_p", "ap_new", "m", "bound_ok", "cert_pass",
                       "min_defect_val", "converse_threshold"]
    assert len(rows) == 1 + 3
    for row in rows[1:]:
        assert row[0] == "2"
        assert row[4] == "true" and row[5] == "true"
    plan = json.loads((outdir / "plan.json").read_text())
    assert plan["k_range"] == [2, 2]
    assert plan["seed"] == 11


def test_scan_serial_parallel_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3,6",
            "--m", "1", "--seed", "5"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_scan_same_seed_same_bytes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    base = ["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3",
            "--m", "1", "--seed", "9"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()


def test_scan_failures_flip_exit_code(tmp_path, capsys):
    # k = 3 companion seeds are singular at p = 3: every row fails, exit 1
    outdir = tmp_path / "scan"
    code, _ = run("scan", "--p", "3", "--k-range", "3:3", "--ap-list", "3",
                  "--m", "1", "--out", str(outdir), capsys=capsys)
    assert code == 1
    rows = _read_rows(outdir)
    assert rows[1][5] == "false"
    assert rows[1][6] == ""          # no iteration log from a failed run


def test_scan_rejects_empty_grid(tmp_path):
    assert main(["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "",
                 "--m", "1", "--out", str(tmp_path / "s")]) == 5


@pytest.mark.parametrize("k_range, ap_list", [
    ("a:b", "3"), ("2:x", "3"), ("2:4", "3,x"), ("2", "1/0"),
])
def test_scan_malformed_grid_is_input_error(tmp_path, capsys, k_range, ap_list):
    outdir = tmp_path / "s"
    code = main(["scan", "--p", "3", "--k-range", k_range, "--ap-list", ap_list,
                 "--m", "1", "--out", str(outdir)])
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("input: ") and err.count("\n") == 1
    assert not outdir.exists()


def test_scan_malformed_grid_exits_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wachdeform.cli", "scan", "--p", "3", "--k-range", "a:b",
         "--ap-list", "3", "--m", "1", "--out", str(tmp_path / "s")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 5
    assert proc.stderr.startswith("input: ") and proc.stderr.count("\n") == 1


def test_scan_bad_ring_refused_before_any_file(tmp_path, capsys):
    outdir = tmp_path / "s"
    assert main(["scan", "--p", "3", "--e", "0", "--k-range", "2:2", "--ap-list", "3",
                 "--m", "1", "--out", str(outdir)]) == 1
    assert capsys.readouterr().err == (
        "error: DomainError: ramification index must be >= 1, got 0\n"
    )
    assert not outdir.exists()


def _no_seeding(*args):
    raise AssertionError("seeding started")


@pytest.mark.parametrize("argv, e, m", [
    (["deform", "--p", "3", "--k", "2", "--ap", "3", "--ap-new", "30", "--m", "-100"], 1, "-100"),
    (["deform", "--p", "3", "--k", "2", "--ap", "3", "--ap-new", "30", "--m", "-5"], 1, "-5"),
    (["deform", "--p", "3", "--e", "2", "--k", "2", "--ap", "3", "--ap-new", "246",
      "--m", "1/4"], 2, "1/4"),
    (["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3", "--m", "0"], 1, "0"),
    (["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3", "--m", "1/2"], 1, "1/2"),
    (["scan", "--p", "3", "--e", "2", "--k-range", "2:3", "--ap-list", "3", "--m=-1/2"],
     2, "-1/2"),
    # the generator test once walked every power of chi mod p: 32 s before this refusal
    (["deform", "--p", "100000007", "--k", "2", "--ap", "1", "--ap-new", "2", "--m", "1/2"],
     1, "1/2"),
])
def test_bad_level_refused_before_any_work(argv, e, m, monkeypatch, tmp_path, capsys):
    # the level was once checked only inside deform_trace: -100 made a budget
    # below 1 (exit 3), -5 seeded first, and scan wrote its files then failed
    # every point
    monkeypatch.setattr(cli, "seed_companion", _no_seeding)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", f"error: DomainError: congruence level must lie in (1/{e})Z_(>=1), got {m}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("cmd", [
    ["deform", "--k", "2", "--ap", "3", "--ap-new", "30"],
    ["scan", "--k-range", "2:2", "--ap-list", "3"],
])
def test_bad_ring_refused_before_bad_level(cmd, tmp_path, capsys):
    out = tmp_path / "out"
    argv = cmd + ["--p", "3", "--e", "0", "--m", "0", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: DomainError: ramification index must be >= 1, got 0\n"
    )
    assert not out.exists()


# --------------------------------------------------------------------------- #
# one refusal order, deform.check_request: p, chi(gamma), k, e, the level, the
# bound; then precision.  Each row pairs two faults and expects the first.
# --------------------------------------------------------------------------- #

P_BAD = "p must be an odd prime, got 4"
CHI_BAD = "chi(gamma) = 4 does not topologically generate Z_3^x"
K_BAD = "weight must be >= 2, got 1"
E_BAD = "ramification index must be >= 1, got 0"
M_BAD = "congruence level must lie in (1/1)Z_(>=1), got {}"
BOUND_BAD = "v(a_p - a'_p) = 0 < 2 v(a_p) + alpha(k-1) + m = 3"
AP_ZERO = "a_p = 0 admits only the identity deformation"
STAR_BAD = "(*) fails: k = 2 < 17 for (p, v(a_p), m) = (3, 1, 1)"
NOT_ZP = "1/3 is not in Z_p (denominator divisible by p)"


@cache
def _stored(ap=3, chi=2):
    """A weight-2 module over Z_3 at cap 24, with chi(gamma) replaced afterwards."""
    params = PadicParams(3, 1, 24)
    w = seed_companion(params, 2, PadicElt.from_int(params, ap), 2, 16)
    return dataclasses.replace(w, chi_gamma=chi)


def _trace(ap_new, m, **stored):
    def call():
        w = _stored(**stored)
        return deform_trace(w, PadicElt.from_int(w.params, ap_new), m)
    return call


def _step(m, **stored):
    return lambda: weight_step(_stored(**stored), m)


def _pair(name, call, error, message):
    return pytest.param(call, error, message, id=name)


D = "--k 2 --ap 3 --ap-new 4"        # v(eps) = 0 < bound 3 at m = 1
G = "--k-range 2:2 --ap-list 3"
FAULT_PAIRS = [   # (command line or library call, error class, message)
    _pair("seed p>chi", "seed --p 4 --chi-gamma 4 --k 2 --ap 3", DomainError, P_BAD),
    _pair("deform p>chi", f"deform --p 4 --chi-gamma 4 {D} --m 1", DomainError, P_BAD),
    _pair("scan p>chi", f"scan --p 4 --chi-gamma 4 {G} --m 1", DomainError, P_BAD),
    # scan checks its --k-range before the request: chi with e there
    _pair("seed chi>k", "seed --p 3 --chi-gamma 4 --k 1 --ap 3", NotAGenerator, CHI_BAD),
    _pair("deform chi>k", "deform --p 3 --chi-gamma 4 --k 1 --ap 3 --ap-new 4 --m 1",
          NotAGenerator, CHI_BAD),
    _pair("scan chi>e", f"scan --p 3 --chi-gamma 4 --e 0 {G} --m 1", NotAGenerator, CHI_BAD),
    _pair("deform_trace chi>m", _trace(4, 0, chi=4), NotAGenerator, CHI_BAD),
    _pair("seed k>e", "seed --p 3 --e 0 --k 1 --ap 3", DomainError, K_BAD),
    _pair("deform k>e", "deform --p 3 --e 0 --k 1 --ap 3 --ap-new 4 --m 1", DomainError, K_BAD),
    # seed has no level: e with --prec-x there
    _pair("seed e>prec", "seed --p 3 --e 0 --k 2 --ap 3 --prec-x 0", DomainError, E_BAD),
    _pair("deform e>m", f"deform --p 3 --e 0 {D} --m 0", DomainError, E_BAD),
    _pair("scan e>m", f"scan --p 3 --e 0 {G} --m 0", DomainError, E_BAD),
    # scan derives a'_p to meet the bound: m with --prec-pi there
    _pair("deform m>bound", f"deform --p 3 {D} --m 0", DomainError, M_BAD.format(0)),
    _pair("scan m>prec", f"scan --p 3 {G} --m 0 --prec-pi 5", DomainError, M_BAD.format(0)),
    _pair("deform_trace m>bound", _trace(4, 0), DomainError, M_BAD.format(0)),
    _pair("deform bound>prec", f"deform --p 3 {D} --m 1 --prec-pi 5", BoundViolated, BOUND_BAD),
    _pair("deform ap0>m", "deform --p 3 --k 2 --ap 0 --ap-new 9 --m 0",
          DomainError, M_BAD.format(0)),
    _pair("deform_trace ap0>m", _trace(9, 0, ap=0), DomainError, M_BAD.format(0)),
    _pair("deform ap0>prec", "deform --p 3 --k 2 --ap 0 --ap-new 9 --m 1 --prec-pi 5",
          BoundViolated, AP_ZERO),
    _pair("deform_trace ap0", _trace(9, 1, ap=0), BoundViolated, AP_ZERO),
    # a_p outside Z_p passes the request (a'_p - a_p meets the bound) and is refused
    # as it enters the ring, before any seeding
    _pair("seed ap>Z_p", "seed --p 3 --k 2 --ap 1/3", DomainError, NOT_ZP),
    _pair("deform ap>Z_p", "deform --p 3 --k 2 --ap 1/3 --ap-new 30 --m 1", DomainError, NOT_ZP),
    # the weight step: the request, then a_p = 0, then (*)
    _pair("weightstep m>star", "weightstep --in @3:2 --m 1/2", DomainError, M_BAD.format("1/2")),
    _pair("weightstep m0>star", "weightstep --in @3:2 --m 0", DomainError, M_BAD.format(0)),
    _pair("weightstep chi>star", "weightstep --in @3:4 --m 1", NotAGenerator, CHI_BAD),
    _pair("weightstep m>ap0", "weightstep --in @0:2 --m 0", DomainError, M_BAD.format(0)),
    _pair("weightstep star", "weightstep --in @3:2 --m 1", PreconditionFails, STAR_BAD),
    _pair("weight_step m>star", _step(Fraction(1, 2)), DomainError, M_BAD.format("1/2")),
    _pair("weight_step m0>star", _step(0), DomainError, M_BAD.format(0)),
    _pair("weight_step chi>star", _step(1, chi=4), NotAGenerator, CHI_BAD),
    _pair("weight_step m>ap0", _step(0, ap=0), DomainError, M_BAD.format(0)),
    _pair("weight_step star", _step(1), PreconditionFails, STAR_BAD),
]


@pytest.mark.parametrize("call, error, message", FAULT_PAIRS)
def test_fault_pairs_refuse_in_the_documented_order(call, error, message, monkeypatch,
                                                   tmp_path, capsys):
    if callable(call):
        with pytest.raises(WachdeformError) as info:
            call()
        assert (type(info.value), str(info.value)) == (error, message)
        return
    monkeypatch.setattr(cli, "seed_companion", _no_seeding)
    argv = call.split() + ["--out", str(tmp_path / "out")]
    for i, arg in enumerate(argv):
        if arg.startswith("@"):     # @a_p:chi names a stored module file
            ap, chi = map(int, arg[1:].split(":"))
            argv[i] = str(tmp_path / "mod.json")
            save_wach(_stored(ap, chi), argv[i])
    refused = error in (BoundViolated, PreconditionFails)
    assert main(argv) == (2 if refused else 1)
    line = f"refused: {message}" if refused else f"error: {error.__name__}: {message}"
    assert capsys.readouterr() == ("", line + "\n")
    assert not (tmp_path / "out").exists()


def test_every_option_has_help():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        (name, action.option_strings[0])
        for name, sp in sub.choices.items()
        for action in sp._actions
        if action.option_strings and not action.help
    ]
    assert missing == []


def test_scan_parser_namespace_unchanged():
    # scan takes its ring flags from the shared helper: same dests, types and defaults
    full = cli.build_parser().parse_args([
        "scan", "--p", "5", "--e", "2", "--k-range", "2:4", "--ap-list", "3,1/2",
        "--m", "1/2", "--chi-gamma", "3", "--prec-pi", "40", "--prec-x", "20",
        "--seed", "7", "--out", "d", "--jobs", "2",
    ])
    assert vars(full) == {
        "command": "scan", "p": 5, "e": 2, "k_range": "2:4", "ap_list": "3,1/2",
        "m": Fraction(1, 2), "chi_gamma": 3, "prec_pi": 40, "prec_x": 20, "seed": 7,
        "out": "d", "jobs": 2, "fn": cli.cmd_scan,
    }
    bare = cli.build_parser().parse_args(
        ["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3", "--m", "1", "--out", "d"]
    )
    assert vars(bare) == {
        "command": "scan", "p": 3, "e": 1, "k_range": "2:2", "ap_list": "3",
        "m": Fraction(1), "chi_gamma": 0, "prec_pi": None, "prec_x": None, "seed": 0,
        "out": "d", "jobs": 1, "fn": cli.cmd_scan,
    }


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_scan_jobs_below_one_is_input_error(tmp_path, capsys, jobs):
    outdir = tmp_path / "s"
    assert main(["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3", "--m", "1",
                 "--out", str(outdir), "--jobs", jobs]) == 5
    err = capsys.readouterr().err
    assert err == f"input: --jobs must be at least 1, got {jobs}\n"
    assert not outdir.exists()


@pytest.mark.parametrize("argv", [
    ["alpha", "--p", "0", "--r", "3"],
    ["seed", "--p", "0", "--k", "2", "--ap", "3", "--out", "OUT"],
    ["seed", "--p", "4", "--k", "2", "--ap", "3", "--out", "OUT"],
    ["deform", "--p", "0", "--k", "2", "--ap", "3", "--ap-new", "30", "--m", "1",
     "--out", "OUT"],
    ["scan", "--p", "0", "--k-range", "2:2", "--ap-list", "3", "--m", "1", "--out", "OUT"],
    ["star", "--p", "0", "--vap", "1", "--m", "1"],
    ["star", "--p", "1", "--vap", "1", "--m", "1"],
    ["star", "--p", "9", "--vap", "1", "--m", "1"],
])
def test_bad_p_is_one_domain_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    assert main(argv) == 1
    p = argv[argv.index("--p") + 1]
    assert capsys.readouterr() == ("", f"error: DomainError: p must be an odd prime, got {p}\n")
    assert not out.exists()


@st.composite
def cli_argv(draw):
    """A bounded argument list for one of the commands that start no worker pool."""
    cmd = draw(st.sampled_from(["alpha", "star", "psi", "seed", "deform"]))
    rat = st.sampled_from(["0", "1", "-1", "3", "1/3", "-3/2", "9", "x"])
    level = st.sampled_from(["-1", "0", "1/2", "1", "2"])
    k = draw(st.one_of(st.integers(-1, 4), st.integers(5, 10**6)))
    argv = [cmd, f"--p={draw(st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 9]))}"]
    if cmd == "alpha":
        argv.append(f"--r={k}")
    elif cmd == "star":
        argv += [f"--vap={draw(rat)}", f"--m={draw(level)}"]
    elif cmd == "psi":
        argv += [f"--alpha={draw(rat)}", f"--s={draw(rat)}"]
    else:
        argv += [f"--k={k}", f"--ap={draw(rat)}"]
        if cmd == "deform":
            argv += [f"--ap-new={draw(rat)}", f"--m={draw(level)}"]
    optional = {
        "--e": st.integers(0, 2), "--prec-pi": st.integers(-1, 60),
        "--prec-x": st.integers(-1, 16), "--chi-gamma": st.integers(-1, 10),
    }
    allowed = {"alpha": ["--chi-gamma"], "star": [], "psi": ["--e", "--prec-pi"]}
    for flag in allowed.get(cmd, list(optional)):
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(optional[flag])}")
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
@example(["alpha", "--p=0", "--r=1"])
@example(["star", "--p=1", "--vap=1", "--m=1"])
@example(["alpha", "--p=3", "--r=1000000"])
@example(["deform", "--p=3", "--k=1000000", "--ap=3", "--ap-new=30", "--m=1"])
def test_fuzzed_arguments_end_in_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse refusing the list
            assert exc.code == 2 and err.getvalue().startswith("usage: "), argv
            return
    assert code in range(6), argv
    assert err.getvalue().count("\n") <= 1, argv


STORED = [seed_companion(params, 2, PadicElt.from_int(params, 3), 2, nx)
          for params, nx in ((PadicParams(3, 1, 12), 8), (PadicParams(3, 2, 10), 6))]
HUGE = st.sampled_from([float("inf"), float("-inf"), float("nan"), 10**400, -10**400,
                        "1" + "0" * 400, [10**400], {"cap": 10**400, "digits": ["1"]}])


def _timed_main(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process run, which must end within 1 s."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - t0 < 1.0, argv
    assert err.getvalue().count("\n") <= 1, argv
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_module_file_ends_in_an_exit_code(tmp_path_factory, data):
    # verify and weightstep: neither starts a worker pool
    # fresh files for each example: truncating a non-empty file on open can
    # wait tens of ms on some file systems
    w = data.draw(st.sampled_from(STORED))
    base = tmp_path_factory.mktemp("fuzzed")
    saved, path = base / "saved.json", base / "fuzzed.json"
    save_wach(w, saved)
    path.write_text(data.draw(mutated_text(saved.read_text(), st.one_of(JUNK, HUGE))))
    code, _ = _timed_main(["verify", "--in", str(path)])
    assert code in (1, 5) or (code == 0 and check_axioms(load_wach(path)).ok)
    code, _ = _timed_main(["weightstep", "--in", str(path), "--m", "1"])
    assert code in range(6)


@pytest.mark.parametrize("jobs, points, cpus, size", [
    (1, 5, 4, 1), (4, 5, 4, 4), (10**6, 5, 4, 4), (10**6, 3, 64, 3), (8, 1, 4, 1),
    (3, 9, 1, 1),
])
def test_pool_size_clamps_to_points_and_cpus(monkeypatch, jobs, points, cpus, size):
    # the usable CPUs are faked, so no worker is ever started
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert cli._pool_size(jobs, points) == size


def test_scan_pool_gets_the_clamped_size(monkeypatch, tmp_path, capsys):
    import concurrent.futures

    sizes = []

    class Serial:
        """Stands in for the process pool: records its size, maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Serial)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    base = ["scan", "--p", "3", "--k-range", "2:2", "--m", "1", "--jobs", "1000"]
    assert main(base + ["--ap-list", "3,6,9", "--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--ap-list", "3", "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    assert sizes == [3]      # one grid point runs in this process, with no pool


def test_scan_derived_trace_respects_bound(tmp_path, capsys):
    outdir = tmp_path / "scan"
    assert main(["scan", "--p", "3", "--k-range", "2:2", "--ap-list", "3",
                 "--m", "1", "--out", str(outdir), "--seed", "0"]) == 0
    capsys.readouterr()
    row = _read_rows(outdir)[1]
    ap, ap_new = int(row[1]), int(row[2])
    eps = ap_new - ap
    assert eps % 27 == 0 and eps // 27 % 3 != 0   # exactly valuation 3


# --------------------------------------------------------------------------- #
# installed entry point
# --------------------------------------------------------------------------- #

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "wachdeform.cli", "alpha", "--p", "5", "--r", "20"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


def test_cli_import_leaves_process_pool_out():
    # only scan --jobs > 1 needs a process pool; every other command skips its import
    probe = ("import sys, wachdeform.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --------------------------------------------------------------------------- #
# README examples
# --------------------------------------------------------------------------- #

def _readme_examples():
    """(command, annotation) for each `wachdeform` line of the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [tuple(part.strip() for part in (line.split("#", 1) + [""])[:2])
            for line in lines if line.startswith("wachdeform ")]


def test_readme_examples_match_their_annotations(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)     # the examples write w2.json, cert.json, scan_out
    examples = _readme_examples()
    assert len(examples) == 10
    for command, note in examples:
        code = main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        if note.startswith("exit "):            # "exit 2 (bound)"
            assert code == int(note.split()[1]), command
        elif note.isdigit():                     # a printed value
            assert (code, out.strip()) == (0, note), command
        else:
            assert code == 0, command
