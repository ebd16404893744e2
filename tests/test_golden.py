"""Golden outputs: SHA-256 digests of seed files and deformation certificates.

The order-by-order solver behind `seed_companion` and `correct_gamma` decides
every digit and cap these files hold, so a refactor of it that moves a single
byte shows up here.  A digest may change only together with a deliberate,
documented change of the output.
"""
import hashlib

import pytest

from wachdeform.cli import main

# (p, e, k, a_p) -> digest of the `seed --out` module file
SEEDS = {
    ("3", "1", "5", "0"): "987669d4e58c3fcc226dfe7f4e03343f0b8317de4ab2232f52400ea2924505ef",
    ("3", "1", "8", "0"): "5440e7f6f6a907cd1b5c8967835b7e081464b18e023f47d17264802e332b875f",
    ("5", "1", "6", "0"): "b9fb9ddcee6ee966d1624284f11db33314fe9e3d26cd1107468c63b535fd29f5",
    ("7", "1", "6", "0"): "aeccfe6c30706922d84ebfc3f8a51ffc42c0c10324b4987d45b3cc01d0fc12af",
    ("3", "2", "2", "3"): "f3dbccb6ff4be78a59bb75267d8651e000a9a2be3724944ecfc29d515ab0e0f9",
    ("3", "2", "3", "0"): "69de384053086cb288a36aa5dc402b2e0407a6ec4340c1a5d2bce50a4a529473",
    ("3", "1", "2", "3"): "3e8f00167a2a21b1182fb2a45af383fa0e239b9ca93fdbcb5d29015cf60137fc",
    ("5", "1", "2", "5"): "f227ea1aafdf55ce6b705a4b9c28f0ebf765a1967f5a2947baa2725ab353db8e",
    # e >= 3: the seed's digit planes past the first are mostly zero
    ("3", "3", "2", "3"): "169819d31fd3b1cd13aba5244870c8e034c9124c9759d842993cb3eb2dc1a178",
    ("5", "3", "2", "5"): "0f07bce40a21fd18bd97621bf541b63685eb15e50ecbaa77187e186752d69a63",
    ("3", "4", "3", "0"): "b8d8f3bfcb9f3bf11f634f124b02c012838f592a19007fe71e985b8c6e51e1e2",
}

# (p, e, k, a_p, a'_p, m) -> digest of the `deform --out` certificate file
DEFORMS = {
    ("3", "1", "2", "0", "0", "1"): "94ad825d7e15395f3a0f7fbaa11ad657f8db1206e685b8064a257978ef4143eb",
    ("3", "1", "4", "0", "0", "1"): "bd75c380c5192284545d169047f0ab211539501f5f567d54bc4b8f234730f507",
    ("3", "2", "2", "3", "246", "1/2"): "b2cb4e71de6b8b4220d584bdea6d0ea61c5fef1dffad448ad9b3760e2f7f2640",
    ("5", "1", "2", "5", "130", "1"): "0f5f50a68db0ef4967e3c7828dee8cfba0a76355557578a239cd2c1ff26e2ede",
    ("7", "1", "2", "7", "350", "1"): "c9a3802e76dfc3bae4ac023884edc9db54c0f6d41ef403b36a68219cbfd85614",
    ("3", "1", "2", "3", "30", "1"): "7cfdbeb8249b7ed77504be51d1fc45c63d56e66b1348dbd3ca87f48ab82ff692",
    ("3", "3", "2", "3", "84", "1/3"): "6819a380f0985edecbed52e9409754cf02d9e3f15490b089331896d88f8dd652",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", SEEDS, ids=lambda c: "p{}-e{}-k{}-ap{}".format(*c))
def test_golden_seed_file(case, tmp_path):
    p, e, k, ap = case
    out = tmp_path / "module.json"
    assert main(["seed", "--p", p, "--e", e, "--k", k, "--ap", ap, "--out", str(out)]) == 0
    assert _digest(out) == SEEDS[case]


@pytest.mark.parametrize(
    "case", DEFORMS, ids=lambda c: "p{}-e{}-k{}-ap{}-to{}-m{}".format(*c).replace("/", "_")
)
def test_golden_deform_certificate(case, tmp_path):
    p, e, k, ap, ap_new, m = case
    out = tmp_path / "cert.json"
    argv = ["deform", "--p", p, "--e", e, "--k", k, "--ap", ap, "--ap-new", ap_new,
            "--m", m, "--out", str(out)]
    assert main(argv) == 0
    assert _digest(out) == DEFORMS[case]
