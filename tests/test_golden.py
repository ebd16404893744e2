"""Golden outputs: SHA-256 digests of seed files, deformation certificates and
`psi` output.

The order-by-order solver behind `seed_companion` and `correct_gamma` decides
every digit and cap the files hold, and the log/exp and binomial kernels every
digit `psi` prints, so a refactor of either that moves a single byte shows up
here.  A digest may change only together with a deliberate,
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

# (p, e, prec_pi, alpha, s) -> digest of `psi` stdout: both series routes and
# the cap they agree at
PSIS = {
    ("3", "1", "24", "4", "-5/2"): "ee6dc2ac6e3e3a8f1b88220633c176975aa1200d0737db8afa3c7b20b6cd217e",
    ("3", "1", "200", "4", "-5/2"): "89ebb25b9066da3b1b993f350bf94b6c010febe33a9c7a00400bd6ae53bca695",
    ("3", "2", "24", "4", "-5/2"): "68f4e871a9b196007c6ce0b87ac06d5ca0883941b6d08eb1958206c7f7cb014a",
    ("3", "2", "200", "4", "-5/2"): "2ef48669dbfe06d411bb23655b515076f348d221deb73f15dc8a18bb8b56e8bb",
    ("3", "3", "24", "4", "-5/2"): "88eda06b0f0ad0059f77c584ee3a0d3ad34da8696d59a1db1753acbb6ad85b33",
    ("3", "3", "200", "4", "-5/2"): "29b7ae8f65dddc9919b6871184508403cd739847317cb67948a12ce835e88d90",
    ("5", "1", "24", "31/6", "-5/2"): "e7bf0a12c9d05def7d8604ea57fae6e6b1cb09b4002049da3344e336bd852921",
    ("5", "1", "200", "31/6", "-5/2"): "13c04cfa7a455625cd9030110d8309b3aa05d670274d546b96804ca4909e546f",
    ("5", "2", "24", "31/6", "-5/2"): "82c6bfde47acbf5bea0d68f8dcda3abf54648b8472ca9267763d514ebf6ded6b",
    ("5", "2", "200", "31/6", "-5/2"): "9ca169c48edaa4ea5ffe76994c2e17653ab11428ae11a9cda5b36691d9f598d1",
    ("5", "3", "24", "31/6", "-5/2"): "16ada41fbed898a9808d8b78f6755078779eb7ce37b03b1f3f59dfc5fdffbea0",
    ("5", "3", "200", "31/6", "-5/2"): "dc90fc25a59e184c46b6a0ceed6a1b50f72a65645ee0cba987e3e48fe268a0ce",
    ("7", "1", "24", "-6", "-5/2"): "de772dc609e3c72b6469901f694aa424b3203d1fe459d80ebc11d8be32f7c785",
    ("7", "1", "200", "-6", "-5/2"): "399b5ce01501c39648d1873ed31c4eaac15eb905798a1608236ff7383b27fca9",
    ("7", "2", "24", "-6", "-5/2"): "f5a4c3dcb26fb29e624927c5f364c5c12a41d9e8f6225011e910b527b9bb6395",
    ("7", "2", "200", "-6", "-5/2"): "43a2c60f306e8166682d78091ffb294be58ba2c42ee3805bb662499294c30129",
    ("7", "3", "24", "-6", "-5/2"): "b25e09178d0f07e17f9f7580961b4910b92f756a6b2d799eb99e81ca1f38956d",
    ("7", "3", "200", "-6", "-5/2"): "e0024a19068ddbdfc0f62136222320072e6cd26b36187d8e1584f7d07340dba8",
    ("3", "1", "1024", "4", "1/2"): "714dbec3c803a792695ea3d7eb4593e3d69d2630873e57d4d9e85f006e655416",
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


@pytest.mark.parametrize(
    "case", PSIS, ids=lambda c: "p{}-e{}-cap{}-alpha{}-s{}".format(*c).replace("/", "_")
)
def test_golden_psi_stdout(case, capsys):
    p, e, prec, alpha, s = case
    argv = ["psi", "--p", p, "--e", e, "--prec-pi", prec, f"--alpha={alpha}", f"--s={s}"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PSIS[case]
