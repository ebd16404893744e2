"""The benchmark's workloads: seeded inputs, one op each, and output checks.

Every op goes through a public entry point of ``wachdeform``: ``cli.main`` for
the construction workloads, the ``trianguline`` functions for the character
side.  The program only ever sees the generated inputs.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import shutil
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

PACKAGE = "wachdeform"
MODULES = ("padics", "series", "wach", "deform", "trianguline", "cli")


class CheckFailed(Exception):
    """An op's output is wrong; the op counts as failed."""


class Program:
    """The package under test, imported from a source tree.

    ``fresh`` drops every module of the package, collects the garbage they
    leave and imports the package again, so no table or cache survives from
    earlier work: each fresh import stands for a new process.  When a tracer
    is set, it is installed on each fresh import.
    """

    def __init__(self, src: Path) -> None:
        self.src = Path(src).resolve()
        self.tracer = None
        self.modules: dict = {}

    def fresh(self) -> None:
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        self.modules = {}
        gc.collect()
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        self.modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        origin = Path(self.modules["cli"].__file__).resolve()
        if self.src not in origin.parents:
            raise ImportError(f"{PACKAGE} was imported from {origin}, not from {self.src}")
        if self.tracer is not None:
            self.tracer.install(self.modules)

    def set_tracer(self, tracer) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()
        self.tracer = tracer
        if tracer is not None and self.modules:
            tracer.install(self.modules)

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run ``wachdeform.cli.main(argv)``; returns (exit code, stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.modules["cli"].main(argv)
            except SystemExit as exc:   # argparse refusals exit instead of returning
                code = exc.code
        return code, buf.getvalue()


@contextlib.contextmanager
def scratch_dir(root: Path):
    """A private directory for output files under ``root/.bench_tmp``, removed after."""
    parent = Path(root) / ".bench_tmp"
    path = parent / str(os.getpid())
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _expect_digest(expected: dict, key: str, text: str) -> None:
    want = expected.get(key)
    _expect(want is not None, f"no recorded digest for {key}")
    _expect(digest(text) == want, f"output digest of {key} differs from the recorded one")


class Workload:
    """Inputs arrive in blocks; a run measures whole blocks only."""

    name = ""

    def blocks(self, seed: int):
        """Endless seeded stream of input blocks."""
        raise NotImplementedError

    def warm_up(self, prog: Program, tmp: Path) -> None:
        """Untimed work run once per set-up, after the import, on inputs that
        the timed stream never holds."""

    def prepare(self, prog: Program) -> None:
        """Untimed work before each op."""

    def op(self, prog: Program, inp, tmp: Path):
        """The timed call into the program; returns what ``check`` inspects."""
        raise NotImplementedError

    def check(self, prog: Program, inp, out, expected: dict) -> None:
        raise NotImplementedError

    def run_checks(self, prog: Program, tmp: Path, expected: dict) -> list:
        """Once-per-run checks, each a callable that raises on failure."""
        return []


# --------------------------------------------------------------------------- #
# scan_shared: seed -> deform -> certificate, every op in one ring
# --------------------------------------------------------------------------- #

def scan_inputs() -> list[tuple[int, int]]:
    """(a_p, a'_p) at p=3, k=2, m=1 with a_p = 3^v u and a'_p = a_p + r 3^(2v+1).

    v(a'_p - a_p) = 2v + 1 = 2 v(a_p) + alpha(1) + m meets the deformation bound
    exactly, the rule ``scan`` uses; a unit a_p is left out because its seed
    stops at order 1 (exit 4).
    """
    return [(3**v * u, 3**v * u + r * 3 ** (2 * v + 1))
            for v in (1, 2) for u in (1, 2, 4, 5) for r in (1, 2)]


class ScanShared(Workload):
    name = "scan_shared"

    def blocks(self, seed: int):
        rng = random.Random(f"scan_shared:{seed}")
        pool = scan_inputs()
        while True:
            rng.shuffle(pool)
            for pair in pool:
                yield [pair]

    def warm_up(self, prog, tmp):
        # seeding a_p = 21 (u = 7, outside the timed pool) builds the tables
        # of the ring every timed op uses: p = 3, cap 37, nx 32, c = 3 and 2
        code, _ = prog.cli(["seed", "--p", "3", "--k", "2", "--ap", "21"])
        _expect(code == 0, f"warm-up seed exited {code}")

    def op(self, prog, inp, tmp):
        ap, ap_new = inp
        out = tmp / "cert.json"
        code, _ = prog.cli(["deform", "--p", "3", "--k", "2", "--ap", str(ap),
                            "--ap-new", str(ap_new), "--m", "1", "--out", str(out)])
        return code, out

    def key(self, inp):
        return f"{inp[0]}:{inp[1]}"

    def digest_text(self, out) -> str:
        return canonical_json(json.loads(out[1].read_text())["certificate"])

    def check(self, prog, inp, out, expected):
        code, path = out
        _expect(code == 0, f"deform exited {code}")
        check_certificate(json.loads(path.read_text())["certificate"])
        _expect_digest(expected, self.key(inp), self.digest_text(out))


def check_certificate(cert: dict) -> None:
    _expect(cert.get("pass") is True, "certificate does not pass")
    vals = [Fraction(v) for v in cert["h_valuations"]]
    floors = [Fraction(v) for v in cert["h_floors"]]
    _expect(len(vals) == len(floors) and all(v >= f for v, f in zip(vals, floors)),
            "an H valuation lies below its floor")


# --------------------------------------------------------------------------- #
# rings_roundtrip: seed, save, load, verify, one op per distinct ring
# --------------------------------------------------------------------------- #

# (p, e, k, a_p): caps from 27 to 201, x-precision 32 to 56
RINGS = (
    (3, 1, 2, 3), (3, 2, 2, 3), (3, 1, 5, 0), (3, 1, 8, 0), (5, 1, 2, 10),
    (5, 1, 6, 0), (7, 1, 2, 7), (7, 1, 6, 0), (7, 1, 10, 0),
)


class RingsRoundtrip(Workload):
    name = "rings_roundtrip"

    def blocks(self, seed: int):
        rng = random.Random(f"rings_roundtrip:{seed}")
        while True:
            block = list(RINGS)
            rng.shuffle(block)
            yield block

    def prepare(self, prog):
        prog.fresh()    # no op may find tables left behind by an earlier one

    def op(self, prog, inp, tmp):
        p, e, k, ap = inp
        path = tmp / "module.json"
        seed_code, _ = prog.cli(["seed", "--p", str(p), "--e", str(e), "--k", str(k),
                                 "--ap", str(ap), "--out", str(path)])
        verify_code, verdicts = prog.cli(["verify", "--in", str(path)])
        return seed_code, verify_code, verdicts, path

    def key(self, inp):
        return ":".join(map(str, inp))

    def check(self, prog, inp, out, expected):
        seed_code, verify_code, verdicts, path = out
        _expect(seed_code == 0, f"seed exited {seed_code}")
        _expect(verify_code == 0, f"verify exited {verify_code}")
        _expect("FAIL" not in verdicts, "verify reported a failed axiom")
        wach = prog.modules["wach"]
        again = path.with_name("module.reloaded.json")
        wach.save_wach(wach.load_wach(path), again)
        _expect(again.read_text() == path.read_text(),
                "reloaded module differs from the seeded one")
        _expect_digest(expected, self.key(inp), self.digest_text(out))

    def digest_text(self, out) -> str:
        return canonical_json(json.loads(out[3].read_text()))


# --------------------------------------------------------------------------- #
# character: psi and delta multiplicativity, no series at all
# --------------------------------------------------------------------------- #

CHAR_P, CHAR_CAP = 3, 20
ALPHAS = (4, 7, 10, 13)
CANONICAL_SEED, CANONICAL_OPS = 0, 16


@dataclass(frozen=True)
class CharInput:
    alpha: int
    s: int
    t: int
    s_char: int
    x: int
    y: int


def _unit_times_ppow(rng: random.Random) -> int:
    u = rng.randrange(1, CHAR_P**CHAR_CAP)
    while u % CHAR_P == 0:
        u = rng.randrange(1, CHAR_P**CHAR_CAP)
    return CHAR_P ** rng.randrange(3) * u


def character_inputs(seed: int):
    rng = random.Random(f"character:{seed}")
    top = CHAR_P**CHAR_CAP
    while True:
        yield CharInput(
            alpha=rng.choice(ALPHAS), s=rng.randrange(top), t=rng.randrange(top),
            s_char=rng.randrange(top), x=_unit_times_ppow(rng), y=_unit_times_ppow(rng),
        )


def _elt_text(x) -> str:
    return f"{list(x.digits)}/{x.cap}"


class Character(Workload):
    name = "character"

    def blocks(self, seed: int):
        for inp in character_inputs(seed):
            yield [inp]

    def warm_up(self, prog, tmp):
        stream = character_inputs("warm-up")
        for _ in range(20):
            self.op(prog, next(stream), tmp)

    def op(self, prog, inp, tmp):
        pad, tri = prog.modules["padics"], prog.modules["trianguline"]
        params = pad.PadicParams(CHAR_P, 1, CHAR_CAP)

        def elt(n):
            return pad.PadicElt.from_int(params, n)

        alpha, s, t = elt(inp.alpha), elt(inp.s), elt(inp.t)
        psis = (tri.psi_eval(alpha, s), tri.psi_eval(alpha, t), tri.psi_eval(alpha, s + t))
        delta = tri.TriCharacter(k=4, a_p=elt(3), s=elt(inp.s_char))
        x, y = elt(inp.x), elt(inp.y)
        chars = (tri.char_eval(delta, x), tri.char_eval(delta, y), tri.char_eval(delta, x * y))
        return psis, chars

    def check(self, prog, inp, out, expected):
        (ps, pt, pst), (cx, cy, cxy) = out
        _expect((pst - ps * pt).is_zero_at_cap(), "psi(s+t) != psi(s) psi(t) at cap")
        prod = cx.mul(cy)
        _expect(prod.exp == cxy.exp and (prod.mantissa - cxy.mantissa).is_zero_at_cap(),
                "delta(xy) != delta(x) delta(y) at cap")

    def output_text(self, out) -> str:
        psis, chars = out
        return " ".join([_elt_text(v) for v in psis]
                        + [f"{c.exp}:{_elt_text(c.mantissa)}" for c in chars])

    def canonical_text(self, prog, tmp) -> str:
        """Outputs of the first ops of the default seed, one line per op."""
        stream = character_inputs(CANONICAL_SEED)
        lines = []
        for _ in range(CANONICAL_OPS):
            inp = next(stream)
            out = self.op(prog, inp, tmp)
            self.check(prog, inp, out, {})
            lines.append(self.output_text(out))
        return "\n".join(lines)

    def run_checks(self, prog, tmp, expected):
        def canonical():
            _expect_digest(expected, "canonical", self.canonical_text(prog, tmp))

        def psi_square_root():
            code, out = prog.cli(["psi", "--p", "3", "--alpha", "4", "--s", "1/2",
                                  "--prec-pi", str(CHAR_CAP)])
            _expect(code == 0, f"psi exited {code}")
            lift, _, cap = out.strip().partition(" (mod 3^")
            _expect(int(cap.rstrip(")")) >= 18, "psi_4(1/2) carries fewer than 18 digits")
            _expect((int(lift) + 2) % 3**18 == 0, "psi_4(1/2) != -2 mod 3^18")

        return [canonical, psi_square_root]


WORKLOADS = {w.name: w for w in (ScanShared(), RingsRoundtrip(), Character())}
