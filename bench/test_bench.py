"""Tests of the benchmark itself: seeded inputs, failure accounting, layer predictions.

    python3 -m pytest bench
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

import run
from tracing import PER_LAYER, Tracer
from workloads import RINGS, WORKLOADS, Character, Program, RingsRoundtrip, ScanShared

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@pytest.fixture
def prog():
    p = Program(SRC)
    p.fresh()
    yield p
    p.set_tracer(None)


def first_blocks(name: str, seed: int, n: int = 3):
    return list(itertools.islice(WORKLOADS[name].blocks(seed), n))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    expected = json.loads((HERE / "expected.json").read_text())
    assert set(expected) == set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    assert first_blocks(name, 7) == first_blocks(name, 7)
    assert first_blocks(name, 7) != first_blocks(name, 8)


def test_every_ring_runs_once_per_block():
    for block in first_blocks("rings_roundtrip", 3):
        assert sorted(block) == sorted(RINGS)


# --------------------------------------------------------------------------- #
# a corrupted output is a failed op
# --------------------------------------------------------------------------- #

def _flip_digit(text: str, after: str) -> str:
    i = text.index(after) + len(after)
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


class CorruptScan(ScanShared):
    def op(self, prog, inp, tmp):
        code, path = super().op(prog, inp, tmp)
        path.write_text(_flip_digit(path.read_text(), '"ap_new"'))
        return code, path


class CorruptRing(RingsRoundtrip):
    def op(self, prog, inp, tmp):
        out = super().op(prog, inp, tmp)
        path = out[3]
        path.write_text(_flip_digit(path.read_text(), '"G"'))
        return out


class CorruptCharacter(Character):
    def op(self, prog, inp, tmp):
        psis, chars = super().op(prog, inp, tmp)
        ps, pt, pst = psis
        return (ps, pt, pst + prog.modules["padics"].PadicElt.one(pst.params)), chars


@pytest.mark.parametrize("good, bad, inp", [
    (ScanShared(), CorruptScan(), (9, 252)),
    (RingsRoundtrip(), CorruptRing(), (3, 1, 2, 3)),
    (Character(), CorruptCharacter(), next(WORKLOADS["character"].blocks(0))[0]),
])
def test_corrupted_output_counts_as_failed_op(prog, tmp_path, good, bad, inp):
    expected = json.loads((HERE / "expected.json").read_text())[good.name]
    tally = run.Tally()
    assert run.run_op(good, prog, inp, tmp_path, expected, tally) is not None
    assert run.run_op(bad, prog, inp, tmp_path, expected, tally) is None
    assert (tally.attempted, tally.failed) == (2, 1)


def test_changed_digest_counts_as_failed_op(prog, tmp_path):
    wl = WORKLOADS["character"]
    tally = run.Tally()
    for check in wl.run_checks(prog, tmp_path, {"canonical": "0" * 64}):
        tally.attempt(check)
    assert (tally.attempted, tally.failed) == (2, 1)


# --------------------------------------------------------------------------- #
# per-layer predictions: what fires on which workload, and what stays zero
# --------------------------------------------------------------------------- #

def traced_metrics(prog, tmp, workload, inputs):
    tracer = Tracer()
    prog.set_tracer(tracer)
    workload.warm_up(prog, tmp)
    prog.set_tracer(None)
    tracer.end_op(measured=False)
    tracer.reset_stats()
    tally = run.Tally()
    expected = json.loads((HERE / "expected.json").read_text())[workload.name]
    for inp in inputs:
        run.run_op(workload, prog, inp, tmp, expected, tally, tracer)
    assert tally.failed == 0 and not tracer.missing
    return {name: m["value"] for name, m in tracer.metrics(0.0).items()}


def _with(metrics: dict, *prefixes) -> list[str]:
    """Metric names starting with any prefix; a prefix may be a tuple of them."""
    flat = tuple(x for p in prefixes for x in ((p,) if isinstance(p, str) else p))
    return [m for m in metrics if m.startswith(flat)]


CHAR_SIDE = ("trianguline.", "padics.plog", "padics.pexp", "padics.binom", "padics.teich")
CONSTRUCTION = ("series.", "wach.seed", "wach.check_axioms")


def test_layers_on_scan_shared(prog, tmp_path):
    m = traced_metrics(prog, tmp_path, WORKLOADS["scan_shared"], [(3, 30), (18, 504)])
    fires = _with(m, "padics.elt_", CONSTRUCTION, "deform.", "cli.main")
    assert all(m[k] > 0 for k in fires), {k: m[k] for k in fires if not m[k] > 0}
    assert all(m[k] == 0 for k in _with(m, CHAR_SIDE, "wach.save", "wach.load"))
    assert m["series.subst.repeat_share"] == 1.0
    assert m["wach.check_axioms.calls"] == 3


def test_layers_on_rings_roundtrip(prog, tmp_path):
    m = traced_metrics(prog, tmp_path, WORKLOADS["rings_roundtrip"], [(3, 1, 2, 3), (3, 2, 2, 3)])
    fires = [k for k in _with(m, "padics.elt_", CONSTRUCTION, "wach.", "cli.main")
             if k != "series.subst.repeat_share"]
    assert all(m[k] > 0 for k in fires), {k: m[k] for k in fires if not m[k] > 0}
    assert all(m[k] == 0 for k in _with(m, CHAR_SIDE, "deform."))
    assert m["series.subst.repeat_share"] == 0.0


def test_layers_on_character(prog, tmp_path):
    wl = WORKLOADS["character"]
    m = traced_metrics(prog, tmp_path, wl, next(wl.blocks(0)) * 8)
    fires = _with(m, "padics.", "trianguline.")
    assert all(m[k] > 0 for k in fires), {k: m[k] for k in fires if not m[k] > 0}
    assert all(m[k] == 0 for k in _with(m, "series.", "wach.", "deform.", "cli."))
    assert 0 < m["trianguline.psi_eval.alpha_repeat_share"] < 1


def test_untraced_run_reports_every_end_to_end_metric(tmp_path, capsys):
    wl = WORKLOADS["character"]
    expected = json.loads((HERE / "expected.json").read_text())[wl.name]
    tally = run.Tally()
    args = Namespace(seed=1, seconds=0.6)
    metrics, context = run.untraced_run(wl, Program(SRC), args, tmp_path, expected, tally)
    assert list(metrics) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in metrics.values())
    assert context["probes"] >= 3 and tally.failed == 0


def test_traced_run_reports_every_per_layer_metric(tmp_path, capsys):
    wl = WORKLOADS["character"]
    expected = json.loads((HERE / "expected.json").read_text())[wl.name]
    tally = run.Tally()
    args = Namespace(seed=1, seconds=0.2)
    metrics, _ = run.traced_run(wl, Program(SRC), args, tmp_path, expected, tally)
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert tally.attempted > 2 and tally.failed == 0


# --------------------------------------------------------------------------- #
# without the program, the benchmark refuses to run
# --------------------------------------------------------------------------- #

def test_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "character", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
