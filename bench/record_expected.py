"""Record the output digests that bench/run.py checks against.

    python3 bench/record_expected.py

Runs every scan_shared and rings_roundtrip input once, and the canonical
character ops, and writes their SHA-256 digests to bench/expected.json.  Run
it only when an output is meant to change, and say why in the change.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import RINGS, WORKLOADS, Program, digest, scan_inputs, scratch_dir  # noqa: E402


def main() -> int:
    prog = Program(HERE.parent / "src")
    expected = {}
    with scratch_dir(HERE.parent) as tmp:
        prog.fresh()
        for name, inputs in (("scan_shared", scan_inputs()), ("rings_roundtrip", RINGS)):
            wl, table = WORKLOADS[name], {}
            for inp in inputs:
                wl.prepare(prog)
                out = wl.op(prog, inp, tmp)
                key = wl.key(inp)
                table[key] = digest(wl.digest_text(out))
                wl.check(prog, inp, out, table)
                print(name, key, table[key], flush=True)
            expected[name] = table
        expected["character"] = {
            "canonical": digest(WORKLOADS["character"].canonical_text(prog, tmp))}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
