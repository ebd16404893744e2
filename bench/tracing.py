"""Per-layer tracing from outside the package.

The tracer wraps the public functions of each module of ``wachdeform`` with
timing spans, at every namespace that binds them (``check_axioms`` is bound in
``wach``, ``deform`` and ``cli``), and restores the originals on ``uninstall``.
A span's self time is its duration minus the time its child spans cover.  The
two hottest element calls are counted only, so the tracing cost stays bounded.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# span name -> (home module, attribute path); functions are patched wherever
# the module namespaces bind the same object, methods on their class
SPANS = {
    "padics.plog": ("padics", "plog"),
    "padics.pexp": ("padics", "pexp"),
    "padics.binom_coeffs": ("padics", "binom_coeffs"),
    "padics.teichmuller": ("padics", "teichmuller_decompose"),
    "series.mul": ("series", "PadicSeries.__mul__"),
    "series.matmul": ("series", "MatrixSeries.__mul__"),
    "series.subst": ("series", "substitute_onepx_power"),
    "series.div_distinguished": ("series", "div_distinguished"),
    "wach.seed": ("wach", "seed_companion"),
    "wach.check_axioms": ("wach", "check_axioms"),
    "wach.save": ("wach", "save_wach"),
    "wach.load": ("wach", "load_wach"),
    "deform.trace": ("deform", "deform_trace"),
    "deform.build_h0": ("deform", "build_h0"),
    "deform.extend_h": ("deform", "extend_h"),
    "deform.correct_gamma": ("deform", "correct_gamma"),
    "trianguline.psi_eval": ("trianguline", "psi_eval"),
    "trianguline.char_eval": ("trianguline", "char_eval"),
    "cli.main": ("cli", "main"),
}

# counted, not timed: these run ~10^5 times per construction op
COUNTS = {
    "padics.elt_new": ("padics", "PadicElt.__init__"),
    "padics.elt_mul": ("padics", "PadicElt.__mul__"),
}


def _ring_key(x):
    return (getattr(x, "params", None), getattr(x, "nx", None))


def _elt_key(x):
    if isinstance(x, int):
        return x
    return (getattr(x, "params", None), getattr(x, "digits", None), getattr(x, "cap", None))


# keyed spans: the key says which table (ring, x-precision, exponent c of
# (1+x)^c - 1) or which psi base alpha a call needs, read from its arguments
KEYS = {
    "series.subst": lambda f, c: (_ring_key(f), _elt_key(c)),
    "trianguline.psi_eval": lambda alpha, s: _elt_key(alpha),
}

# reported per-layer metrics, in report order: (metric, unit)
PER_LAYER = (
    ("padics.elt_new.calls", "calls/op"),
    ("padics.elt_mul.calls", "calls/op"),
    ("padics.plog.calls", "calls/op"),
    ("padics.plog.s", "s/op"),
    ("padics.pexp.s", "s/op"),
    ("padics.binom_coeffs.s", "s/op"),
    ("padics.teichmuller.s", "s/op"),
    ("series.mul.calls", "calls/op"),
    ("series.mul.s", "s/op"),
    ("series.matmul.s", "s/op"),
    ("series.subst.calls", "calls/op"),
    ("series.subst.s", "s/op"),
    ("series.subst.repeat_share", "share"),
    ("series.div_distinguished.s", "s/op"),
    ("wach.seed.s", "s/op"),
    ("wach.seed.self_s", "s/op"),
    ("wach.check_axioms.calls", "calls/op"),
    ("wach.check_axioms.s", "s/op"),
    ("wach.save.s", "s/op"),
    ("wach.load.s", "s/op"),
    ("deform.trace.self_s", "s/op"),
    ("deform.build_h0.s", "s/op"),
    ("deform.extend_h.s", "s/op"),
    ("deform.correct_gamma.s", "s/op"),
    ("trianguline.psi_eval.calls", "calls/op"),
    ("trianguline.psi_eval.s", "s/op"),
    ("trianguline.psi_eval.alpha_repeat_share", "share"),
    ("trianguline.char_eval.s", "s/op"),
    ("cli.main.self_s", "s/op"),
    ("trace.overhead_s", "s/op"),
)


def _resolve(module, path: str):
    """(owner, attribute name, current value) for 'func' or 'Class.method'."""
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Spans and counts in memory; per-op figures are read by ``metrics``."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.repeats: Counter = Counter()
        self.ops = 0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self._modules = None
        self._seen: dict[str, set] = defaultdict(set)      # keys used by finished ops
        self._op_keys: dict[str, set] = defaultdict(set)   # keys used by the current op

    # -- installation ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every target in ``modules`` (short name -> module object).

        A new set of module objects means fresh program state, so the record
        of which keys earlier ops used starts over.
        """
        self.uninstall()
        if modules is not self._modules:
            self._modules = modules
            self._seen.clear()
        for name, (home, path) in SPANS.items():
            self._wrap(modules, home, path, self._span(name, KEYS.get(name)))
        for name, (home, path) in COUNTS.items():
            self._wrap(modules, home, path, self._counter(name))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, modules: dict, home: str, path: str, make) -> None:
        try:
            owner, attr, original = _resolve(modules[home], path)
        except (KeyError, AttributeError):
            if path not in self.missing:
                self.missing.append(path)
                print(f"trace: {home}.{path} not found; its metrics read 0", file=sys.stderr)
            return
        wrapper = functools.wraps(original)(make(original))
        if "." in path:       # a method: the class is shared by every namespace
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in modules.values():
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _counter(self, name: str):
        calls = self.calls

        def make(fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted
        return make

    def _span(self, name: str, keyfn):
        def make(fn):
            def spanned(*args, **kwargs):
                if keyfn is not None:
                    key = keyfn(*args, **kwargs)
                    if key in self._seen[name]:
                        self.repeats[name] += 1
                    self._op_keys[name].add(key)
                frame = [0.0]
                self._stack.append(frame)
                self._active[name] += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    self._stack.pop()
                    self._active[name] -= 1
                    self.calls[name] += 1
                    self.self_s[name] += dur - frame[0]
                    if not self._active[name]:   # recursion is counted once
                        self.total_s[name] += dur
                    if self._stack:
                        self._stack[-1][0] += dur
            return spanned
        return make

    # -- op boundaries and results ---------------------------------------------

    def end_op(self, measured: bool = True) -> None:
        """Close an op: its keys count as 'used by an earlier op' from now on."""
        for name, keys in self._op_keys.items():
            self._seen[name] |= keys
        self._op_keys.clear()
        if measured:
            self.ops += 1

    def reset_stats(self) -> None:
        """Drop counts and times (after warm-up), keeping the record of used keys."""
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.repeats.clear()
        self.ops = 0

    def metrics(self, overhead_s: float) -> dict:
        ops = max(self.ops, 1)
        out = {}
        for metric, unit in PER_LAYER:
            span, stat = metric.rsplit(".", 1)
            if metric == "trace.overhead_s":
                value = overhead_s
            elif stat == "calls":
                value = self.calls[span] / ops
            elif stat == "s":
                value = self.total_s[span] / ops
            elif stat == "self_s":
                value = self.self_s[span] / ops
            else:  # repeat shares
                value = self.repeats[span] / self.calls[span] if self.calls[span] else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out
