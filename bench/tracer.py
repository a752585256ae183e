"""In-process tracing of engelcalc, installed from the benchmark.

``Tracer.install`` replaces each public function of the layer modules with a
timing wrapper, in the defining module and wherever ``from ... import`` has
re-bound it (``cli`` and ``engelcheck`` import most of ``framecalc`` and
``engelcheck`` by name), and ``uninstall`` puts the originals back.

Every wrapped call records its self time: its duration minus the time its
wrapped children cover.  Calls into the layers record one span each (name,
start, end, self time, the span that caused it, and the item it belongs to).
The scalar operations of ``trigring`` run hundreds of thousands of times per
item, so they are not recorded one span per call: their calls and self time
are summed under the enclosing span instead.  The tracer's own bookkeeping is
excluded from every self time; it shows up only in ``trace.overhead_ratio``.
"""

from __future__ import annotations

import inspect
import itertools
import sys
import time
from collections import defaultdict

LAYERS = ("trigring", "framecalc", "engelcheck", "catalog", "manifest",
          "geiges", "laws", "cli")

# trigring is all hot scalar arithmetic: wrap only the TrigScalar operations
# a metric asks for, and parse
TRIG_METHODS = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add",
                "__radd__": "add", "differentiate": "differentiate",
                "evaluate": "evaluate"}

ENGEL_STAGES = ("verify_engel", "characteristic_foliation", "j_invariance_check",
                "complex_framing", "defining_forms", "structure_functions",
                "nijenhuis_certificate", "jofreeb_residual", "j_engel_splitting",
                "k_engel_check", "transverse_engel_check")
FRAMECALC_OPS = ("bracket", "det_of_fields", "exterior_derivative", "wedge",
                 "certify_nonvanishing", "certify_vanishing")


def _public_functions(module) -> dict[str, object]:
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}          # name -> [calls, self s]
        self.spans: list[tuple] = []               # closed spans
        self.hot: dict[tuple, list] = {}           # (span id, name) -> [calls, self s]
        self.counters: dict[str, int] = defaultdict(int)
        self.mul_pairs: set[tuple] = set()
        self.items: list[str] = []
        self._stack: list[list] = [[0.0]]          # child time of each open call
        self._open: list[int] = [0]                # ids of open spans; 0 = none
        self._item = -1
        self._next_id = itertools.count(1).__next__
        self._patches: list[tuple] = []
        self._hooks = self._post_hooks()

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        mods = {name: sys.modules[f"engelcalc.{name}"] for name in LAYERS}
        trig = mods["trigring"]
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for attr, op in TRIG_METHODS.items():
            fn = getattr(trig.TrigScalar, attr)
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, f"trigring.{op}", hot=True)
            self._patch(trig.TrigScalar, attr, fn, wrappers[id(fn)])
        space = mods["framecalc"].FramedSpace
        self._patch(space, "validate", space.validate,
                    self._wrap(space.validate, "framecalc.validate", hot=False))
        originals: dict[int, object] = {}
        for layer, mod in mods.items():
            funcs = {"parse": trig.parse} if layer == "trigring" else _public_functions(mod)
            for name, fn in funcs.items():
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}",
                                              hot=layer == "trigring")
                originals[id(fn)] = fn
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "engelcalc"
                                   or mod_name.startswith("engelcalc.")):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in originals and val is originals[id(val)]:
                    self._patch(mod, attr, val, wrappers[id(val)])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- items -------------------------------------------------------------------

    def run_item(self, label: str, fn):
        """Call ``fn()`` as the root span ``item`` of a new item."""
        self.items.append(label)
        self._item = len(self.items) - 1
        try:
            return self._wrap(fn, "item", hot=False)()
        finally:
            self._item = -1

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, name: str, hot: bool):
        clock = time.perf_counter
        stack, open_spans, spans, hot_agg = self._stack, self._open, self.spans, self.hot
        total = self.totals.setdefault(name, [0, 0.0])
        post = self._hooks.get(name)
        next_id = self._next_id
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if not hot:
                span_id = next_id()
                parent = open_spans[-1]
                open_spans.append(span_id)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                self_time = t1 - t0 - frame[0]
                total[0] += 1
                total[1] += self_time
                if hot:
                    key = (open_spans[-1], name)
                    agg = hot_agg.get(key)
                    if agg is None:
                        hot_agg[key] = [1, self_time]
                    else:
                        agg[0] += 1
                        agg[1] += self_time
                else:
                    open_spans.pop()
                    spans.append((span_id, parent, tracer._item, name, t0, t1,
                                  self_time))
                if ok and post is not None:
                    post(args, result)
                stack[-1][0] += clock() - t0

        wrapper.__wrapped__ = fn
        return wrapper

    def _post_hooks(self) -> dict:
        counters, pairs = self.counters, self.mul_pairs

        def mul(args, result):
            a, b = args
            pairs.add((hash(a), hash(b) if type(b) is type(a) else ("c", b)))
            counters["mul.result_terms"] += len(result.terms())

        def grid(args, result):
            counters["grid_points.points"] += len(result[0])

        def cert(result):
            counters[f"cert.{result.kind.lower()}"] += 1

        def nonvanishing(args, result):
            counters["witness_terms_max"] = max(counters["witness_terms_max"],
                                                len(args[0].terms()))
            cert(result)

        def vanishing(args, result):
            for s in args[0]:
                counters["witness_terms_max"] = max(counters["witness_terms_max"],
                                                    len(s.terms()))
            cert(result)

        return {"trigring.mul": mul, "framecalc.grid_points": grid,
                "framecalc.certify_nonvanishing": nonvanishing,
                "framecalc.certify_vanishing": vanishing}

    # -- results -----------------------------------------------------------------

    def _calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0])[0]

    def _self_ms(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0])[1] * 1e3

    def metrics(self, items: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}

        def calls_and_self(name: str) -> None:
            out[f"{name}.calls"] = (self._calls(name), "count")
            out[f"{name}.self_ms"] = (self._self_ms(name), "ms")

        for op in ("mul", "add", "differentiate", "evaluate", "parse"):
            calls_and_self(f"trigring.{op}")
        evals = self._calls("trigring.evaluate")
        out["trigring.evaluate.us_per_call"] = (
            self._self_ms("trigring.evaluate") * 1e3 / evals if evals else 0.0, "us")
        muls = self._calls("trigring.mul")
        out["trigring.mul.distinct_ratio"] = (
            len(self.mul_pairs) / muls if muls else 0.0, "ratio")
        out["trigring.mul.result_terms_mean"] = (
            self.counters["mul.result_terms"] / muls if muls else 0.0, "terms")
        for op in FRAMECALC_OPS:
            calls_and_self(f"framecalc.{op}")
        out["framecalc.validate.self_ms"] = (self._self_ms("framecalc.validate"), "ms")
        out["framecalc.grid_points.points"] = (
            self.counters["grid_points.points"], "count")
        out["framecalc.witness_terms_max"] = (self.counters["witness_terms_max"], "terms")
        for kind in ("symbolic", "sampled", "failed"):
            out[f"framecalc.cert.{kind}"] = (self.counters[f"cert.{kind}"], "count")
        for stage in ENGEL_STAGES:
            calls_and_self(f"engelcheck.{stage}")
        out["engelcheck.verify_engel.calls_per_item"] = (
            self._calls("engelcheck.verify_engel") / items if items else 0.0, "count")
        for name in ("catalog.build_family", "catalog.check_quoted_brackets",
                     "manifest.load_manifest", "geiges.minimal_n_search",
                     "geiges.residual_decay_fit", "cli.run_verify", "cli.emit_report",
                     "laws.run_law_suite"):
            out[f"{name}.self_ms"] = (self._self_ms(name), "ms")
        return out

    def dump(self) -> dict:
        """Spans, per-span hot-operation sums and totals, ready for JSON."""
        return {
            "items": self.items,
            "span_fields": ["id", "parent", "item", "name", "start_s", "end_s", "self_s"],
            "spans": [list(s) for s in sorted(self.spans)],
            "hot_fields": ["span", "name", "calls", "self_s"],
            "hot": [[span, name, calls, t] for (span, name), (calls, t)
                    in sorted(self.hot.items())],
            "totals": {name: {"calls": c, "self_s": t}
                       for name, (c, t) in sorted(self.totals.items()) if c},
            "counters": dict(sorted(self.counters.items())),
        }
