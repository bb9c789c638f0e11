"""Per-layer tracing from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper in
every package module that binds it.  `from .exactarith import factor` gives
`obstruction` its own global name for `factor`, and the engine resolves such
names at call time, so wrapping only the defining module would miss most
calls.  `uninstall()` puts the original objects back.

Every wrapped call adds to its name's call count, total seconds and self
seconds (total minus the time covered by wrapped callees).  Calls to the
stages and entry points in `SPANNED` are also kept as individual spans
(name, start, end, parent index).
"""

from __future__ import annotations

import sys
import time

# (module, attribute) of every traced name; "Class.method" patches a class.
# Stages and query entry points: every call is also kept as a span.
SPANNED = (
    ("cli", "main"),
    ("cli", "load_instance"),
    ("obstruction", "residue_sieve"),
    ("obstruction", "class_invariant_table"),
    ("obstruction", "real_unramified_scan"),
    ("obstruction", "odd_place_scan"),
    ("obstruction", "square_mod_sampling"),
    ("obstruction", "integer_search"),
    ("obstruction", "point_invariant_profile"),
    ("padicsolve", "padic_solutions_exist"),
    ("elliptic", "torsion_subgroup"),
    ("localsymbols", "reciprocity_defect"),
)
# Primitives called up to a million times per verify: aggregated only.
AGGREGATED = (
    ("localsymbols", "hilbert_symbol"),
    ("localsymbols", "local_invariant"),
    ("exactarith", "factor"),
    ("exactarith", "is_probable_prime"),
    ("exactarith", "poly_roots_mod"),
    ("exactarith", "is_kth_power"),
    ("exactarith", "valuation"),
    ("multipoly", "MultiPoly.evaluate_mod"),
    ("multipoly", "MultiPoly.evaluate_int"),
)
TRACED = SPANNED + AGGREGATED

LAYER_NAMES = tuple("%s.%s" % pair for pair in TRACED)

SPAN_NAMES = frozenset("%s.%s" % pair for pair in SPANNED)

PACKAGE = "obstruction_lab"


class Stat:
    __slots__ = ("calls", "total", "self_time", "raised")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0

    def snapshot(self):
        return (self.calls, self.total, self.self_time, self.raised)


class Tracer:
    """Owns the wrappers, the per-name statistics and the recorded spans."""

    def __init__(self, extra_counters=None):
        self.stats = {name: Stat() for name in LAYER_NAMES}
        # name -> callable(args, result) -> {counter: increment}
        self.extra_counters = extra_counters or {}
        self.counters = {}
        self.spans = []
        self._stack = []  # [child seconds, span index] per active call
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        stat = self.stats[name]
        stack = self._stack
        spans = self.spans if name in SPAN_NAMES else None
        extra = self.extra_counters.get(name)
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            if spans is not None:
                parent = stack[-1][1] if stack else -1
                frame[1] = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if spans is not None:
                    spans[frame[1]][1:3] = [start, start + elapsed]
            if extra is not None:
                for key, inc in extra(args, result).items():
                    counters[key] = counters.get(key, 0) + inc
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and
                   (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for (modname, attr), name in zip(TRACED, LAYER_NAMES):
            home = sys.modules["%s.%s" % (PACKAGE, modname)]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                self._patch(owner, meth, original, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def snapshot(self):
        """Cumulative statistics, for differencing around one operation."""
        return ({name: s.snapshot() for name, s in self.stats.items()},
                dict(self.counters))


def delta(before, after):
    """Per-name (calls, seconds, self seconds, raised) and counter increments
    between two snapshots."""
    stats = {name: tuple(a - b for a, b in zip(now, before[0][name]))
             for name, now in after[0].items()}
    counters = {key: after[1].get(key, 0) - before[1].get(key, 0)
                for key in set(after[1]) | set(before[1])}
    return stats, counters
