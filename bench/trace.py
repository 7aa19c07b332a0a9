"""Span recorder for the traced run.

``Recorder.install()`` wraps the public functions of each layer at
every binding in the layer modules: a ``from .x import y`` name is a
separate binding in the importing module, so every module attribute that
is the original function object is replaced (``hcc.covers.fox_derivative``,
``hcc.bounds.complex_summary``, ``hcc.bounds.make_elementary_abelian``,
...), and ``FpMatrix.__matmul__`` is replaced on the class.  Nothing under
``src/`` changes; ``uninstall`` restores every binding.

Each call records a span ``(name, start, end, parent, query)`` in memory;
self time is the span's duration minus its children's, taken from the
span stack.  Size counters (matrix entries, multiply-accumulates, word
letters, table entries, ...) are computed from the arguments and result
after the call returns, outside the span's interval.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field


def _rows_cols(m):
    return m.rows * m.cols


def _letters(pres):
    return sum(len(w) for w in pres.relators)


# (module, attribute, span name, counters(args, result) -> dict)
TARGETS = (
    ("hcc.cli", "main", "cli.main", None),
    ("hcc.fpexact", "FpMatrix.__matmul__", "fpexact.matmul",
     lambda a, r: {"macs": a[0].rows * a[0].cols * a[1].cols}),
    ("hcc.fpexact", "rank", "fpexact.rank", lambda a, r: {"entries": _rows_cols(a[0])}),
    ("hcc.fpexact", "rref", "fpexact.rref", lambda a, r: {"entries": _rows_cols(a[0])}),
    ("hcc.fpexact", "smith_normal_form", "fpexact.smith_normal_form",
     lambda a, r: {"ops": len(r.left_ops) + len(r.right_ops)}),
    ("hcc.presentations", "parse_presentation", "presentations.parse_presentation",
     lambda a, r: {"letters": _letters(r)}),
    ("hcc.presentations", "fox_derivative", "presentations.fox_derivative", None),
    ("hcc.presentations", "complex_summary", "presentations.complex_summary",
     lambda a, r: {"entries": a[0].n_generators * a[0].n_relators}),
    ("hcc.presentations", "normalize_presentation", "presentations.normalize_presentation", None),
    ("hcc.presentations", "reidemeister_schreier", "presentations.reidemeister_schreier",
     lambda a, r: {"letters": _letters(r)}),
    ("hcc.covers", "build_cover", "covers.build_cover", lambda a, r: {"d2_entries": _rows_cols(r.d2)}),
    ("hcc.covers", "parse_homomorphism", "covers.parse_homomorphism", None),
    ("hcc.covers", "hc_verdict", "covers.hc_verdict", None),
    ("hcc.groupring", "filtration_profile", "groupring.filtration_profile",
     lambda a, r: {"key": (a[0], a[1].table_hash)}),
    ("hcc.groupring", "make_elementary_abelian", "groupring.make_group",
     lambda a, r: {"table_entries": r.size**2}),
    ("hcc.groupring", "make_cyclic", "groupring.make_group", lambda a, r: {"table_entries": r.size**2}),
    ("hcc.groupring", "make_product", "groupring.make_group", lambda a, r: {"table_entries": r.size**2}),
    ("hcc.groupring", "parse_group_table", "groupring.make_group", lambda a, r: {"table_entries": r.size**2}),
    ("hcc.omega", "omega_by_convolution", "omega.omega_by_convolution", None),
    ("hcc.omega", "check_inequality_suite", "omega.check_inequality_suite", None),
    ("hcc.bounds", "bound_general", "bounds.bound_general", None),
    ("hcc.bounds", "bound_elementary_abelian", "bounds.bound_elementary_abelian", None),
    ("hcc.bounds", "with_actual", "bounds.with_actual", None),
    ("hcc.bounds", "growth_iterate", "bounds.growth_iterate",
     lambda a, r: {"stages": len(r.stages), "truncated": int(r.truncated)}),
)

# The layer modules whose bindings are wrapped; ``selfcheck`` and ``corpus``
# are not driven, and the package root only re-exports.
LAYERS = ("hcc.cli", "hcc.fpexact", "hcc.presentations", "hcc.groupring", "hcc.omega",
          "hcc.covers", "hcc.bounds")

# Wrapped bindings that no subcommand the benchmark drives looks up:
# ``bound_elementary_abelian`` (and the ``omega_by_convolution`` name it
# uses) is called only by ``selfcheck``; the CLI builds direct products
# from ``.tbl`` files, never with ``make_product``; and the defining
# modules of ``fox_derivative`` and ``reidemeister_schreier`` never call
# them, their callers use their own ``from`` imports.
UNREACHABLE = {
    "hcc.bounds.bound_elementary_abelian", "hcc.bounds.omega_by_convolution",
    "hcc.groupring.make_product", "hcc.presentations.fox_derivative",
    "hcc.presentations.reidemeister_schreier",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    query: int = -1
    child_s: float = 0.0
    counters: dict = field(default_factory=dict)


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.query = -1
        self.site_calls: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, counters, site):
        rec = self

        def wrapper(*args, **kwargs):
            rec.site_calls[site] = rec.site_calls.get(site, 0) + 1
            idx = len(rec.spans)
            span = Span(name, 0.0, parent=rec.stack[-1] if rec.stack else -1, query=rec.query)
            rec.spans.append(span)
            rec.stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec.stack.pop()
                if span.parent >= 0:
                    rec.spans[span.parent].child_s += span.end - span.start
            if counters is not None:
                try:
                    span.counters = counters(args, result)
                except Exception:  # a counter never breaks the traced call
                    span.counters = {}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> list[str]:
        """Wrap every target at every binding in ``LAYERS``; returns the
        patched sites as ``module.name``."""
        modules = [sys.modules[k] for k in LAYERS if k in sys.modules]
        sites = []
        for mod_name, attr, name, counters in TARGETS:
            owner = sys.modules.get(mod_name)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                site = f"{mod_name}.{attr}"
                self._patch(cls, meth, self._wrap(vars(cls)[meth], name, counters, site))
                sites.append(site)
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        site = f"{mod.__name__}.{key}"
                        self._patch(mod, key, self._wrap(fn, name, counters, site))
                        sites.append(site)
        return sites

    def _patch(self, obj, key, value):
        self._patched.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._patched):
            setattr(obj, key, value)
        self._patched.clear()


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and summed counters."""
    out: dict[str, dict] = {}
    for sp in spans:
        agg = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "keys": []})
        dur = sp.end - sp.start
        agg["calls"] += 1
        agg["s"] += dur
        agg["self_s"] += dur - sp.child_s
        for k, v in sp.counters.items():
            if k == "key":
                agg["keys"].append(v)
            else:
                agg[k] = agg.get(k, 0) + v
    for agg in out.values():
        keys = agg.pop("keys")
        agg["repeat_share"] = (len(keys) - len(set(keys))) / len(keys) if keys else 0.0
    return out
