"""Spans and counters around the public functions of each `bolalg` module.

The wrappers live in the benchmark, not in the program.  `install`
replaces each listed function in its defining module and in every
`bolalg` module that imported it by name, and replaces the product
methods of `BolAlgebra` and `LieAlgebra` with counting versions.  Spans
(name, start, end, parent) are kept in memory and written once, at the
end of the traced process; `summarize` turns them into self times.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> functions that get a span (and a call count)
SPANNED = {
    "core": ("check_axioms", "ideal_closure", "tri_span", "prod_span", "quotient", "restrict", "center"),
    "linalg": ("rref", "span", "kernel", "intersect", "charpoly", "rational_roots"),
    "envelope": ("envelope", "h_closure", "is_pseudo_derivation"),
    "lie": ("jacobi_check", "killing_gram", "lie_radical"),
    "forms": ("envelope_form", "trace_form", "invariance_check"),
    "series": ("bol_derived_series", "lts_derived_series"),
    "radical": ("radical", "is_simple"),
    "decompose": ("decompose_semisimple", "structure_report", "find_proper_ideal"),
    "fileio": ("parse_bol_document",),
    "cli": ("main",),
}
# (module, function or Class.method, span to count calls inside or None):
# counted only, as they are too frequent for spans
COUNTED = (
    ("core", "BolAlgebra.binary", None),
    ("core", "BolAlgebra.ternary", None),
    ("lie", "LieAlgebra.bracket", None),
    ("envelope", "induced_bracket", "envelope.h_closure"),
)
MODULES = tuple(SPANNED)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}

    def count(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, observe=None):
        """Wrap fn in a span.  For an `lru_cache` function, count the
        distinct inputs (`.unique`) and observe only computed results."""
        nid = self._name_id(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            misses = info().misses if info else 0
            idx = len(spans)
            spans.append([nid, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            fresh = info().misses - misses if info else 1
            if info and fresh:
                self.count(name + ".unique", fresh)
            if observe is not None and fresh:
                observe(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn, under: str | None = None):
        """Wrap fn to count its calls, and separately those made inside an `under` span."""
        counts, spans, stack = self.counts, self.spans, self.stack
        key, key_under = name + ".calls", f"{name}.calls_in.{under}"
        under_id = self._name_id(under) if under else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            if under_id is not None and any(spans[i][0] == under_id for i in stack):
                counts[key_under] = counts.get(key_under, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": self.counts}, fh)


# Counters derived from a computed result: span name -> (tracer, args, result) -> None
OBSERVERS = {
    "core.check_axioms": lambda tr, args, report: tr.count(
        "core.check_axioms.failures", sum(c.failures for c in report.identities)
    ),
    "envelope.h_closure": lambda tr, args, basis: tr.count("envelope.h_dim", len(basis)),
    "radical.radical": lambda tr, args, cert: tr.count("radical.radical.decided", int(cert.decided)),
    "radical.is_simple": lambda tr, args, res: tr.count("radical.is_simple.decided", int(res.status != "undecided")),
    "fileio.parse_bol_document": lambda tr, args, _: tr.count("fileio.bytes_parsed", len(args[0].encode("utf-8"))),
}


def install(tracer: Tracer) -> None:
    """Wrap every listed function wherever a `bolalg` module holds it."""
    import importlib

    mods = {m: importlib.import_module(f"bolalg.{m}") for m in MODULES}
    holders = [m for name, m in sys.modules.items() if name == "bolalg" or name.startswith("bolalg.")]

    def replace(attr, orig, wrapped):
        for holder in holders:
            if getattr(holder, attr, None) is orig:
                setattr(holder, attr, wrapped)

    for mod, funcs in SPANNED.items():
        for fn_name in funcs:
            orig = getattr(mods[mod], fn_name)
            name = f"{mod}.{fn_name}"
            replace(fn_name, orig, tracer.spanned(name, orig, OBSERVERS.get(name)))
    for mod, qual, under in COUNTED:
        if "." in qual:
            cls_name, meth = qual.split(".")
            cls = getattr(mods[mod], cls_name)
            setattr(cls, meth, tracer.counted(f"{mod}.{meth}", getattr(cls, meth), under))
        else:
            orig = getattr(mods[mod], qual)
            replace(qual, orig, tracer.counted(f"{mod}.{qual}", orig, under))


# Per-layer metrics of a traced pass, with units.  Times are self times
# summed over the pass; `<module>.self_s` sums a module's spans.
PER_LAYER = (
    [(f"{m}.self_s", "s") for m in MODULES]
    + [
        ("core.check_axioms.self_s", "s"),
        ("core.check_axioms.calls", "count"),
        ("core.check_axioms.unique", "count"),
        ("core.check_axioms.failures", "count"),
        ("core.binary.calls", "count"),
        ("core.ternary.calls", "count"),
        ("core.ideal_closure.self_s", "s"),
        ("core.ideal_closure.calls", "count"),
        ("core.tri_span.self_s", "s"),
        ("core.tri_span.calls", "count"),
        ("core.prod_span.self_s", "s"),
        ("core.quotient.self_s", "s"),
        ("core.restrict.self_s", "s"),
        ("core.center.self_s", "s"),
        ("linalg.rref.self_s", "s"),
        ("linalg.rref.calls", "count"),
        ("linalg.span.calls", "count"),
        ("linalg.kernel.self_s", "s"),
        ("linalg.intersect.self_s", "s"),
        ("linalg.charpoly.self_s", "s"),
        ("linalg.rational_roots.self_s", "s"),
        ("envelope.envelope.self_s", "s"),
        ("envelope.envelope.calls", "count"),
        ("envelope.envelope.unique", "count"),
        ("envelope.h_closure.self_s", "s"),
        ("envelope.is_pseudo_derivation.self_s", "s"),
        ("envelope.is_pseudo_derivation.calls", "count"),
        ("envelope.induced_bracket.calls", "count"),
        ("envelope.h_dim", "count"),
        ("envelope.h_closure.useful_ratio", "ratio"),
        ("lie.jacobi_check.self_s", "s"),
        ("lie.killing_gram.self_s", "s"),
        ("lie.lie_radical.self_s", "s"),
        ("lie.bracket.calls", "count"),
        ("forms.envelope_form.self_s", "s"),
        ("forms.envelope_form.calls", "count"),
        ("forms.trace_form.self_s", "s"),
        ("forms.invariance_check.self_s", "s"),
        ("series.bol_derived_series.self_s", "s"),
        ("series.lts_derived_series.self_s", "s"),
        ("radical.radical.self_s", "s"),
        ("radical.radical.calls", "count"),
        ("radical.certified_ratio", "ratio"),
        ("radical.is_simple.self_s", "s"),
        ("radical.is_simple.calls", "count"),
        ("radical.is_simple.decided_ratio", "ratio"),
        ("decompose.decompose_semisimple.self_s", "s"),
        ("decompose.structure_report.self_s", "s"),
        ("decompose.find_proper_ideal.calls", "count"),
        ("fileio.parse_bol_document.self_s", "s"),
        ("fileio.bytes_parsed", "bytes"),
        ("cli.import_s", "s"),
        ("cli.main.self_s", "s"),
    ]
)


def summarize(dumps: list[dict]) -> dict[str, float]:
    """Self times, call counts and counters of the given span dumps, summed."""
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for dump in dumps:
        names, spans = dump["names"], dump["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (nid, start, end, _) in enumerate(spans):
            self_s = end - start - child[idx]
            add(names[nid] + ".self_s", self_s)
            add(names[nid].split(".")[0] + ".self_s", self_s)
            add(names[nid] + ".calls", 1)
        for key, value in dump["counts"].items():
            add(key, value)

    def ratio(num, den):
        return out.get(num, 0) / out[den] if out.get(den) else 0.0

    out["envelope.h_closure.useful_ratio"] = ratio("envelope.h_dim", "envelope.induced_bracket.calls_in.envelope.h_closure")
    out["radical.certified_ratio"] = ratio("radical.radical.decided", "radical.radical.calls")
    out["radical.is_simple.decided_ratio"] = ratio("radical.is_simple.decided", "radical.is_simple.calls")
    return {name: out.get(name, 0) for name, _ in PER_LAYER}
