"""In-memory span tracer that hooks the public functions of the gexforms layers.

The library imports functions by name (``from .f2linalg import
symplectic_basis``), so a hook is installed on every module of the package
whose globals hold the original object, not only on the defining module.
Methods are hooked on their class, and the verification checks on the
``verify.SUITE`` list that ``run_suite`` iterates.

Every hooked call becomes a span (id, parent id, name, start, end, item).
``GexGroup.pmul`` runs about a million times per batch, so it is kept as an
aggregate count and total instead of one span per call. Self time is a span's
duration minus the time covered by its child spans, aggregated or not.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (metric prefix, module, attribute). "Class.method" hooks the class attribute.
SPAN_FUNCTIONS = [
    ("f2linalg.symplectic_basis", "gexforms.f2linalg", "symplectic_basis"),
    ("f2linalg.rank", "gexforms.f2linalg", "rank"),
    ("f2linalg.kernel_basis", "gexforms.f2linalg", "kernel_basis"),
    ("f2linalg.invertible_matrices", "gexforms.f2linalg", "invertible_matrices"),
    ("quadform.polar", "gexforms.quadform", "QuadraticForm.polar"),
    ("quadform.classify", "gexforms.quadform", "classify"),
    ("quadform.normal_form_witness", "gexforms.quadform", "normal_form_witness"),
    ("quadform.change_basis", "gexforms.quadform", "change_basis"),
    ("quadform.isometry_oracle", "gexforms.quadform", "isometry_oracle"),
    ("admissible.is_admissible", "gexforms.admissible", "is_admissible"),
    ("admissible.admissible_witness", "gexforms.admissible", "admissible_witness"),
    (
        "admissible.is_admissible_bruteforce",
        "gexforms.admissible",
        "is_admissible_bruteforce",
    ),
    ("gexgroup.iso_oracle", "gexforms.gexgroup", "iso_oracle"),
    ("gexgroup.q_from_group", "gexforms.gexgroup", "q_from_group"),
    ("gexgroup.classify_group", "gexforms.gexgroup", "classify_group"),
    ("gexgroup.center", "gexforms.gexgroup", "center"),
    ("clifford.verify_psi", "gexforms.clifford", "verify_psi"),
    ("cli.main", "gexforms.cli", "main"),
]
AGGREGATE_FUNCTIONS = [("gexgroup.pmul", "gexforms.gexgroup", "GexGroup.pmul")]

# Useful outcome of a call, for the <name>.hit_ratio metrics.
HIT_PREDICATES = {
    "quadform.isometry_oracle": lambda r: r is not None,
    "admissible.is_admissible_bruteforce": lambda r: r is not None,
    "gexgroup.iso_oracle": bool,
}

# Check names of verify.SUITE, in suite order; each becomes verify.<name>.
VERIFY_CHECKS = [
    "form-classification-complete",
    "admissibility-theorem-vs-search",
    "zero-summand-splitting",
    "group-form-dictionary",
    "central-product-identities",
    "group-model-laws",
    "clifford-presentation-iso",
    "clifford-mod8-table",
]

PER_CALL_NAMES = (
    [name for name, _, _ in SPAN_FUNCTIONS + AGGREGATE_FUNCTIONS]
    + [f"verify.{check}" for check in VERIFY_CHECKS]
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run emits, with its unit."""
    units = {}
    for name in PER_CALL_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["f2linalg.symplectic_basis.calls_per_item"] = "count"
    for name in HIT_PREDICATES:
        units[f"{name}.hit_ratio"] = "ratio"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "gexforms"]


class Tracer:
    """Collects spans and per-name aggregates while its hooks are installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.item = None  # identifier shared by the spans of one item
        self._next_id = 1
        self._stack = [[0, 0.0]]  # frames [span id, child time]; 0 is the root
        self.stats = {name: [0, 0.0, 0] for name in PER_CALL_NAMES}  # calls, self, hits
        self._undo: list = []

    def reset_stats(self):
        for s in self.stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0

    def span(self, name: str, fn, hit=None):
        """fn wrapped so that each call records a span named name."""
        tracer, stack, pc = self, self._stack, time.perf_counter
        stats = self.stats.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
                parent[1] += t1 - t0
                stats[0] += 1
                stats[1] += t1 - t0 - frame[1]
                tracer.spans.append((sid, parent[0], name, t0, t1, tracer.item))
            if hit is not None and hit(result):
                stats[2] += 1
            return result

        return wrapper

    def aggregate(self, name: str, fn):
        """fn wrapped so that calls only add to a count and a total time.

        fn must call no traced function, so its total time is its self time."""
        stack, pc = self._stack, time.perf_counter
        stats = self.stats[name]

        def wrapper(*args):
            t0 = pc()
            result = fn(*args)
            d = pc() - t0
            stats[0] += 1
            stats[1] += d
            stack[-1][1] += d
            return result

        return wrapper

    # -- hooks ------------------------------------------------------------------

    def _hook(self, module_name: str, attr: str, make):
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self):
        """Hook every traced function where its callers look it up."""
        importlib.import_module("gexforms.cli")  # loads verify and all layers
        for name, module, attr in SPAN_FUNCTIONS:
            self._hook(module, attr, lambda f, n=name: self.span(n, f, HIT_PREDICATES.get(n)))
        for name, module, attr in AGGREGATE_FUNCTIONS:
            self._hook(module, attr, lambda f, n=name: self.aggregate(n, f))
        verify = importlib.import_module("gexforms.verify")
        saved = list(verify.SUITE)
        if [check for check, _, _ in saved] != VERIFY_CHECKS:
            raise RuntimeError("verify.SUITE no longer matches the traced check names")
        verify.SUITE[:] = [
            (check, claim, self.span(f"verify.{check}", fn)) for check, claim, fn in saved
        ]
        self._undo.append((verify, "SUITE", saved))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            if key == "SUITE":
                owner.SUITE[:] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def layer_metrics(self, items: int) -> dict[str, float]:
        """Per-layer values since the last reset_stats, over `items` items."""
        out: dict[str, float] = {}
        for name in PER_CALL_NAMES:
            calls, self_s, _ = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        out["f2linalg.symplectic_basis.calls_per_item"] = (
            self.stats["f2linalg.symplectic_basis"][0] / items
        )
        for name in HIT_PREDICATES:
            calls, _, hits = self.stats[name]
            out[f"{name}.hit_ratio"] = hits / calls if calls else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as f:
            for sid, parent, name, t0, t1, item in self.spans:
                f.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "name": name, "start": t0,
                         "end": t1, "item": item}
                    )
                    + "\n"
                )
