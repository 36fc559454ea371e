"""Per-layer spans recorded from outside the program.

``Tracer.install()`` replaces public functions of each edgestab module, at
every place the package binds them, with wrappers that time each call and
count it.  Nested spans are tracked on a stack, so each span also knows its
self time: its duration minus the time of the spans it caused.  Spans stay
in memory; ``Tracer.snapshot()`` copies the running totals and
``layer_metrics()`` turns the difference of two snapshots into the per-layer
metrics.  Nothing under the package's source changes.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)  # inclusive seconds per span name
        self.own = defaultdict(float)  # self seconds per span name
        self.calls = Counter()
        self.counts = Counter()  # work counts recorded at span boundaries
        self.distinct_roots: set[bytes] = set()
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # spans ------------------------------------------------------------

    def _close(self, name: str, started: float) -> None:
        took = time.perf_counter() - started
        child = self._stack.pop()
        self.total[name] += took
        self.own[name] += took - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1] += took

    def _wrap(self, fn, name, after):
        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            self._stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, started)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name, per_item):
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                started = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, started)
                self.counts[per_item] += 1
                yield item

        return traced

    def _patch(self, places, wrapped) -> None:
        original = getattr(*places[0])
        for owner, attr in places:
            if getattr(owner, attr) is original:
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, original))

    # installation -----------------------------------------------------

    def install(self) -> "Tracer":
        import edgestab
        from edgestab import cli, det, edges, family, hull, oracle, poly, stab

        def sites(name, *modules):
            return [(m, name) for m in modules]

        def on_roots(args, _):
            self.distinct_roots.add(args[0].coeffs.tobytes())

        def on_hull(args, _):
            self.counts["hull.hull_points"] += int(np.prod(np.shape(args[0])[:-1]))

        def on_sample(_, report):
            self.counts["oracle.samples"] += report.samples

        def scheme(args, kwargs):
            chosen = kwargs.get("scheme", args[3] if len(args) > 3 else "random")
            return f"oracle.{chosen}"

        gen = self._wrap_generator
        plain = self._wrap
        table = [
            (sites("iter_configs", edges, stab, edgestab), gen, "edges.iter_configs", "edges.configs"),
            (sites("det_parametric", det, stab, cli, edgestab), plain, "det.det_parametric", None),
            ([(det.ParametricDeterminant, "assemble")], plain, "det.assemble", None),
            (sites("coefficient_box", det, stab, edgestab), plain, "det.coefficient_box", None),
            ([(poly.Polynomial, "roots")], plain, "poly.roots", on_roots),
            (sites("box_stable", stab, edgestab), plain, "stab.box_stable", None),
            (sites("least_squares", stab), plain, "stab.least_squares", None),
            (sites("batch_origin_margin", hull), plain, "hull.batch_origin_margin", on_hull),
            (sites("origin_margin", hull, edgestab), plain, "hull.origin_margin", None),
            (sites("sample_family", oracle, cli, edgestab), plain, scheme, on_sample),
            (sites("member_margin", oracle, edgestab), plain, "oracle.member_margin", None),
            (sites("find_counterexample_near", oracle, edgestab), plain, "oracle.find_counterexample", None),
            (sites("validate", family, stab, cli, edgestab), plain, "family.validate", None),
            (sites("parse_family_dict", cli), plain, "cli.parse", None),
        ]
        for places, wrap, name, extra in table:
            original = getattr(*places[0])
            self._patch(places, wrap(original, name, extra))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # readout ----------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "own": dict(self.own),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "distinct_roots": len(self.distinct_roots),
        }

    def reset_distinct(self) -> None:
        self.distinct_roots.clear()


def _delta(after: dict, before: dict, key: str, name: str):
    return after[key].get(name, 0) - before[key].get(name, 0)


def layer_metrics(before: dict, after: dict) -> dict:
    """Per-layer metrics for the work done between two snapshots."""

    def secs(name):
        return _delta(after, before, "total", name)

    def calls(name):
        return _delta(after, before, "calls", name)

    def count(name):
        return _delta(after, before, "counts", name)

    return {
        "edges.iter_configs_s": secs("edges.iter_configs"),
        "edges.configs": count("edges.configs"),
        "det.det_parametric_s": secs("det.det_parametric"),
        "det.det_parametric_calls": calls("det.det_parametric"),
        "det.assemble_s": secs("det.assemble"),
        "det.assemble_calls": calls("det.assemble"),
        "det.coefficient_box_s": secs("det.coefficient_box"),
        "det.coefficient_box_calls": calls("det.coefficient_box"),
        "poly.roots_s": secs("poly.roots"),
        "poly.roots_calls": calls("poly.roots"),
        "poly.roots_distinct": after["distinct_roots"],
        "stab.box_stable_s": secs("stab.box_stable"),
        "stab.box_stable_calls": calls("stab.box_stable"),
        "stab.sweep_self_s": _delta(after, before, "own", "stab.box_stable"),
        "stab.least_squares_s": secs("stab.least_squares"),
        "stab.least_squares_calls": calls("stab.least_squares"),
        "hull.batch_origin_margin_s": secs("hull.batch_origin_margin"),
        "hull.batch_origin_margin_calls": calls("hull.batch_origin_margin"),
        "hull.hull_points": count("hull.hull_points"),
        "hull.origin_margin_calls": calls("hull.origin_margin"),
        "oracle.random_s": secs("oracle.random"),
        "oracle.grid_s": secs("oracle.grid"),
        "oracle.samples": count("oracle.samples"),
        "oracle.member_margin_s": secs("oracle.member_margin"),
        "oracle.member_margin_calls": calls("oracle.member_margin"),
        "oracle.find_counterexample_s": secs("oracle.find_counterexample"),
    }


SETUP_LAYERS = {"family.validate_s": "family.validate", "cli.parse_s": "cli.parse"}
