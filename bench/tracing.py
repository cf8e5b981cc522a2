"""In-process layer tracing of schurkit, done entirely from the benchmark.

Tracer.patch() replaces the public functions of each module (and the
copies that other modules bound with `from ... import`) by wrappers that
time every call.  Each wrapper pushes a frame while the call runs, so a
call's self time is its duration minus what its traced callees took.

Calls that happen fewer than about 10^4 times per op are also kept as
spans (name, start, end, parent span, op id).  The hot ones
(ProductBuilder.form/const, generalized_hook_length, fr_eval,
SparsePoly.__mul__, div_form_exact, rendering) only aggregate counts and
durations, so tracing does not drown the work it measures.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable, Optional


# Counters kept besides call counts and durations.
COUNTERS = ("partitions.multipartitions", "exact.fr_eval_factors", "exact.poly_term_products",
            "exact.poly_peak_terms", "semisimple.scan_evals", "semisimple.scan_hits")


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Counters, self times and spans for one traced run."""

    def __init__(self) -> None:
        # A frame is [time spent in traced callees, span id, layer name].
        self.stack: list[list] = [[0.0, None, None]]
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.spans: list = []
        self.op_id: Optional[int] = None
        self.run: Optional[Callable] = None  # traced cli.run, set by patch()
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrappers

    def wrap(self, name: str, fn: Callable, span: bool = False,
             after: Optional[Callable] = None) -> Callable:
        stat = self.stats.setdefault(name, Stat())
        stack, spans, clock = self.stack, self.spans, perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, None, name]
            if span:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent = stack[-1]
                elapsed = t1 - t0
                parent[0] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[0]
                if span:
                    spans[frame[1]] = (name, t0, t1, parent[1], self.op_id)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable, items: str) -> Callable:
        """Time only the steps of a generator; count the items it yields."""
        stat = self.stats.setdefault(name, Stat())
        stack, counts, clock = self.stack, self.counts, perf_counter

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            stat.calls += 1
            while True:
                frame = [0.0, None, name]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    elapsed = t1 - t0
                    stack[-1][0] += elapsed
                    stat.total += elapsed
                    stat.self_time += elapsed - frame[0]
                counts[items] += 1
                yield item

        return traced

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, owners: tuple, attr: str, wrapper: Callable) -> None:
        """Install one wrapper under `attr` in every module or class given."""
        for owner in owners:
            self._set(owner, attr, wrapper)

    # ---------------------------------------------------------- patching

    def patch(self, pkg) -> None:
        """Wrap the layers of the schurkit package `pkg` (its submodules loaded)."""
        partitions, exact, schur = pkg.partitions, pkg.exact, pkg.schur
        semisimple, cli = pkg.semisimple, pkg.cli

        self.replace((partitions, schur, semisimple, cli), "enumerate_multipartitions",
                     self.wrap_generator("partitions.enumerate",
                                         partitions.enumerate_multipartitions,
                                         "partitions.multipartitions"))
        self.replace((partitions, schur), "generalized_hook_length",
                     self.wrap("partitions.hook", partitions.generalized_hook_length))

        builder = exact.ProductBuilder
        self._set(builder, "form", self.wrap("exact.form", builder.form))
        self._set(builder, "const", self.wrap("exact.const", builder.const))

        def after_eval(args, result):
            self.count("exact.fr_eval_factors", len(args[0].factors))
            if self.stack[-1][2] == "semisimple.scan":
                self.count("semisimple.scan_evals")

        self.replace((exact, semisimple, cli), "fr_eval",
                     self.wrap("exact.fr_eval", exact.fr_eval, after=after_eval))

        poly = exact.SparsePoly

        def after_mul(args, result):
            self.count("exact.poly_term_products", len(args[0].terms) * len(args[1].terms))
            self.peak("exact.poly_peak_terms", len(result.terms))

        def after_div(args, result):
            self.peak("exact.poly_peak_terms", len(result.terms))

        self._set(poly, "__mul__", self.wrap("exact.poly_mul", poly.__mul__, after=after_mul))
        self._set(poly, "div_form_exact",
                  self.wrap("exact.div_form", poly.div_form_exact, after=after_div))
        self.replace((exact, schur, cli), "fr_expand",
                     self.wrap("exact.fr_expand", exact.fr_expand, span=True))

        self.replace((schur, semisimple, cli), "schur_element",
                     self.wrap("schur.element", schur.schur_element, span=True))
        for kernel in ("x_kernel", "y_kernel", "z_kernel"):
            self.replace((schur, cli), kernel,
                         self.wrap("schur.kernel", getattr(schur, kernel), span=True))
        self.replace((schur, semisimple, cli), "p_invariant",
                     self.wrap("schur.p_invariant", schur.p_invariant, span=True))
        self.replace((schur, cli), "trace_identity_sides",
                     self.wrap("schur.trace_sides", schur.trace_identity_sides, span=True))

        self.replace((semisimple, cli), "schur_elements_table",
                     self.wrap("semisimple.table", semisimple.schur_elements_table, span=True))

        def after_scan(args, result):
            self.count("semisimple.scan_hits", len(result))

        self._set(semisimple, "vanishing_schur_elements",
                  self.wrap("semisimple.scan", semisimple.vanishing_schur_elements,
                            span=True, after=after_scan))

        # Rendering: every function that turns values into output text.
        for owner in (exact.FactoredRational, poly):
            for attr in ("render", "to_json"):
                self._set(owner, attr, self.wrap("cli.render", getattr(owner, attr)))
        report = semisimple.SemisimplicityReport
        self._set(report, "to_json", self.wrap("cli.render", report.to_json))
        self._set(cli, "format_output", self.wrap("cli.render", cli.format_output))
        self._set(cli, "json", _JsonProxy(cli.json, self.wrap("cli.render", cli.json.dumps)))

        self.run = self.wrap("cli.run", cli.run, span=True)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ---------------------------------------------------------- results

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metric name -> (value, unit), summed over every traced op."""
        st, c = self.stats, self.counts

        def calls(name):
            return (st[name].calls, "count")

        def total(name):
            return (st[name].total, "s")

        scan_evals = c["semisimple.scan_evals"]
        hit_ratio = c["semisimple.scan_hits"] / scan_evals if scan_evals else 0.0
        return {
            "partitions.enumerate_calls": calls("partitions.enumerate"),
            "partitions.multipartitions": (c["partitions.multipartitions"], "count"),
            "partitions.enumerate_s": total("partitions.enumerate"),
            "partitions.hook_calls": calls("partitions.hook"),
            "partitions.hook_s": total("partitions.hook"),
            "exact.form_calls": calls("exact.form"),
            "exact.const_calls": calls("exact.const"),
            "exact.form_s": total("exact.form"),
            "schur.element_calls": calls("schur.element"),
            "schur.element_s": total("schur.element"),
            "schur.element_self_s": (st["schur.element"].self_time, "s"),
            "schur.kernel_calls": calls("schur.kernel"),
            "schur.kernel_s": total("schur.kernel"),
            "exact.fr_eval_calls": calls("exact.fr_eval"),
            "exact.fr_eval_factors": (c["exact.fr_eval_factors"], "count"),
            "exact.fr_eval_s": total("exact.fr_eval"),
            "semisimple.table_s": total("semisimple.table"),
            "semisimple.scan_calls": calls("semisimple.scan"),
            "semisimple.scan_evals": (scan_evals, "count"),
            "semisimple.scan_s": total("semisimple.scan"),
            "semisimple.scan_hit_ratio": (hit_ratio, "ratio"),
            "exact.poly_mul_calls": calls("exact.poly_mul"),
            "exact.poly_term_products": (c["exact.poly_term_products"], "count"),
            "exact.poly_mul_s": total("exact.poly_mul"),
            "exact.poly_peak_terms": (c["exact.poly_peak_terms"], "count"),
            "exact.fr_expand_calls": calls("exact.fr_expand"),
            "exact.fr_expand_s": total("exact.fr_expand"),
            "exact.div_form_calls": calls("exact.div_form"),
            "schur.trace_sides_s": total("schur.trace_sides"),
            "schur.p_invariant_calls": calls("schur.p_invariant"),
            "cli.run_s": total("cli.run"),
            "cli.self_s": (st["cli.run"].self_time, "s"),
            "cli.render_s": (st["cli.render"].self_time, "s"),
        }

    def self_shares(self) -> list[tuple[str, float]]:
        """Each layer's self time as a share of all traced time, largest first."""
        whole = self.stats["cli.run"].total or 1.0
        shares = [(name, stat.self_time / whole) for name, stat in self.stats.items()]
        return sorted(shares, key=lambda kv: -kv[1])

    def write(self, path, origin: float) -> None:
        """Spans as JSON lines (times relative to `origin`), then the aggregates."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - origin, "end": t1 - origin,
                                     "parent": parent, "op": op}) + "\n")
            for name, stat in sorted(self.stats.items()):
                fh.write(json.dumps({"aggregate": name, "calls": stat.calls,
                                     "total_s": stat.total, "self_s": stat.self_time}) + "\n")
            fh.write(json.dumps({"counts": self.counts}, sort_keys=True) + "\n")


class _JsonProxy:
    """Stands in for the json module inside cli, with dumps traced."""

    def __init__(self, module, dumps: Callable) -> None:
        self._module = module
        self.dumps = dumps

    def __getattr__(self, attr: str):
        return getattr(self._module, attr)
