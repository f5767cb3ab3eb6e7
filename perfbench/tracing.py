"""Spans around calls into each p2qbrace layer, recorded from outside.

The tracer wraps, at run time, the functions the routes look up as
module attributes, and restores the originals afterwards.  Each wrapper
returns the wrapped result unchanged.  A span is
a name, start, end, parent span and operation index; spans stay in
memory until the pass ends.  A span's self time is its duration minus
the durations of its children (one thread, so children never overlap).

The tracing overhead is the number of spans times the cost of one
wrapped call, measured in the same process on a function that does
nothing.  Comparing a traced with an untraced pass would measure the
machine's speed drift between the two as much as the tracer.
"""

from __future__ import annotations

import functools
import statistics
import types
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import ops
from p2qbrace import brace, counts, groups, holomorph
from p2qbrace import enumerate as routes

# (module, attribute) pairs wrapped during a traced pass.  The routes and
# the CLI call all of these through module attributes, so one binding
# each suffices.
WRAPPED = [
    (routes, "structured_enumerate"),
    (routes, "gfe_search"),
    (routes, "closure_oracle"),
    (routes, "pq_enumerate"),
    (routes, "aut_orbits"),
    (routes, "brace_from_gamma"),
    (routes, "lift_rgf"),
    (routes, "conjugate_gamma"),
    (routes, "dual_gamma"),
    (routes, "check_gfe"),
    (holomorph, "closure_search_regular"),
    (holomorph, "_closure_within"),
    (brace, "find_gfe_violation"),
    (brace, "circle_table"),
    (brace, "_check_kernel"),
    (brace, "verify_brace_axiom"),
    (brace, "classify_iso_type"),
    (counts, "count_table"),
    (counts, "pq_tables"),
]

LAYER_NAMES = {routes: "enumerate", holomorph: "holomorph", brace: "brace", counts: "counts"}


class Tracer:
    def __init__(self):
        # Spans live in flat arrays rather than one object each: hundreds
        # of thousands of live span objects would make the garbage
        # collector, and so the tracing overhead, grow with the trace.
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("i")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        name_id = self._name_id(name)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                return tracer._observe(attr, args, original(*args, **kwargs))
            finally:
                tracer._close(idx)

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def _observe(self, attr: str, args, result):
        if attr == "_closure_within" and result is not None and result.size == args[0].n:
            self.counts["holomorph.regular_found"] += 1
        elif attr == "aut_orbits":
            self.counts["enumerate.orbits"] += len(result)
        return result

    def install(self) -> None:
        for module, attr in WRAPPED:
            self._wrap(module, attr, f"{LAYER_NAMES[module]}.{attr}")

    def restore(self) -> None:
        """Put every original back."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def touch_layers(self, op: ops.Op) -> None:
        """Build the group-layer tables of every group the operation uses.

        Each table is its own span, so its cost lands in the groups and
        holomorph layers rather than in whichever route touches it first.
        The fixed-point-free mask is built only where the oracle runs.
        """
        with self.span("groups.make_group"):
            specs = ops.specs_of(op)
        for spec in specs:
            with self.span("groups.aut_group"):
                ag = groups.aut_group(spec)
            self.counts["groups.aut_size"] += ag.size
            with self.span("groups.comp"):
                comp = getattr(ag, "comp", None)  # a dense table a refactor may drop
            self.counts["groups.comp_bytes"] += 0 if comp is None else comp.nbytes
            with self.span("groups.aux_tables"):
                ag.ainv
                ag.iota_map
                ag.order_of(ag.identity_idx)
                ag.generators()
            if ops.oracle_visits(op, spec):
                with self.span("holomorph.fpf_mask"):
                    holomorph.holo(spec).fixed_point_free_mask

    # -- reduction ---------------------------------------------------------

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for i, (name_id, start, end, parent, op) in enumerate(self._rows()):
                fh.write(f"{i}\t{self.names[name_id]}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")

    def _rows(self):
        return zip(self.name_of, self.start, self.end, self.parent, self.op_of)

    def totals(self):
        """Per span name: call count, inclusive seconds, self seconds."""
        child = [0.0] * len(self.start)
        for _name_id, start, end, parent, _op in self._rows():
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        self_s: dict = defaultdict(float)
        for i, (name_id, start, end, _parent, _op) in enumerate(self._rows()):
            name = self.names[name_id]
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, total, self_s

    def metrics(self, outcomes: list[ops.Outcome]) -> dict[str, float]:
        """The per-layer metrics of one traced pass (see BENCHMARK.json)."""
        calls, total, self_s = self.totals()
        overhead = len(self.start) * span_cost_s()
        untraced_wall = sum(o.seconds for o in outcomes) - overhead
        search, oracle = (self._name_ids.get(n) for n in
                          ("enumerate.gfe_search", "enumerate.closure_oracle"))
        nested = sum(end - start for name_id, start, end, parent, _ in self._rows()
                     if name_id == search and parent >= 0 and self.name_of[parent] == oracle)
        attempts = calls["holomorph._closure_within"]
        found = self.counts["holomorph.regular_found"]
        records = calls["enumerate.brace_from_gamma"]
        closure_s = total["holomorph.closure_search_regular"]
        checks = [status for o in outcomes for _name, status in (o.checks or [])]
        return {
            "groups.make_group_s": total["groups.make_group"],
            "groups.aut_search_s": total["groups.aut_group"],
            "groups.comp_s": total["groups.comp"],
            "groups.comp_bytes": self.counts["groups.comp_bytes"],
            "groups.aux_tables_s": total["groups.aux_tables"],
            "groups.aut_size": self.counts["groups.aut_size"],
            "holomorph.fpf_mask_s": total["holomorph.fpf_mask"],
            "holomorph.closure_s": closure_s,
            "holomorph.closure_within_s": total["holomorph._closure_within"],
            "holomorph.closure_attempts": attempts,
            "holomorph.closure_us_per_attempt": 1e6 * closure_s / attempts if attempts else 0.0,
            "holomorph.regular_found": found,
            "holomorph.closure_hit_ratio": found / attempts if attempts else 0.0,
            "brace.records": records,
            "brace.record_s": total["enumerate.brace_from_gamma"],
            "brace.record_us_per_brace":
                1e6 * total["enumerate.brace_from_gamma"] / records if records else 0.0,
            "brace.gfe_check_s": total["brace.find_gfe_violation"],
            "brace.circle_table_s": total["brace.circle_table"],
            "brace.kernel_check_s": total["brace._check_kernel"],
            "brace.axiom_check_s": total["brace.verify_brace_axiom"],
            "brace.classify_s": total["brace.classify_iso_type"],
            "brace.lifts": calls["enumerate.lift_rgf"],
            "brace.lift_s": total["enumerate.lift_rgf"],
            "brace.conjugations": calls["enumerate.conjugate_gamma"],
            "brace.conjugate_s": total["enumerate.conjugate_gamma"],
            "brace.duals": calls["enumerate.dual_gamma"],
            "brace.dual_s": total["enumerate.dual_gamma"],
            "enumerate.structured_self_s": self_s["enumerate.structured_enumerate"],
            "enumerate.search_s": total["enumerate.gfe_search"],
            "enumerate.search_self_s": self_s["enumerate.gfe_search"],
            "enumerate.oracle_s": total["enumerate.closure_oracle"],
            "enumerate.oracle_nested_search_s": nested,
            "enumerate.orbits_s": total["enumerate.aut_orbits"],
            "enumerate.orbits": self.counts["enumerate.orbits"],
            "enumerate.jsonl_s": total["enumerate.to_jsonl"],
            "enumerate.jsonl_bytes": sum(o.jsonl_bytes for o in outcomes),
            "cli.verify_s": total["cli.verify_run"],
            "cli.checks_passed": checks.count("pass"),
            "cli.checks_skipped": checks.count("skipped"),
            "counts.table_s": total["counts.count_table"] + total["counts.pq_tables"],
            "trace.spans": len(self.start),
            "trace.overhead_s": overhead,
            "trace.overhead_ratio": overhead / untraced_wall,
        }


def span_cost_s(calls: int = 20_000, batches: int = 5) -> float:
    """Seconds that wrapping adds to one call: the median over batches."""
    probe = types.SimpleNamespace(noop=lambda: None)
    bare = probe.noop
    Tracer()._wrap(probe, "noop", "trace.noop")
    wrapped = probe.noop
    costs = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            bare()
        t1 = perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = perf_counter()
        costs.append((t2 - 2 * t1 + t0) / calls)
    return statistics.median(costs)
