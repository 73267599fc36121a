"""Per-layer spans and counts for one traced CLI call, recorded from outside the package.

The layers are the spinhom modules.  :meth:`Tracer.install` wraps each
function in ``TARGETS`` and rebinds it at every import site inside the
package (``minimize`` also lives in ``bulk_density``, ``classify`` in
``cli``, ...); methods are replaced on their class.  Only calls made at
most a few hundred times per run are wrapped: never per-edge or
per-site helpers such as ``FlowNetwork.add_edge`` or ``residue_of``,
whose cost stays in the caller's self time.  A target missing from the
package (renamed or deleted) makes :meth:`Tracer.install` raise, so the
traced operation fails until ``TARGETS`` follows the code, instead of
its time moving silently into a caller's self time.

Spans (label, start, end, parent) stay in memory; :meth:`Tracer.metrics`
reduces them at exit.  A span's self time is its duration minus that of
its direct children, so the self times of all spans under the root sum
to the root's duration.  ``geometry`` and ``intlattice`` are not
wrapped; their time counts to their callers.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = (
    "model", "connectivity", "bulk_density", "ground_state",
    "maxflow", "surface_tension", "gamma_limit", "cli",
)

# (module, attribute path, label); the span label is "<module>.<label>".
TARGETS = (
    ("model", "load_model", "load_model"),
    ("connectivity", "classify", "classify"),
    ("connectivity", "excluded_set", "excluded_set"),
    ("connectivity", "coarsening_side", "coarsening_side"),
    ("bulk_density", "hard_components_in_cube", "hard_components_in_cube"),
    ("bulk_density", "build_phi_instance", "build_phi_instance"),
    ("bulk_density", "phi_solution", "phi_solution"),
    ("bulk_density", "phi_bracket", "phi_bracket"),
    ("bulk_density", "phi_estimate", "phi_estimate"),
    ("bulk_density", "island_error_constant", "island_error_constant"),
    ("bulk_density", "PhiTable.from_model", "PhiTable.from_model"),
    ("ground_state", "GroundStateInstance.__post_init__", "GroundStateInstance"),
    ("ground_state", "fold_instance", "fold_instance"),
    ("ground_state", "energy", "energy"),
    ("ground_state", "minimize", "minimize"),
    ("ground_state", "minimize_enum", "minimize_enum"),
    ("ground_state", "minimize_cut", "minimize_cut"),
    ("maxflow", "FlowNetwork.max_flow", "max_flow"),
    ("maxflow", "FlowNetwork.source_side", "source_side"),
    ("surface_tension", "cell_value", "cell_value"),
    ("surface_tension", "SurfaceTable.from_model", "SurfaceTable.from_model"),
    ("gamma_limit", "SpinField.__init__", "SpinField"),
    ("gamma_limit", "f_eps", "f_eps"),
    ("gamma_limit", "f_hom", "f_hom"),
    ("gamma_limit", "recovery_config", "recovery_config"),
    ("gamma_limit", "converge_report", "converge_report"),
)

SOLVERS = ("minimize_enum", "minimize_cut")
COUNTS = (
    "ground_state.variables", "ground_state.pair_terms", "ground_state.free_groups",
    "ground_state.enum_states", "maxflow.nodes", "maxflow.edges", "gamma_limit.sites",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric :meth:`Tracer.metrics` reports, with its unit."""
    units = {}
    for module, _, label in TARGETS:
        units[f"{module}.{label}.self_s"] = "s"
        units[f"{module}.{label}.calls"] = "count"
    for module in LAYERS:
        units[f"{module}.self_s"] = "s"
    for name in COUNTS:
        units[name] = "count"
    units["ground_state.folds_per_solve"] = "folds/solve"
    units["trace.wall_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [label, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.solves = 0
        self._free: dict[int, int] = {}  # id(instance) -> free groups of its last fold

    def wrap(self, label: str, fn, after=None):
        """``fn`` recording a span; ``after(args, kwargs, result)`` takes counts on return."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target of the imported spinhom package.

        Raises ``LookupError`` naming every target the package lacks.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "spinhom" or n.startswith("spinhom."))]
        missing = []
        for module_name, path, _ in TARGETS:
            module = sys.modules.get(f"spinhom.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                missing.append(f"spinhom.{module_name}.{path}")
        if missing:
            raise LookupError("trace targets not found: " + ", ".join(missing))
        for module_name, path, label in TARGETS:
            module = sys.modules[f"spinhom.{module_name}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapped = self.wrap(f"{module_name}.{label}", fn, self._counter(label))
            if owner_name:
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def _counter(self, label: str):
        counts = self.counts

        def instance_of(args, kwargs):
            return args[0] if args else kwargs["instance"]

        if label == "GroundStateInstance":
            def after(args, kwargs, result):
                counts["ground_state.variables"] += len(args[0].variables)
                counts["ground_state.pair_terms"] += len(args[0].pair_terms)
        elif label == "fold_instance":
            def after(args, kwargs, result):
                self._free[id(result.instance)] = result.free_count
        elif label in SOLVERS:
            def after(args, kwargs, result):
                free = self._free.get(id(instance_of(args, kwargs)), 0)
                self.solves += 1
                counts["ground_state.free_groups"] += free
                if label == "minimize_enum":
                    counts["ground_state.enum_states"] += 2**free
        elif label == "max_flow":
            def after(args, kwargs, result):
                counts["maxflow.nodes"] += args[0].n
                counts["maxflow.edges"] += len(args[0].to) // 2
        elif label == "f_eps":
            def after(args, kwargs, result):
                counts["gamma_limit.sites"] += len(args[1].values)
        else:
            after = None
        return after

    def metrics(self) -> dict[str, float]:
        """Self times, call counts and work counts of the recorded spans.

        The root span (the traced CLI call, parent -1) must be the last
        top-level span; its duration is ``trace.wall_s``.
        """
        child_time = [0.0] * len(self.spans)
        for label, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = dict.fromkeys(metric_units(), 0)
        for (label, start, end, parent), children in zip(self.spans, child_time):
            own = end - start - children
            module = label.partition(".")[0]
            out[f"{module}.self_s"] += own
            if f"{label}.calls" in out:
                out[f"{label}.self_s"] += own
                out[f"{label}.calls"] += 1
            if parent < 0:
                out["trace.wall_s"] = end - start
        out.update(self.counts)
        folds = out["ground_state.fold_instance.calls"]
        out["ground_state.folds_per_solve"] = folds / self.solves if self.solves else 0.0
        return out
