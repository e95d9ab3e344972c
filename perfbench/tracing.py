"""In-memory span tracer for gradsense layers, installed from outside the package.

`Tracer.install` replaces each traced function at every site where it is
looked up: a module-level function is swapped in every `gradsense` module
that binds it (its home module and any `from .x import f` binding), and a
method is swapped on its class.  Spans are plain records
`[name, start, end, parent, rows]` kept in a list; `restore` puts the
originals back.

The aggregation half (`self_times`, `layer_metrics`, `PER_LAYER`) is
stdlib-only, so the driver can read span files without importing numpy.
"""

from __future__ import annotations

import functools
import sys
import time

DEPTHS = (1, 3)
STAGES = ("gen", "fidelity", "methods", "calibrate", "select", "pay",
          "subadditivity", "game", "detect", "converge", "report")


def _batch_rows(args, kwargs, result):
    return args[1].shape[0]


def _len_rows(pos):
    def rows(args, kwargs, result):
        value = result if pos is None else args[pos]
        return len(value) if hasattr(value, "__len__") else 0
    return rows


# (module, class or None, attribute, span name, row counter, metric kinds).
# A name's "{stage}" is filled from run_stage's stage argument and "{depth}"
# from the model's depth.  Kinds are "calls", "rows" and "s"; every "s" also
# gets a "self_s".
LAYERS = [
    ("runner", None, "run_stage", "runner.stage.{stage}", None, ("s",)),
    ("runner", "RunState", "ensure_tables", "runner.RunState.ensure_tables", None, ("s",)),
    ("runner", "Workspace", "write_csv", "runner.Workspace.write_csv", _len_rows(3),
     ("calls", "rows", "s")),
    ("runner", "Workspace", "read_rows", "runner.Workspace.read_rows", _len_rows(None),
     ("calls", "rows", "s")),
    ("runner", None, "write_manifest", "runner.write_manifest", None, ("s",)),
    ("model", None, "make_desk_model", "runner.make_desk_model", None, ("calls", "s")),
    ("model", "DeskModel", "forward_many", "model.forward_many.d{depth}", _batch_rows,
     ("calls", "rows", "s")),
    ("model", "DeskModel", "gradient_many", "model.gradient_many.d{depth}", _batch_rows,
     ("calls", "rows", "s")),
    ("model", "DeskModel", "forward_values", "model.forward_values", None, ("calls", "s")),
    ("model", "DeskModel", "gradient_values", "model.gradient_values", None, ("calls", "s")),
    ("attribution", None, "integrated_gradients", "attribution.integrated_gradients", None,
     ("calls", "s")),
    ("ablation", None, "spatial_utility_multi", "ablation.spatial_utility_multi", None,
     ("calls", "s")),
    ("ablation", None, "global_ablation", "ablation.global_ablation", None, ("calls", "s")),
    ("ablation", None, "joint_ablation", "ablation.joint_ablation", None, ("calls", "s")),
    ("metrics", None, "bootstrap_block_spatial", "metrics.bootstrap_block_spatial", None,
     ("calls", "s")),
    ("metrics", None, "bootstrap_iid", "metrics.bootstrap_iid", None, ("calls", "s")),
    ("metrics", None, "spearman", "metrics.spearman", None, ("calls", "s")),
    ("metrics", None, "wilcoxon_signed_rank", "metrics.wilcoxon_signed_rank", None,
     ("calls", "s")),
    ("incentive", None, "payment_stability", "incentive.payment_stability", None,
     ("calls", "s")),
    ("incentive", None, "shrinkage_fit", "incentive.shrinkage_fit", None, ("calls", "s")),
    ("incentive", None, "select", "incentive.select", None, ("s",)),
    ("incentive", None, "decile_calibration", "incentive.decile_calibration", None, ("s",)),
    ("gaming", None, "run_gaming_experiment", "gaming.run_gaming_experiment", None,
     ("calls", "s")),
    ("gaming", None, "score_scenario", "gaming.score_scenario", None, ("s",)),
    ("gaming", None, "detector_d7_supervised", "gaming.detector_d7_supervised", None, ("s",)),
    ("synth", None, "synth_fields", "synth.synth_fields", None, ("s",)),
    ("fieldio", None, "save_field", "fieldio.save_field", None, ("calls", "s")),
    ("fieldio", None, "load_field", "fieldio.load_field", None, ("calls", "s")),
]

# Metrics that do not come from one span name: (name, unit, better).
DERIVED = [
    ("model.input_mb", "MB", "lower"),
    ("gaming.reached_frac", "ratio", "higher"),
    ("run.cpu_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

_UNITS = {"calls": "count", "rows": "count", "s": "s", "self_s": "s"}


def _namer(pattern: str):
    if "{stage}" in pattern:
        return lambda args: pattern.format(stage=args[1])
    if "{depth}" in pattern:
        return lambda args: pattern.format(depth=args[0].depth)
    return pattern


def _span_names(pattern: str) -> list[str]:
    if "{stage}" in pattern:
        return [pattern.format(stage=stage) for stage in STAGES]
    if "{depth}" in pattern:
        return [pattern.format(depth=depth) for depth in DEPTHS]
    return [pattern]


def _per_layer() -> list[tuple[str, str, str]]:
    out = []
    for _, _, _, name, _, kinds in LAYERS:
        for span in _span_names(name):
            for kind in kinds:
                out.append((f"{span}.{kind}", _UNITS[kind], "lower"))
            if "s" in kinds:
                out.append((f"{span}.self_s", "s", "lower"))
    return out + DERIVED


PER_LAYER = _per_layer()


class Tracer:
    """Collects spans from wrapped callables; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, rows=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name if isinstance(name, str) else name(args), clock(), 0.0,
                      stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if rows is not None:
                record[4] = rows(args, kwargs, result)
            return result

        return wrapper

    def _swap(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap every layer in LAYERS; `package` is the imported gradsense package."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package.__name__
                                         or key.startswith(package.__name__ + "."))]
        for mod_name, cls_name, attr, pattern, rows, _ in LAYERS:
            name = _namer(pattern)
            home = sys.modules[f"{package.__name__}.{mod_name}"]
            if cls_name is not None:
                owner = getattr(home, cls_name)
                self._swap(owner, attr, self.wrap(owner.__dict__[attr], name, rows))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(original, name, rows)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(i, ()))
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, grid_cells: int) -> dict[str, float]:
    """Aggregate spans into the span-derived PER_LAYER values.

    `.s` sums the spans of a name that have no ancestor of the same name, so a
    recursive or re-entrant call is not counted twice; `.self_s` sums self time
    over all spans of the name.  `grid_cells` is V x n_lat x n_lon, used for
    `model.input_mb` (full-grid float64 inputs handed to the model).
    """
    calls: dict[str, int] = {}
    rows: dict[str, int] = {}
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    own = self_times(spans)
    for i, (name, start, end, parent, n_rows) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        rows[name] = rows.get(name, 0) + n_rows
        self_total[name] = self_total.get(name, 0.0) + own[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + (end - start)
    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls.get(span, 0)
        elif kind == "rows":
            out[metric] = rows.get(span, 0)
        elif kind == "s":
            out[metric] = total.get(span, 0.0)
        elif kind == "self_s":
            out[metric] = self_total.get(span, 0.0)
    # gradient_values delegates to gradient_many, so its rows are already there
    model_rows = (sum(rows.get(f"model.{fn}.d{d}", 0)
                      for fn in ("forward_many", "gradient_many") for d in DEPTHS)
                  + calls.get("model.forward_values", 0))
    out["model.input_mb"] = model_rows * grid_cells * 8 / 1e6
    return out


def batch_histogram(spans) -> dict[str, dict[str, int]]:
    """Model calls per span name, bucketed by batch size (rows per call)."""
    edges = ((1, "1"), (8, "2-8"), (64, "9-64"), (512, "65-512"))
    out: dict[str, dict[str, int]] = {}
    for name, _, _, _, n_rows in spans:
        if not name.startswith("model."):
            continue
        n_rows = n_rows or 1
        label = next((lab for top, lab in edges if n_rows <= top), ">512")
        bucket = out.setdefault(name, {})
        bucket[label] = bucket.get(label, 0) + 1
    return out
