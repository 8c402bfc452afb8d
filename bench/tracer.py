"""Span recorder and the call wrappers of the traced benchmark run.

The wrappers are installed from outside the package.  For each layer the
defining function is looked up, and every attribute of a loaded grouprisk
module that is bound to that same object is replaced: `harness` and `cli`
import functions by name, so the name a consumer looks up lives in the
consumer's own namespace.  A layer whose function no longer exists is
reported as absent, never as an error.  Untimed runs install nothing.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

# (layer, defining module, attribute path).  compute_primitives is split by
# its `mode` argument into .direct and .recursive spans.
LAYERS = (
    ("model.noise_blocks", "grouprisk.model", "noise_blocks"),
    ("model.ModelConfig.with_updates", "grouprisk.model", "ModelConfig.with_updates"),
    ("model.sample_dataset", "grouprisk.model", "sample_dataset"),
    ("harness.run_sweep", "grouprisk.harness", "run_sweep"),
    ("harness.noise_parts", "grouprisk.harness", "noise_parts"),
    ("harness.stats_from_parts", "grouprisk.harness", "stats_from_parts"),
    ("estimators.accumulate_gram", "grouprisk.estimators", "accumulate_gram"),
    ("estimators.x_mu_from_parts", "grouprisk.estimators", "x_mu_from_parts"),
    ("estimators.fit_cmni", "grouprisk.estimators", "fit_cmni"),
    ("estimators.fit_ridge", "grouprisk.estimators", "fit_ridge"),
    ("estimators.fit_gd", "grouprisk.estimators", "fit_gd"),
    ("risk.group_risk", "grouprisk.risk", "group_risk"),
    ("risk.monte_carlo_risk", "grouprisk.risk", "monte_carlo_risk"),
    ("bounds.bound_exponent", "grouprisk.bounds", "bound_exponent"),
    ("bounds.evaluate_bounds", "grouprisk.bounds", "evaluate_bounds"),
    ("primitives.build_decomposition", "grouprisk.primitives", "build_decomposition"),
    ("primitives.decomposition_from_parts", "grouprisk.primitives", "decomposition_from_parts"),
    ("primitives.woodbury_invert", "grouprisk.primitives", "woodbury_invert"),
    ("primitives.compute_primitives", "grouprisk.primitives", "compute_primitives"),
    ("primitives.verify_primitive_bounds", "grouprisk.primitives", "verify_primitive_bounds"),
    ("primitives.wishart_coverage", "grouprisk.primitives", "wishart_coverage"),
)


# Counters taken at the call boundary, with their units.  All are exact;
# those in COMPUTED come from array sizes, not from measurement.
COUNTER_UNITS = {
    "model.noise_blocks.values": "count",
    "model.sample_dataset.bytes": "B",
    "harness.noise_parts.flops": "flop",
    "estimators.fit_gd.iters": "count",
    "risk.monte_carlo_risk.draws": "count",
    "primitives.verify_primitive_bounds.rows": "count",
    "primitives.wishart_coverage.values": "count",
}
COMPUTED = {"model.noise_blocks.values", "model.sample_dataset.bytes",
            "harness.noise_parts.flops", "primitives.wishart_coverage.values"}

# layer -> f(bound arguments, result) -> {counter: increment}.  The
# noise_blocks generator counts its values itself.
_HOOKS = {
    "model.sample_dataset": lambda a, r: {"bytes": 16 * a["config"].n * a["config"].d},
    "harness.noise_parts": lambda a, r: {"flops": 2 * a["config"].n ** 2 * a["config"].d},
    "estimators.fit_gd": lambda a, r: {"iters": r.info["iters"]},
    "risk.monte_carlo_risk": lambda a, r: {"draws": int(a["m"])},
    "primitives.verify_primitive_bounds": lambda a, r: {"rows": len(r.rows)},
    "primitives.wishart_coverage": lambda a, r: {"values": a["n"] * a["d"] * a["draws"]},
}


class Tracer:
    """In-memory spans [name, start, end, parent index, op id] plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "grouprisk" or name.startswith("grouprisk."))]
        for layer, module_name, path in LAYERS:
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, orig)
            if outer:  # a method: patch the class attribute
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, orig))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _wrap(self, layer, orig):
        sig = inspect.signature(orig)
        hook = _HOOKS.get(layer)
        tracer = self

        def bound_args(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        if inspect.isgeneratorfunction(orig):
            # One span per block produced, so the consumer's self time
            # excludes the time spent generating its input.
            def gen_wrapper(*args, **kwargs):
                tracer.counts[f"{layer}.calls"] += 1
                gen = orig(*args, **kwargs)
                while True:
                    idx = tracer.enter(layer)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.leave(idx)
                    tracer.counts[f"{layer}.values"] += item[1].size
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            name = layer
            if layer == "primitives.compute_primitives":
                name = f"{layer}.{bound_args(args, kwargs)['mode']}"
            tracer.counts[f"{name}.calls"] += 1
            idx = tracer.enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.leave(idx)
            if hook is not None:
                try:
                    increments = hook(bound_args(args, kwargs), result)
                except (KeyError, AttributeError):  # the signature or result changed
                    tracer.uncounted.add(layer)
                    increments = {}
                for key, value in increments.items():
                    tracer.counts[f"{layer}.{key}"] += value
            return result

        return wrapper

    # -- summaries --------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """busy_s (outermost spans of a name) and self_s (minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[name]["self_s"] += end - start - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                out[name]["busy_s"] += end - start
        return dict(out)

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
