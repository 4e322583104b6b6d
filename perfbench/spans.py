"""Span tracing of lowrank_als from outside the package.

Every public function of the package is wrapped once per module namespace it
is looked up in, so a span's name says which module called it
("als.lstsq_solve" is the least-squares solve as the ALS half-steps see it) and
its layer is the module that defines the function.  Nothing in the package
changes: ``begin_pass`` swaps module attributes and ``end_pass`` restores
them, so untraced passes run the pristine code.

Spans are (name id, start ns, end ns, parent index, run id); the parent index
points into the same traced pass, and the run id numbers the traced passes.
They stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

import numpy as np

PACKAGE = "lowrank_als"
LAYERS = ("testmat", "als", "matrix", "spectral", "svd_convert", "io", "verify", "bench")

# save_factorization and load_factorization live in als.py but are the
# serialization path; their own time belongs to io, not to the ALS iteration.
LAYER_OVERRIDE = {"als.save_factorization": "io", "als.load_factorization": "io"}

# Raw spans kept for the trace file; passes beyond this are aggregated only.
SPAN_CAP = 100_000

HEADER_BYTES = 25  # ALSM header: magic, version, field tag, rows, cols


def _dense_bytes(a) -> int:
    # Bytes of a once validated to float64 / complex128.
    a = np.asarray(a)
    return a.size * (16 if np.iscomplexobj(a) else 8)


# Counts computed from argument and result sizes, keyed by the wrapped
# function as defined ("module.function").  Each returns {counter: amount}.
def _count_build(args, result):
    return {"testmat.bytes_out": result.nbytes}


def _count_sketch(args, result):
    return {"als.passes_over_a": 1, "als.bytes_a": _dense_bytes(args["a"])}


def _count_half_step(args, result):
    state = args["state"]
    a_bytes = state.a.nbytes
    tracked = int(state.config.track_errors)
    # A tracked residual forms the m-by-n product S T and subtracts A: one
    # more pass over A and one m-by-n temporary.
    return {
        "als.passes_over_a": 1 + tracked,
        "als.bytes_a": (1 + tracked) * a_bytes,
        "als.temp_bytes": tracked * a_bytes,
    }


def _count_measure(args, result):
    op = args["op"]
    passes = 2 * args["n_iters"] + 1
    return {
        "spectral.passes_over_a": passes,
        "spectral.bytes_a": passes * op.shape[0] * op.shape[1] * np.dtype(op.dtype).itemsize,
    }


def _count_save(args, result):
    return {"io.bytes_written": HEADER_BYTES + _dense_bytes(args["a"])}


COUNT_HOOKS = {
    "testmat.build_test_matrix": _count_build,
    "als.als_init": _count_sketch,
    "als.als_update_t": _count_half_step,
    "als.als_update_s": _count_half_step,
    "spectral.power_method_norm": _count_measure,
    "io.save_matrix": _count_save,
}
COUNTERS = (
    "testmat.bytes_out",
    "als.passes_over_a",
    "als.bytes_a",
    "als.temp_bytes",
    "spectral.passes_over_a",
    "spectral.bytes_a",
    "io.bytes_written",
)

# Median inclusive time of one call, in ms.
PER_CALL_MS = {
    "als.init_ms": "als.als_init",
    "als.t_update_ms": "als.als_update_t",
    "als.s_update_ms": "als.als_update_s",
    "spectral.measure_ms": "spectral.power_method_norm",
    "svd_convert.to_svd_ms": "svd_convert.factorization_to_svd",
    "io.save_ms": "als.save_factorization",
    "io.load_ms": "als.load_factorization",
    "verify.column_space_ms": "verify.check_column_space_theorem",
    "verify.rank_chain_ms": "verify.check_rank_chain",
    "verify.unrolled_recurrence_ms": "verify.check_unrolled_recurrence",
    "verify.minimizer_ms": "verify.check_minimizer_optimality",
    "verify.power_method_ms": "verify.check_power_method",
}
# Self time per pass of the listed functions, in s.
SELF_S = {
    "matrix.as_matrix_s": ("matrix.as_matrix",),
    "matrix.lstsq_s": ("matrix.lstsq_solve", "matrix.lstsq_solve_right", "matrix.householder_qr"),
    "matrix.orthonormal_basis_s": ("matrix.orthonormal_basis",),
    "matrix.frobenius_norm_s": ("matrix.frobenius_norm",),
    "matrix.gaussian_s": ("matrix.gaussian_matrix",),
}
# Inclusive time per pass of the listed functions, in s.
INCLUSIVE_S = {"testmat.build_s": ("testmat.build_test_matrix",)}
# Calls per pass of the listed functions.
CALLS = {
    "testmat.build_calls": ("testmat.build_test_matrix",),
    "als.half_steps": ("als.als_update_t", "als.als_update_s"),
    "matrix.as_matrix_calls": ("matrix.as_matrix",),
}


class Tracer:
    """Wraps the package's functions and aggregates spans pass by pass."""

    def __init__(self):
        self.names: list[str] = []  # "caller.function" per name id
        self.bases: list[str] = []  # "defining_module.function" per name id
        self.layers: list[str] = []
        self._swaps = []  # (module, attribute, original, wrapper)
        for caller in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{caller}")
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if not fn.__module__.startswith(PACKAGE + "."):
                    continue
                base = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                name_id = len(self.names)
                self.names.append(f"{caller}.{attr}")
                self.bases.append(base)
                self.layers.append(LAYER_OVERRIDE.get(base, base.split(".")[0]))
                self._swaps.append((module, attr, fn, self._wrap(fn, name_id, COUNT_HOOKS.get(base))))
        self.spans: list = []
        self._stack: list[int] = []
        self.run_id = 0
        self.retained: list = []
        self.span_counts: list[int] = []
        self.walls: list[float] = []
        self.self_ns = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.durations = defaultdict(list)  # base -> inclusive ns per call
        self.counts = defaultdict(int)

    def _wrap(self, fn, name_id: int, hook):
        tracer = self
        clock = time.perf_counter_ns
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            stack = tracer._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, tracer.run_id)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in hook(bound.arguments, result).items():
                    tracer.counts[key] += amount
            return result

        return traced

    def begin_pass(self) -> None:
        self.run_id += 1
        self.spans = []
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def end_pass(self, wall_s: float) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)
        spans = self.spans
        child_ns = [0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_call = set(PER_CALL_MS.values())
        for index, (name_id, start, end, _, _) in enumerate(spans):
            duration = end - start
            self.self_ns[name_id] += duration - child_ns[index]
            self.incl_ns[name_id] += duration
            self.calls[name_id] += 1
            if self.bases[name_id] in per_call:
                self.durations[self.bases[name_id]].append(duration)
        self.walls.append(wall_s)
        self.span_counts.append(len(spans))
        if len(self.retained) + len(spans) <= SPAN_CAP:
            self.retained.extend(spans)
        self.spans = []

    def _sum_by_base(self, table, bases) -> int:
        return sum(v for name_id, v in table.items() if self.bases[name_id] in bases)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, each a per-pass mean over the traced passes
        (counts and seconds) or a median over calls (ms)."""
        passes = len(self.walls)
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            ids = [i for i, name_layer in enumerate(self.layers) if name_layer == layer]
            metrics[f"{layer}.self_s"] = sum(self.self_ns[i] for i in ids) / passes / 1e9
            metrics[f"{layer}.calls"] = sum(self.calls[i] for i in ids) / passes
        for metric, base in PER_CALL_MS.items():
            durations = self.durations.get(base)
            metrics[metric] = statistics.median(durations) / 1e6 if durations else 0.0
        for metric, bases in SELF_S.items():
            metrics[metric] = self._sum_by_base(self.self_ns, bases) / passes / 1e9
        for metric, bases in INCLUSIVE_S.items():
            metrics[metric] = self._sum_by_base(self.incl_ns, bases) / passes / 1e9
        for metric, bases in CALLS.items():
            metrics[metric] = self._sum_by_base(self.calls, bases) / passes
        for counter in COUNTERS:
            metrics[counter] = self.counts[counter] / passes
        wall = statistics.fmean(self.walls)
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = wall - sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        metrics["trace.spans"] = statistics.fmean(self.span_counts)
        return metrics

    def write(self, path) -> None:
        """Write the retained spans and a per-function summary as JSON."""
        start = min((span[1] for span in self.retained), default=0)
        functions = {
            self.names[i]: {
                "layer": self.layers[i],
                "calls": self.calls[i],
                "self_s": self.self_ns[i] / 1e9,
                "inclusive_s": self.incl_ns[i] / 1e9,
            }
            for i in range(len(self.names))
        }
        payload = {
            "traced_passes": len(self.walls),
            "retained_spans": len(self.retained),
            "span_fields": ["name_id", "start_ns", "end_ns", "parent", "run_id"],
            "names": self.names,
            "layers": self.layers,
            "functions": functions,
            "spans": [[n, s - start, e - start, p, r] for n, s, e, p, r in self.retained],
        }
        with open(path, "w") as f:
            json.dump(payload, f, separators=(",", ":"))
