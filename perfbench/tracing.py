"""Spans around the package's public functions, recorded from outside the package.

A Tracer replaces module attributes of ``unext`` with timing wrappers while it
is installed and puts the originals back when it is removed. Every module
dict that holds the same function object is patched, so names bound by
``from ... import`` (``cli.optimize_k``, ``extendibility.partial_trace``, ...)
are traced too. A span is (name, start_ns, end_ns, parent index, op id); the
spans are kept in memory in typed arrays, since a curve run records about a
million of them, and written out as JSONL at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

LAYERS = ("cli", "bounds", "hypothesis_testing", "extendibility", "linalg", "states")

# (module, attribute); private cores are wrapped only while they exist
TARGETS = [
    ("cli", "main"),
    ("bounds", "optimize_k"),
    ("bounds", "depolarizing_bound"),
    ("bounds", "erasure_bound"),
    ("bounds", "interleaved_bound"),
    ("bounds", "distillation_bound_bell_diagonal"),
    ("hypothesis_testing", "np_divergence"),
    ("hypothesis_testing", "np_divergence_exact"),
    ("hypothesis_testing", "_binomial_log2_masses"),
    ("hypothesis_testing", "_solve_outcome_classes"),
    ("hypothesis_testing", "_joint_spectrum"),
    ("hypothesis_testing", "commuting_dh"),
    ("hypothesis_testing", "d_max_commuting"),
    ("extendibility", "check_k_extendible"),
    ("extendibility", "symmetrize"),
    ("extendibility", "affine_project"),
    ("linalg", "psd_project"),
    ("linalg", "eig_hermitian"),
    ("linalg", "partial_trace"),
    ("linalg", "kron"),
    ("linalg", "load_matrix_json"),
    ("states", "tensor_power"),
    ("states", "fidelity"),
    ("states", "max_entangled"),
    ("states", "isotropic"),
    ("states", "depolarizing_choi"),
    ("states", "erasure_output"),
    ("states", "erasure_family"),
    ("states", "parse_state_spec"),
]
PRIVATE_CORES = {
    "hypothesis_testing._binomial_log2_masses",
    "hypothesis_testing._solve_outcome_classes",
    "hypothesis_testing._joint_spectrum",
}
DIVERGENCE_EVALS = {"hypothesis_testing.np_divergence", "hypothesis_testing.d_max_commuting"}
CONSTRUCTORS = {
    "states.max_entangled",
    "states.isotropic",
    "states.depolarizing_choi",
    "states.erasure_output",
    "states.erasure_family",
    "states.parse_state_spec",
}


def _on_np_divergence(tracer: "Tracer", args, kwargs, result) -> None:
    hyp = args[0] if args else kwargs["hyp"]
    tracer.counts["outcome_classes"] += hyp.n + 1


def _on_check(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["iterations"] += result.iterations
    tracer.counts["verdict." + result.status.value] += 1


def _on_tensor_power(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["tensor_power.bytes"] += result.dim * result.dim * 16


def _on_joint_spectrum(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["joint_spectrum.dim"] = max(tracer.counts["joint_spectrum.dim"], len(result[0]))


HOOKS: dict[str, Callable] = {
    "hypothesis_testing.np_divergence": _on_np_divergence,
    "extendibility.check_k_extendible": _on_check,
    "states.tensor_power": _on_tensor_power,
    "hypothesis_testing._joint_spectrum": _on_joint_spectrum,
}


class Tracer:
    """Records spans for the wrapped functions while installed."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self.absent = [
            f"{mod}.{attr}"
            for mod, attr in TARGETS
            if not hasattr(getattr(package, mod), attr)
        ]
        self._patches = self._build_patches()

    def __len__(self) -> int:
        return len(self.start)

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, start: int, end: int) -> None:
        self.stack.pop()
        self.start[idx] = start
        self.end[idx] = end

    def _build_patches(self) -> list[tuple[dict, str, Callable, Callable]]:
        """(module dict, attribute, original, wrapper) for every name bound to a target."""
        wrappers = {}
        for mod, attr in TARGETS:
            fn = getattr(getattr(self.package, mod), attr, None)
            if fn is not None:
                name = f"{mod}.{attr}"
                wrappers[id(fn)] = (fn, self._wrap(name, fn, HOOKS.get(name)))
        patches = []
        for layer in LAYERS:
            mdict = vars(getattr(self.package, layer))
            for key, value in mdict.items():
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((mdict, key, value, entry[1]))
        return patches

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        nid = self._nid(name)
        is_eig = name == "linalg.eig_hermitian"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_nid = nid
            if is_eig and kwargs.get("method", "jacobi") != "jacobi":
                span_nid = self._nid(name + "." + kwargs["method"])
            idx = self._open(span_nid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start, time.perf_counter_ns())
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for mdict, key, _, wrapper in self._patches:
            mdict[key] = wrapper

    def remove(self) -> None:
        for mdict, key, original, _ in self._patches:
            mdict[key] = original

    @contextmanager
    def op_span(self, op_id: int, kind: str):
        """Root span of one operation, with the wrappers installed around it."""
        self.op_id = op_id
        idx = self._open(self._nid("op." + kind))
        self.install()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.remove()
            self._close(idx, start, end)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self)):
                fh.write(
                    json.dumps(
                        {
                            "name": self.names[self.name_id[i]],
                            "start_ns": self.start[i],
                            "end_ns": self.end[i],
                            "parent": self.parent[i],
                            "op": self.op[i],
                        }
                    )
                    + "\n"
                )


def _has_ancestor(tracer: Tracer, idx: int, prefix: str) -> bool:
    parent = tracer.parent[idx]
    while parent >= 0:
        if tracer.names[tracer.name_id[parent]].startswith(prefix):
            return True
        parent = tracer.parent[parent]
    return False


# The end-to-end metric each group should move, and where:
#   cli.*, bounds.*: curve op_p50_ms and ops_per_s
#   np_divergence, outcome_classes, binomial_masses, sort_fill: curve ops_per_s
#     and op_p50_ms, divergence op_tail_ms; no change on extend
#   np_divergence_exact, joint_spectrum, commuting_dh, d_max_commuting:
#     divergence op_tail_ms and ops_per_s
#   extendibility.*, linalg psd_project/partial_trace/kron/load_matrix_json:
#     extend op_p50_ms, op_tail_ms and ops_per_s (precomputed symmetrization
#     may move extend setup_s); no change on curve
#   linalg.eig_hermitian (Jacobi), states.*: divergence op_tail_ms, peak_rss_mb
def layer_metrics(tracer: Tracer, traced_ops: int, bound_rows: int, overhead_frac: float) -> dict:
    """Per-layer metrics from the recorded spans, per traced op where a total is involved."""
    names = tracer.names
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    child_ns: Counter = Counter()
    constructors_ns = 0
    divergence_evals = 0
    for i in range(len(tracer)):
        name = names[tracer.name_id[i]]
        duration = tracer.end[i] - tracer.start[i]
        parent = tracer.parent[i]
        parent_name = names[tracer.name_id[parent]] if parent >= 0 else None
        calls[name] += 1
        total_ns[name] += duration
        if parent_name is not None:
            child_ns[parent_name] += duration
        if name in CONSTRUCTORS and parent_name not in CONSTRUCTORS:
            constructors_ns += duration
        if name in DIVERGENCE_EVALS and _has_ancestor(tracer, i, "bounds."):
            divergence_evals += 1
    per_op = 1.0 / max(1, traced_ops)

    def ms(name: str) -> float:
        return total_ns[name] / 1e6 * per_op

    def self_ms(name: str) -> float:
        return (total_ns[name] - child_ns[name]) / 1e6 * per_op

    def n(name: str) -> float:
        return calls[name] * per_op

    c = tracer.counts
    iterations = c["iterations"]
    classes = c["outcome_classes"]
    values = {
        "cli.main.calls": (n("cli.main"), "count/op"),
        "cli.main.self_ms": (self_ms("cli.main"), "ms/op"),
        "bounds.optimize_k.calls": (n("bounds.optimize_k"), "count/op"),
        "bounds.optimize_k.self_ms": (self_ms("bounds.optimize_k"), "ms/op"),
        "bounds.divergence_evals": (divergence_evals * per_op, "count/op"),
        "bounds.useful_frac": (bound_rows / divergence_evals if divergence_evals else 0.0, "frac"),
        "hypothesis_testing.np_divergence.calls": (n("hypothesis_testing.np_divergence"), "count/op"),
        "hypothesis_testing.np_divergence.ms": (ms("hypothesis_testing.np_divergence"), "ms/op"),
        "hypothesis_testing.outcome_classes": (classes * per_op, "count/op"),
        "hypothesis_testing.us_per_class": (
            total_ns["hypothesis_testing.np_divergence"] / 1e3 / classes if classes else 0.0,
            "us",
        ),
        "hypothesis_testing.binomial_masses.ms": (
            ms("hypothesis_testing._binomial_log2_masses"),
            "ms/op",
        ),
        "hypothesis_testing.sort_fill.ms": (ms("hypothesis_testing._solve_outcome_classes"), "ms/op"),
        "hypothesis_testing.np_divergence_exact.ms": (
            ms("hypothesis_testing.np_divergence_exact"),
            "ms/op",
        ),
        "hypothesis_testing.joint_spectrum.ms": (ms("hypothesis_testing._joint_spectrum"), "ms/op"),
        "hypothesis_testing.joint_spectrum.dim": (float(c["joint_spectrum.dim"]), "dim"),
        "hypothesis_testing.commuting_dh.self_ms": (
            self_ms("hypothesis_testing.commuting_dh"),
            "ms/op",
        ),
        "hypothesis_testing.d_max_commuting.self_ms": (
            self_ms("hypothesis_testing.d_max_commuting"),
            "ms/op",
        ),
        "extendibility.check.calls": (n("extendibility.check_k_extendible"), "count/op"),
        "extendibility.check.ms": (ms("extendibility.check_k_extendible"), "ms/op"),
        "extendibility.iterations": (iterations * per_op, "count/op"),
        "extendibility.ms_per_iteration": (
            total_ns["extendibility.check_k_extendible"] / 1e6 / iterations if iterations else 0.0,
            "ms",
        ),
        "extendibility.symmetrize.calls": (n("extendibility.symmetrize"), "count/op"),
        "extendibility.symmetrize.ms": (ms("extendibility.symmetrize"), "ms/op"),
        "extendibility.affine_project.self_ms": (self_ms("extendibility.affine_project"), "ms/op"),
        "extendibility.feasible": (c["verdict.feasible"] * per_op, "count/op"),
        "extendibility.infeasible_signal": (c["verdict.infeasible-signal"] * per_op, "count/op"),
        "extendibility.inconclusive": (c["verdict.inconclusive"] * per_op, "count/op"),
        "linalg.psd_project.calls": (n("linalg.psd_project"), "count/op"),
        "linalg.psd_project.ms": (ms("linalg.psd_project"), "ms/op"),
        "linalg.partial_trace.ms": (ms("linalg.partial_trace"), "ms/op"),
        "linalg.kron.ms": (ms("linalg.kron"), "ms/op"),
        "linalg.load_matrix_json.ms": (ms("linalg.load_matrix_json"), "ms/op"),
        "linalg.eig_hermitian.ms": (ms("linalg.eig_hermitian"), "ms/op"),
        "states.tensor_power.ms": (ms("states.tensor_power"), "ms/op"),
        "states.tensor_power.bytes": (c["tensor_power.bytes"] * per_op, "B/op"),
        "states.constructors.ms": (constructors_ns / 1e6 * per_op, "ms/op"),
        "states.fidelity.self_ms": (self_ms("states.fidelity"), "ms/op"),
        "trace.overhead_frac": (overhead_frac, "frac"),
    }
    return values
