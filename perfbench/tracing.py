"""In-memory span tracer for one benchmark process.

``Tracer.install`` replaces each traced public function of ``cqmap`` at every
module binding site (``energy_table`` as bound in ``model``, ``dynamics``,
``mapping``, ``anneal`` and the package) with a wrapper that records a span:
name, start, end, parent span and run id. It also installs the counters
named in ``COUNTS``. ``uninstall`` puts every original binding back. No file
of the program changes.

A span's self time is its duration minus the part of it covered by its
direct children, so the self times of one pass sum to its root span.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

from scipy.sparse.linalg import LinearOperator

ROOT_SPAN = "bench.pass"

# (module, function): span name "module.function".
SPANNED = (
    ("cli", "dispatch"),
    ("spectral", "gap_scaling_sweep"),
    ("spectral", "extreme_eigenpairs"),
    ("dynamics", "build_generator"),
    ("dynamics", "flip_table"),
    ("dynamics", "verify_dynamics"),
    ("dynamics", "integrate_master"),
    ("mapping", "classical_to_quantum"),
    ("mapping", "quantum_to_classical"),
    ("mapping", "ground_state"),
    ("mapping", "roundtrip_check"),
    ("model", "energy_table"),
    ("model", "walsh_transform"),
    ("anneal", "run_qa"),
    ("anneal", "run_sa"),
    ("io", "read_coordinate"),
    ("io", "atomic_write_text"),
)
SPAN_NAMES = tuple(f"{module}.{func}" for module, func in SPANNED)

COUNTS = (
    "spectral.krylov_matvecs",
    "spectral.sweep_row_errors",
    "dynamics.generator.bytes",
    "mapping.hamiltonian.bytes",
    "model.energy_table.calls",
    "anneal.schedule_evals",
    "dynamics.provider_apply.calls",
    "io.read.bytes",
    "io.write.bytes",
)

MODULES = ("cqmap", "cqmap.model", "cqmap.dynamics", "cqmap.mapping", "cqmap.spectral",
           "cqmap.anneal", "cqmap.io", "cqmap.cli")


def csr_bytes(matrix):
    return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _on_energy_table(counts, args, kwargs, result):
    counts["model.energy_table.calls"] += 1


def _on_sweep(counts, args, kwargs, result):
    counts["spectral.sweep_row_errors"] += sum(row.error is not None for row in result)


def _on_build_generator(counts, args, kwargs, result):
    key = "dynamics.generator.bytes"
    counts[key] = max(counts[key], csr_bytes(result.matrix))


def _on_c2q(counts, args, kwargs, result):
    key = "mapping.hamiltonian.bytes"
    counts[key] = max(counts[key], csr_bytes(result.matrix))


def _on_read_coordinate(counts, args, kwargs, result):
    counts["io.read.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _on_write(counts, args, kwargs, result):
    counts["io.write.bytes"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


RESULT_HOOKS = {
    "model.energy_table": _on_energy_table,
    "spectral.gap_scaling_sweep": _on_sweep,
    "dynamics.build_generator": _on_build_generator,
    "mapping.classical_to_quantum": _on_c2q,
    "io.read_coordinate": _on_read_coordinate,
    "io.atomic_write_text": _on_write,
}


class _CountingOperator(LinearOperator):
    """Passes products through to the wrapped matrix and counts matvecs."""

    def __init__(self, matrix, counts):
        super().__init__(dtype=matrix.dtype, shape=matrix.shape)
        self._matrix = matrix
        self._counts = counts

    def _matvec(self, x):
        self._counts["spectral.krylov_matvecs"] += 1
        return self._matrix @ x

    def _matmat(self, X):
        self._counts["spectral.krylov_matvecs"] += X.shape[1]
        return self._matrix @ X


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []        # [id, name, parent, start, end]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._undo = []        # (owner, attribute, original)

    # spans -------------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        record = [len(self.spans), name, self._stack[-1] if self._stack else None,
                  time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def reset_counts(self):
        self.counts = dict.fromkeys(COUNTS, 0)

    def span_dicts(self):
        return [{"id": i, "name": name, "parent": parent, "start": start, "end": end,
                 "run": self.run_id} for i, name, parent, start, end in self.spans]

    # bindings -----------------------------------------------------------

    def _replace(self, owner, attribute, value):
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _span_wrapper(self, name, fn):
        hook = RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(name) for name in MODULES]
        for module_name, func in SPANNED:
            original = getattr(importlib.import_module(f"cqmap.{module_name}"), func)
            wrapper = self._span_wrapper(f"{module_name}.{func}", original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attribute, wrapper)

        spectral = importlib.import_module("cqmap.spectral")
        eigsh = spectral.eigsh

        def counting_eigsh(A, *args, **kwargs):
            return eigsh(_CountingOperator(A, self.counts), *args, **kwargs)

        self._replace(spectral, "eigsh", counting_eigsh)

        anneal = importlib.import_module("cqmap.anneal")
        dynamics = importlib.import_module("cqmap.dynamics")
        self._replace(anneal.Schedule, "value",
                      self._count_wrapper("anneal.schedule_evals", anneal.Schedule.value))
        self._replace(dynamics.GeneratorProvider, "apply",
                      self._count_wrapper("dynamics.provider_apply.calls",
                                          dynamics.GeneratorProvider.apply))

    def uninstall(self):
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def self_times(spans):
    """Self time of each span: duration minus the union of its direct
    children's intervals (clipped to the span)."""
    children = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result


def layer_self_seconds(spans):
    """Summed self time per traced function over ``spans``, as
    ``<module>.<function>.self_s``."""
    totals = dict.fromkeys(SPAN_NAMES, 0.0)
    own = self_times(spans)
    for span in spans:
        if span["name"] in totals:
            totals[span["name"]] += own[span["id"]]
    return {f"{name}.self_s": seconds for name, seconds in totals.items()}


def binding_snapshot():
    """Every callable bound in the traced modules and the counted methods,
    to check that ``uninstall`` restored them all."""
    modules = [importlib.import_module(name) for name in MODULES]
    snapshot = {(module.__name__, attribute): value for module in modules
                for attribute, value in vars(module).items() if callable(value)}
    anneal = importlib.import_module("cqmap.anneal")
    dynamics = importlib.import_module("cqmap.dynamics")
    snapshot["Schedule.value"] = vars(anneal.Schedule)["value"]
    snapshot["GeneratorProvider.apply"] = vars(dynamics.GeneratorProvider)["apply"]
    return snapshot
