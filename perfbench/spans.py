"""Span tracing of the bellsym layers, installed from outside the package.

Every public function of a bellsym module, and a few class methods on the
benchmarked paths, is replaced by a wrapper that records one span per call:
name, start, end, parent span and op id. Because ``from x import y`` binds a
copy of ``y`` in the importing module, a wrapper is installed under every
module attribute that holds the original function, not only in the module
that defines it (``bellsym.symmetry.derived_rng``, ``bellsym.channel.
validate_density_matrix``, ``bellsym.symmetry.minimize`` and so on).

Spans live in flat in-memory arrays while ops run; :meth:`Tracer.save`
writes them out once at the end and :func:`layer_totals` derives the
per-layer counts and self times from them.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("bellsym", "bellsym.cli", "bellsym.channel", "bellsym.kraus",
           "bellsym.linalg", "bellsym.rng", "bellsym.spinbath",
           "bellsym.symmetry")

# Span name of each module's public functions: the module default, then
# per-function overrides.
MODULE_LAYER = {
    "bellsym.cli": "cli",
    "bellsym.rng": "rng.derive",
    "bellsym.linalg": "linalg",
    "bellsym.kraus": "kraus",
    "bellsym.channel": "channel.analytic",
    "bellsym.spinbath": "spinbath.bath",
    "bellsym.symmetry": "symmetry.other",
}
FUNCTION_LAYER = {
    "bellsym.channel.monte_carlo_dephasing": "channel.mc",
    "bellsym.spinbath.decoherence_factor": "spinbath.factor",
    "bellsym.spinbath.decoherence_series": "spinbath.series",
    "bellsym.spinbath.reduced_density": "spinbath.reduced",
    "bellsym.spinbath.validate_central_state": "spinbath.reduced",
    "bellsym.symmetry.symmetric_probability": "symmetry.classify",
    "bellsym.symmetry.outcome_analysis": "symmetry.classify",
    "bellsym.symmetry.is_exchange_symmetric": "symmetry.classify",
    "bellsym.symmetry.asymptotic_symmetric_probability": "symmetry.classify",
    "bellsym.symmetry.haar_unitary": "symmetry.haar",
    "bellsym.symmetry.brute_force_symmetry_scan": "symmetry.scan",
    "bellsym.symmetry.maximize_symmetric_probability": "symmetry.optimize",
    "bellsym.symmetry.feasible_unitary": "symmetry.feasible",
    "bellsym.symmetry.sample_feasible_unitary": "symmetry.feasible",
    "bellsym.symmetry.feasible_params_dim": "symmetry.feasible",
    "bellsym.symmetry.hermitian_from_params": "symmetry.feasible",
    "bellsym.symmetry.expi_hermitian": "symmetry.feasible",
    "bellsym.symmetry.unitary_from_generator": "symmetry.feasible",
}
# Class methods on the benchmarked paths: (module, class, method, span).
METHODS = (
    ("bellsym.kraus", "KrausFactors", "from_gamma", "kraus"),
    ("bellsym.kraus", "KrausFactors", "diagonals", "kraus"),
    ("bellsym.channel", "ChannelParams", "identical_rates",
     "channel.analytic"),
    ("bellsym.symmetry", "ScanResult", "to_dict", "symmetry.scan"),
)
# Foreign functions called by bellsym: (module that looks it up, attribute).
FOREIGN = (("bellsym.symmetry", "minimize", "scipy.minimize"),)


def traced_functions() -> dict:
    """Map each original function to its span name."""
    spans = {}
    for modname, default in MODULE_LAYER.items():
        mod = importlib.import_module(modname)
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == modname
                    and not name.startswith("_")):
                spans[obj] = FUNCTION_LAYER.get(f"{modname}.{name}", default)
    for modname, attr, span in FOREIGN:
        spans[getattr(importlib.import_module(modname), attr)] = span
    return spans


class Tracer:
    """Records spans while installed; holds them until :meth:`save`."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("h")
        self.op = array("q")
        self._stack: list[int] = []
        self._op_id = 0
        self._patches = self._plan()

    def _id(self, span: str) -> int:
        if span not in self._name_id:
            self._name_id[span] = len(self.names)
            self.names.append(span)
        return self._name_id[span]

    def _wrap(self, fn, span: str):
        nid = self._id(span)
        start, end, parent, name, op = (self.start, self.end, self.parent,
                                        self.name, self.op)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(nid)
            op.append(self._op_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every patch site."""
        plan = []
        wrappers = {fn: self._wrap(fn, span)
                    for fn, span in traced_functions().items()}
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    plan.append((mod, attr, obj, wrappers[obj]))
        for modname, clsname, meth, span in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, span))
            else:
                new = self._wrap(raw, span)
            plan.append((cls, meth, raw, new))
        return plan

    @contextmanager
    def installed(self, op_id: int):
        """Record spans of the calls made inside the block as op ``op_id``."""
        self._op_id = op_id
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)
        try:
            yield
        finally:
            for owner, attr, orig, _ in self._patches:
                setattr(owner, attr, orig)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int16),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def layer_totals(names: list[str], spans: dict[str, np.ndarray]) -> dict:
    """Per span name: ``calls`` and ``self_ns``.

    ``calls`` counts entries into the layer: spans whose parent has another
    name (or no parent), so a layer function calling another function of the
    same layer counts once. ``self_ns`` is each span's duration minus the
    durations of its direct children, summed over the layer's spans.
    """
    dur = (spans["end"] - spans["start"]).astype(np.float64)
    parent = spans["parent"]
    name = spans["name"].astype(np.int64)
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent],
                           minlength=dur.size)
    self_ns = np.bincount(name, weights=dur - child_ns,
                          minlength=len(names))
    entry = ~has_parent
    entry[has_parent] = name[parent[has_parent]] != name[has_parent]
    calls = np.bincount(name[entry], minlength=len(names))
    return {n: {"calls": int(calls[i]), "self_ns": float(self_ns[i])}
            for i, n in enumerate(names)}
