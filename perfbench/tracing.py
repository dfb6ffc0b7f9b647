"""Spans around slicecert's public functions, recorded from outside the program.

``Tracer.install`` replaces each target with a wrapper in every slicecert
module that holds it, which is where callers look it up (``from .linalg
import nullspace`` binds the name in the importing module), and on the
class for methods.  ``Tracer.uninstall`` restores the originals.  A target
missing at some commit is reported as absent, so the same benchmark runs on
commits that delete or merge functions.

Each call records a span: name, start, end, parent span and op id.  Spans
are kept in flat arrays while the run lasts and written out at the end.
"""

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# Span name -> (module, attribute path).  The layer is the part of the name
# before the first dot, named after the module under src/slicecert/.
TARGETS = {
    "cli.build_parser": ("slicecert.cli", "build_parser"),
    "cli.load_system": ("slicecert.cli", "load_system"),
    "cli.system_from_dict": ("slicecert.cli", "system_from_dict"),
    "cli.cmd_certify": ("slicecert.cli", "cmd_certify"),
    "cli.cmd_probe": ("slicecert.cli", "cmd_probe"),
    "symmetry.build": ("slicecert.symmetry", "LieAlgebraBasis.build"),
    "symmetry.isotropy_algebra": ("slicecert.symmetry", "isotropy_algebra"),
    "symmetry.normalizer_algebra": ("slicecert.symmetry", "normalizer_algebra"),
    "symmetry.compactness_certificate": ("slicecert.symmetry", "compactness_certificate"),
    "momentum.map_init": ("slicecert.momentum", "MomentumMap.__init__"),
    "momentum.invariance_residual": ("slicecert.momentum", "invariance_residual"),
    "momentum.momentum_isotropy_algebra": ("slicecert.momentum", "momentum_isotropy_algebra"),
    "witt_artin.frame": ("slicecert.witt_artin", "witt_artin_frame"),
    "linalg.nullspace": ("slicecert.linalg", "nullspace"),
    "linalg.orthonormalize": ("slicecert.linalg", "orthonormalize"),
    "linalg.inertia": ("slicecert.linalg", "inertia"),
    "certify.solve_velocities": ("slicecert.certify", "solve_velocities"),
    "certify.definiteness_search": ("slicecert.certify", "definiteness_search"),
    "certify.restricted_hessian": ("slicecert.certify", "restricted_hessian"),
    "certify.orthogonal_velocity": ("slicecert.certify", "orthogonal_velocity"),
    "certify.velocity_residual": ("slicecert.certify", "velocity_residual"),
    "phase_space.value": ("slicecert.phase_space", "Poly.value"),
    "phase_space.gradient": ("slicecert.phase_space", "Poly.gradient"),
    "phase_space.hessian": ("slicecert.phase_space", "Poly.hessian"),
    "dynamics.integrate": ("slicecert.dynamics", "integrate"),
    "dynamics.stability_probe": ("slicecert.dynamics", "stability_probe"),
}

LAYERS = ("cli", "phase_space", "symmetry", "momentum", "witt_artin", "linalg", "certify", "dynamics")
OP = "op"


def _resolve(module_name, path):
    """(owner, raw attribute value) or None when the target is absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(parts[-1]) if isinstance(owner, type) else getattr(owner, parts[-1], None)
    if raw is None:
        return None
    return owner, raw


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names = [OP]
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.absent = []
        self._patches = []
        self._wrappers = {}

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        start, end, parent, names, ops, stack = (
            self.start, self.end, self.parent, self.name, self.op, self.stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every target where it is looked up; remember what to restore."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "slicecert" or n.startswith("slicecert."))]
        for name, (module_name, path) in TARGETS.items():
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, raw = found
            if name not in self._wrappers:
                if isinstance(raw, classmethod):
                    self._wrappers[name] = classmethod(self._wrap(name, raw.__func__))
                else:
                    self._wrappers[name] = self._wrap(name, raw)
            wrapped = self._wrappers[name]
            if isinstance(owner, type):
                # Aliases such as Poly.__call__ = value share the function.
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        self._patches.append((owner, key, raw))
                        setattr(owner, key, wrapped)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patches.append((module, key, raw))
                            setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, raw in reversed(self._patches):
            setattr(owner, key, raw)
        self._patches = []

    def run_op(self, op_id, fn):
        """Call fn() inside a root span for one op and return its result."""
        self.op_id = op_id
        idx = len(self.start)
        self.parent.append(-1)
        self.name.append(0)
        self.op.append(op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn()
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()
            self.op_id = -1

    def spans(self):
        """Spans as numpy arrays: start, end, parent, name id, op id."""
        return {
            "start": np.array(self.start, dtype=float),
            "end": np.array(self.end, dtype=float),
            "parent": np.array(self.parent, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "names": np.array(self.names),
        }

    def save(self, path):
        np.savez(path, **self.spans())


class SpanTable:
    """Derived quantities over recorded spans."""

    def __init__(self, spans):
        self.start = spans["start"]
        self.dur = spans["end"] - spans["start"]
        self.parent = spans["parent"]
        self.op = spans["op"]
        names = [str(n) for n in spans["names"]]
        self.name = np.array(names, dtype=object)[spans["name"]]
        self.layer = np.array([n.split(".")[0] for n in names], dtype=object)[spans["name"]]
        has_parent = self.parent >= 0
        child = np.zeros(len(self.dur))
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.parent_layer = np.where(has_parent, self.layer[np.where(has_parent, self.parent, 0)], "")
        self.is_op = self.name == OP

    def mask(self, name):
        return self.name == name

    def total(self, name, ops=None):
        m = self.mask(name)
        if ops is not None:
            m &= np.isin(self.op, ops)
        return float(self.dur[m].sum())

    def count(self, name):
        return int(self.mask(name).sum())

    def op_time(self, ops=None):
        m = self.is_op if ops is None else self.is_op & np.isin(self.op, ops)
        return float(self.dur[m].sum())

    def layer_self(self, layer):
        return float(self.self_time[self.layer == layer].sum())

    def layer_entry_time(self, layer):
        """Time inside the layer counted once: spans whose parent is outside it."""
        m = (self.layer == layer) & (self.parent_layer != layer)
        return float(self.dur[m].sum())

    def unattributed(self):
        """Op time that no layer span covers."""
        return float(self.self_time[self.is_op].sum())

    def exclusive_of(self, name, excluded):
        """Duration of ``name`` spans minus the time of their outermost
        descendants for which ``excluded(span name)`` holds."""
        target = self.mask(name).tolist()
        skip = [bool(excluded(n)) and not t for n, t in zip(self.name, target)]
        parent, dur = self.parent.tolist(), self.dur.tolist()
        under = [False] * len(dur)    # lies inside a target span
        covered = [False] * len(dur)  # lies inside an excluded span under a target
        total = 0.0
        # parents are recorded before their children, so one forward pass suffices
        for i, p in enumerate(parent):
            if target[i]:
                under[i] = True
            elif p >= 0 and under[p]:
                under[i] = True
                covered[i] = covered[p] or skip[i]
                if skip[i] and not covered[p]:
                    total += dur[i]
        return float(self.dur[self.mask(name)].sum()) - total
