"""Per-layer tracing from outside the program.

Each traced public name is replaced by a wrapper that counts calls and
accumulates total and self time.  Self time is a call's duration minus the
time spent in traced calls made directly inside it.  Calls are aggregated
per name, never kept as individual spans: ``QElem.mul`` alone runs over a
million times in one unit.

A name must be patched at every place that holds it, or calls made through
the other binding escape the trace: ``kronecker`` is imported into
``cyclo``, ``reidtai`` and ``eigen``, and ``eigen_exponents`` into
``eigen`` and ``cusp``.  :func:`instrument` therefore replaces every
attribute, in every loaded module of the package and every class defined
there, that holds the original object.  ``lru_cache`` objects are wrapped as
they are, so cache hits are counted as calls and ``cache_info()`` still
reads the real cache.  A target that no longer exists is reported as
missing.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from typing import Callable, Dict, List, Tuple

PACKAGE = "ballquot"

# (layer metric prefix, module under the package, attribute path)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("qfield.QElem.new", "qfield", "QElem.__init__"),
    ("qfield.QElem.mul", "qfield", "QElem.__mul__"),
    ("qfield.QElem.add", "qfield", "QElem.__add__"),
    ("qfield.QMatrix.matmul", "qfield", "QMatrix.__matmul__"),
    ("qfield.QMatrix.inverse", "qfield", "QMatrix.inverse"),
    ("qfield.QMatrix.det", "qfield", "QMatrix.det"),
    ("qfield.QMatrix.rank", "qfield", "QMatrix.rank"),
    ("qfield.is_squarefree", "qfield", "is_squarefree"),
    ("cusp.random_frame", "cusp", "random_frame"),
    ("cusp.normalize_cusp_basis", "cusp", "normalize_cusp_basis"),
    ("cusp.is_in_NF", "cusp", "is_in_NF"),
    ("cusp.apply_boundary_action", "cusp", "apply_boundary_action"),
    ("cusp.boundary_tangent_exponents", "cusp", "boundary_tangent_exponents"),
    ("cusp.BoundaryElement.compose", "cusp", "BoundaryElement.compose"),
    ("cusp.BoundaryElement.inverse", "cusp", "BoundaryElement.inverse"),
    ("eigen.eigen_exponents", "eigen", "eigen_exponents"),
    ("eigen.split_half_factor", "eigen", "split_half_factor"),
    ("cyclo.kronecker", "cyclo", "kronecker"),
    ("cyclo.is_reducible", "cyclo", "is_reducible"),
    ("cyclo.orbit_sets", "cyclo", "orbit_sets"),
    ("cyclo.suitable_fields", "cyclo", "suitable_fields"),
    ("reidtai.mc_with_witness", "reidtai", "mc_with_witness"),
    ("reidtai.mc_for_field", "reidtai", "mc_for_field"),
    # traced so that cli.main's self time excludes the claims it runs
    ("certificates.run_claims", "certificates", "run_claims"),
    ("cli.main", "cli", "main"),
)

CLAIM_PREFIX = "certificates.claim."


class Tracer:
    """Call counts and total/self seconds per traced name (single thread)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, List] = {}  # name -> [calls, total_s, self_s]
        self._children: List[float] = []  # traced time inside each open call

    def wrap(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = self.clock

        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if children:
                    children[-1] += dt

        functools.update_wrapper(traced, fn)
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced


def _namespaces():
    """(qualified name, object) for every loaded module of the package and
    every class those modules define."""
    out = []
    for mod_name, module in sorted(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE
                                  or mod_name.startswith(PACKAGE + ".")):
            continue
        out.append((mod_name, module))
        for attr, value in sorted(vars(module).items()):
            if (isinstance(value, type)
                    and getattr(value, "__module__", None) == mod_name):
                out.append((f"{mod_name}.{attr}", value))
    return out


def _resolve(module: str, path: str):
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return None if owner is None else vars(owner).get(attr)


def instrument(tracer: Tracer, targets=TARGETS):
    """Wrap every target wherever the package binds it.

    Returns ``(bindings, missing, undo)``: the attributes patched per traced
    name, the names that could not be found, and a function restoring every
    patched attribute.
    """
    namespaces = _namespaces()
    bindings: Dict[str, List[str]] = {}
    missing: List[str] = []
    undo_log = []
    for name, module, path in targets:
        original = _resolve(module, path)
        if original is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, original)
        bindings[name] = []
        for ns_name, ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)
                    undo_log.append((ns, attr, original))
                    bindings[name].append(f"{ns_name}.{attr}")

    registry = getattr(sys.modules.get(f"{PACKAGE}.certificates"), "CLAIMS", None)
    if isinstance(registry, dict) and registry:
        for claim_id, claim in list(registry.items()):
            if not (dataclasses.is_dataclass(claim) and hasattr(claim, "run")):
                missing.append(CLAIM_PREFIX + claim_id)
                continue
            registry[claim_id] = dataclasses.replace(
                claim, run=tracer.wrap(CLAIM_PREFIX + claim_id, claim.run))
            undo_log.append((registry, claim_id, claim))
            bindings[CLAIM_PREFIX + claim_id] = [
                f"{PACKAGE}.certificates.CLAIMS[{claim_id!r}].run"]
    else:
        missing.append("certificates.claim_run")

    def undo():
        for ns, attr, original in reversed(undo_log):
            if isinstance(ns, dict):
                ns[attr] = original
            else:
                setattr(ns, attr, original)

    return bindings, missing, undo
