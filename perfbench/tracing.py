"""Wrap catsim's public functions in spans, from outside the package.

catsim modules import functions by name (``from .core import
hermitian_spectrum``), so a wrapper only takes effect where every module
namespace that binds the original is patched.  :class:`Tracer` finds those
bindings by identity and swaps them in and out as a unit; with the tracer
uninstalled catsim runs its own, unwrapped code.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys

__all__ = ["LAYER_MODULES", "Tracer"]

LAYER_MODULES = ("cats", "core", "noise", "entanglement", "analytic", "experiments", "cli")


def _dim(op) -> int:
    return op.dim if hasattr(op, "dim") else len(op)


def _spectrum_extra(rec, args, kwargs):
    d = _dim(args[0] if args else kwargs["op"])
    rec.count("core.hermitian_spectrum.work_dim3", d**3)
    rec.peak("core.hermitian_spectrum.dim_max", d)


def _depolarize_extra(rec, args, kwargs):
    rho = args[0] if args else kwargs["rho"]
    # one full-matrix pass per qubit, 16 bytes per complex element
    rec.count("noise.depolarize_all.bytes_computed", rho.n_qubits * 16 * rho.dim**2)


def _write_extra(rec, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    rec.count("experiments.write_records.bytes", os.path.getsize(path))


# Counters computed from the arguments of a call, after it returns.
_EXTRAS = {
    "core.hermitian_spectrum": _spectrum_extra,
    "noise.depolarize_all": _depolarize_extra,
    "experiments.write_records": _write_extra,
}


def _wrap(fn, label, rec):
    extra = _EXTRAS.get(label)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.begin(label)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(sid)
            if extra is not None:
                extra(rec, args, kwargs)

    return wrapper


class Tracer:
    """Every public function of the layer modules, plus ``DensityMatrix``
    validation, wrapped to record into ``rec``."""

    def __init__(self, catsim, rec):
        self._patches = []  # (namespace, attribute, original, wrapper)
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in LAYER_MODULES:
            mod = getattr(catsim, short)
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrappers[id(fn)] = (fn, _wrap(fn, f"{short}.{name}", rec))
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == catsim.__name__ or n.startswith(catsim.__name__ + "."))]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = wrappers.get(id(value))  # originals stay alive, so ids are unique
                if hit is not None:
                    self._patches.append((ns, attr, value, hit[1]))
        dm = catsim.core.DensityMatrix
        post_init = dm.__dict__["__post_init__"]
        self._patches.append((dm, "__post_init__", post_init,
                              _wrap(post_init, "core.DensityMatrix", rec)))

    def install(self) -> None:
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original, _ in self._patches:
            setattr(ns, attr, original)
