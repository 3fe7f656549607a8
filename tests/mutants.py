"""Mutants of the renorm engine, for tests only.

Each mutant wraps the real ``renorm_batch`` and changes the values it
returns, keeping ``power_sums = value**p`` so that the values and the
power sums agree as the real engine's do:

``one block``       every value is N(x): the one-block decomposition only
``x(1-1e-6)``       every value scaled by 1 - 1e-6
``x(1+1e-3)``       every value scaled by 1 + 1e-3
``all singletons``  every value is the singleton decomposition's
                    (sum of N(x_i e_i)^p)^(1/p)

:func:`install` puts one in the ``ukklattice.renorm`` and ``ukklattice.ukk``
namespaces, where the audits, the superadditivity check and the UKK
trials call the engine.  The modules are reached through ``importlib``:
the package attribute ``renorm`` is the function, not the module.
"""

import dataclasses
import importlib

import numpy as np

from ukklattice.vectors import _rows

RENORM = importlib.import_module("ukklattice.renorm")
UKK = importlib.import_module("ukklattice.ukk")
_REAL = RENORM.renorm_batch


def _singletons(N, p, X, values):
    n, dim = X.shape
    atoms = (X[:, :, None] * np.eye(dim)).reshape(n * dim, dim)  # row i * dim + j is x_j e_j of row i
    return (N.values(atoms).reshape(n, dim) ** p).sum(axis=1) ** (1.0 / p)


MUTANTS = {
    "one block": lambda N, p, X, values: N.values(X),
    "x(1-1e-6)": lambda N, p, X, values: np.asarray(values) * (1.0 - 1e-6),
    "x(1+1e-3)": lambda N, p, X, values: np.asarray(values) * (1.0 + 1e-3),
    "all singletons": _singletons,
}


def install(monkeypatch, name: str) -> None:
    """Replace ``renorm_batch`` by the mutant ``name`` in the renorm and ukk namespaces."""
    mutate = MUTANTS[name]

    def renorm_batch(N, p, X, *args, **kwargs):
        res = _REAL(N, p, X, *args, **kwargs)
        values = [float(v) for v in mutate(N, res.p, _rows(X, N.dim), res.values)]
        return dataclasses.replace(res, values=values, power_sums=[v**res.p for v in values])

    for module in (RENORM, UKK):
        monkeypatch.setattr(module, "renorm_batch", renorm_batch)
