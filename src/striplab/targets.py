"""Target values on a sample grid, resolved from target descriptions.

Accepted specs: a TargetFunction (passed through after a length check), a
callable z -> complex acting pointwise, a constant (any number, numpy
scalars included), or a JSON-style dict:
{"kind": "builtin", "name": "conj"|"abs"|"identity"|"constant", "value": [re, im]?},
{"kind": "samples", "values": [[re, im], ...]}, or {"kind": "zeta"}.

A target callable acts pointwise: its value at a point depends on that
point alone.  It is first called once on a read-only view of all the grid
points, and its result is the sample array when it has their shape; a
callable that raises there or returns another shape (a scalar-only one
such as cmath.exp) is called point by point instead.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import zeta as zeta_mod
from .errors import InvalidSpec
from .geometry import SampleGrid


@dataclass(frozen=True, eq=False)
class TargetFunction:
    """Target values aligned 1:1 with a SampleGrid, as a read-only complex array."""

    samples: np.ndarray

    def __post_init__(self):
        vals = np.array(self.samples, dtype=complex)
        if vals.ndim != 1 or vals.size == 0:
            raise InvalidSpec("target function needs a one-dimensional array of at least one sample")
        if not np.all(np.isfinite(vals)):
            raise InvalidSpec("target function contains non-finite samples")
        vals.flags.writeable = False
        object.__setattr__(self, "samples", vals)


def resolve_target(spec, grid: SampleGrid, zeta_params=None) -> TargetFunction:
    """The spec's samples on the grid (module docstring).  A callable acts
    pointwise: one call on the points, as an array, gives every sample when
    it returns their shape, else it is called at each point."""
    if isinstance(spec, TargetFunction):
        if len(spec.samples) != len(grid):
            raise InvalidSpec(
                f"target has {len(spec.samples)} samples but the grid has {len(grid)}"
            )
        return spec
    if callable(spec):
        return TargetFunction(_sample(spec, grid.points))
    if isinstance(spec, numbers.Number):
        return TargetFunction(np.full(len(grid), complex(spec)))
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "builtin":
            return _builtin(spec, grid)
        if kind == "samples":
            try:
                values = [complex(re, im) for re, im in spec["values"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidSpec(f"samples target needs 'values' as [re, im] pairs: {exc}") from exc
            if len(values) != len(grid):
                raise InvalidSpec(
                    f"samples target has {len(values)} values but the grid has {len(grid)}"
                )
            return TargetFunction(values)
        if kind == "zeta":
            params = zeta_params if zeta_params is not None else zeta_mod.DEFAULT_PARAMS
            values, _ = zeta_mod.zeta_shifted_grid(grid, 0.0, params)
            return TargetFunction(values)
        raise InvalidSpec(f"unknown target kind {kind!r}")
    raise InvalidSpec(f"cannot interpret target spec {spec!r}")


def _sample(spec, points: np.ndarray):
    """spec's values at the points: one call on a read-only view of them
    when it returns their shape, else one call per point (the sin 8z and
    cos 6z targets of the approx benchmark, 12 502 points, take 6.5 ms point
    by point and 0.26 ms in two array calls on a 2-core x86-64 host).  One
    point is sampled by itself: numpy would hand a size-1 array to a
    scalar-only callable as a scalar."""
    if len(points) > 1:
        # a view of the read-only points cannot be made writeable
        try:
            values = np.asarray(spec(points.view()), dtype=complex)
        except Exception:
            values = None
        if values is not None and values.shape == points.shape:
            return values
    return [complex(spec(z)) for z in points]


def _builtin(spec: dict, grid: SampleGrid) -> TargetFunction:
    name = spec.get("name")
    z = grid.points
    if name == "conj":
        return TargetFunction(np.conj(z))
    if name == "abs":
        return TargetFunction(np.abs(z))
    if name == "identity":
        return TargetFunction(z)
    if name == "constant":
        value = spec.get("value")
        if value is None:
            raise InvalidSpec("builtin constant target needs a 'value' field")
        try:
            c = complex(value[0], value[1]) if isinstance(value, (list, tuple)) else complex(value)
        except (IndexError, TypeError, ValueError) as exc:
            raise InvalidSpec(f"builtin constant 'value' must be a number or [re, im]: {exc}") from exc
        return TargetFunction(np.full(len(grid), c))
    raise InvalidSpec(f"unknown builtin target {name!r}")
