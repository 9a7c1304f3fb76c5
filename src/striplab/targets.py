"""Target values on a sample grid, resolved from target descriptions.

Accepted specs: a TargetFunction (passed through after a length check), a
callable z -> complex, a plain constant, or a JSON-style dict:
{"kind": "builtin", "name": "conj"|"abs"|"identity"|"constant", "value": [re, im]?},
{"kind": "samples", "values": [[re, im], ...]}, or {"kind": "zeta"}.
"""

from __future__ import annotations

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
    if isinstance(spec, TargetFunction):
        if len(spec.samples) != len(grid):
            raise InvalidSpec(
                f"target has {len(spec.samples)} samples but the grid has {len(grid)}"
            )
        return spec
    if callable(spec):
        values = [complex(spec(z)) for z in grid.points]
        return TargetFunction(values)
    if isinstance(spec, (int, float, complex)):
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
