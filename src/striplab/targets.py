"""Resolution of target-function descriptions onto a sample grid.

Accepted specs: a TargetFunction (passed through after a length check), a
callable z -> complex, a plain constant, or a JSON-style dict:
{"kind": "builtin", "name": "conj"|"abs"|"identity"|"constant", "value": [re, im]?},
{"kind": "samples", "values": [[re, im], ...]}, or {"kind": "zeta"}.
"""

from __future__ import annotations

import numpy as np

from .approximation import TargetFunction
from .errors import InvalidSpec
from .geometry import SampleGrid


def resolve_target(spec, grid: SampleGrid, zeta_params=None) -> TargetFunction:
    if isinstance(spec, TargetFunction):
        if len(spec.samples) != len(grid):
            raise InvalidSpec(
                f"target has {len(spec.samples)} samples but the grid has {len(grid)}"
            )
        return spec
    if callable(spec):
        values = [complex(spec(z)) for z in grid.points]
        return TargetFunction(values, getattr(spec, "__name__", "callable"))
    if isinstance(spec, (int, float, complex)):
        c = complex(spec)
        return TargetFunction(np.full(len(grid), c), f"constant {c}")
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "builtin":
            return _builtin(spec, grid)
        if kind == "samples":
            values = [complex(re, im) for re, im in spec["values"]]
            if len(values) != len(grid):
                raise InvalidSpec(
                    f"samples target has {len(values)} values but the grid has {len(grid)}"
                )
            return TargetFunction(values, "samples")
        if kind == "zeta":
            from . import zeta as zeta_mod

            params = zeta_params if zeta_params is not None else zeta_mod.DEFAULT_PARAMS
            values, _ = zeta_mod.zeta_shifted_grid(grid, 0.0, params)
            return TargetFunction(values, "zeta(z)")
        raise InvalidSpec(f"unknown target kind {kind!r}")
    raise InvalidSpec(f"cannot interpret target spec {spec!r}")


def _builtin(spec: dict, grid: SampleGrid) -> TargetFunction:
    name = spec.get("name")
    z = grid.points
    if name == "conj":
        return TargetFunction(np.conj(z), "conj(z)")
    if name == "abs":
        return TargetFunction(np.abs(z), "|z|")
    if name == "identity":
        return TargetFunction(z, "z")
    if name == "constant":
        value = spec.get("value")
        if value is None:
            raise InvalidSpec("builtin constant target needs a 'value' field")
        c = complex(value[0], value[1]) if isinstance(value, (list, tuple)) else complex(value)
        return TargetFunction(np.full(len(grid), c), f"constant {c}")
    raise InvalidSpec(f"unknown builtin target {name!r}")
