"""The settings and failures of numerical continuation, without numpy.

monodromy and render continue fibers on numpy arrays.  What a caller that
never tracks still names lives here: the TrackingConfig that ``--config``
loads and the errors the command line maps to exit codes.  monodromy and
render import the ones they name from here, so ``monodromy.TrackingConfig``
and ``render.RenderError`` are these very classes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass


class TrackingError(RuntimeError):
    """Base class for numerical continuation failures."""


class NotBelyiError(ValueError):
    """A chain branched off {0, 1, infinity}, refused before tracking."""


class RenderError(RuntimeError):
    """A drawing that render refuses (see render.render_graph)."""


@dataclass(frozen=True)
class TrackingConfig:
    newton_tol: float = 1e-12
    max_newton_iters: int = 30
    initial_step: float = 1.0 / 256.0   # nominal step, a fraction of the loop length
    min_step: float = 2.0**-20          # fraction of the loop length
    match_tol: float = 1e-6
    separation_factor: float = 10.0

    def __post_init__(self) -> None:
        """Raises ValueError unless every float setting is a finite positive
        number, separation_factor exceeds 1 (or _match's ratio guard could
        never fire), max_newton_iters is an integer of at least 1, and
        min_step <= initial_step <= 1."""
        for name in ("newton_tol", "initial_step", "min_step", "match_tol", "separation_factor"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if not self.separation_factor > 1:
            raise ValueError(f"separation_factor must exceed 1, got {self.separation_factor!r}")
        n = self.max_newton_iters
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"max_newton_iters must be an integer >= 1, got {n!r}")
        if not self.min_step <= self.initial_step <= 1:
            raise ValueError(
                f"need min_step <= initial_step <= 1, got {self.min_step!r} and {self.initial_step!r}")

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, data: dict) -> "TrackingConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {data!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)
