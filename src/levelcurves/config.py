"""Central tolerance block.

The four numerical gates a run can set live in one Tolerances instance so a
run has a single, reportable precision configuration.  Each field has a CLI
override (``--tol-trace``, ``--tol-vertex``, ``--tol-phi``, ``--tol-hull``).
Constants no caller varies live beside their code: the step controller's
sag target ``SAG_REL``, its arg-step cap ``MAX_ARG_STEP`` and its step floor
``MIN_STEP_REL`` in ``tracer``, with the winding tolerance ``WINDING_TOL``, the root clustering and residual scales in ``funcspace``
(``ROOT_CLUSTER_REL``, ``ROOT_RESIDUAL``), and the rotation-system angle in
``levelgraph`` (``ANGLE_TOL``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    # residual | |f(p)| - eps | allowed on traced points
    trace_tol: float = 1e-9
    # band | |f(c)| - eps | within which a critical point counts as on-level
    vertex_tol: float = 1e-7
    # allowed residual of the power identity phi^M == f on the loop samples
    phi_tol: float = 1e-8
    # allowed signed distance of a critical point outside the zero hull
    hull_tol: float = 1e-8

    def with_overrides(self, **kwargs) -> "Tolerances":
        for key, value in kwargs.items():
            if not hasattr(self, key):
                raise KeyError(f"unknown tolerance {key!r}")
            if value <= 0:
                raise ValueError(f"tolerance {key!r} must be positive, got {value}")
        return replace(self, **kwargs)


DEFAULT_TOLS = Tolerances()
