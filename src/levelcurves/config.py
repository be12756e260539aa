"""Central tolerance block.

Every numerical gate in the package reads from one Tolerances instance so a
run has a single, reportable precision configuration.  The four named fields
mirror the CLI overrides ``--tol-trace``, ``--tol-vertex``, ``--tol-phi`` and
``--tol-hull``; the remaining knobs are step-control and matching constants
that rarely need touching.
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

    # predictor step bounds, relative to the domain scale
    max_step_rel: float = 1e-2
    min_step_rel: float = 1e-6
    # minimum angular separation of incident arcs in a rotation system (rad)
    angle_tol: float = 1e-4
    # how far a winding sum may sit from an integer multiple of 2*pi
    winding_int_tol: float = 1e-6
    # root clustering distance, relative to the root magnitude scale
    root_cluster_rel: float = 1e-7
    # residual scale for reported roots: |p(root)| <= root_residual * (1 + max|coeff|)
    root_residual: float = 1e-9

    def with_overrides(self, **kwargs) -> "Tolerances":
        for key, value in kwargs.items():
            if not hasattr(self, key):
                raise KeyError(f"unknown tolerance {key!r}")
            if value <= 0:
                raise ValueError(f"tolerance {key!r} must be positive, got {value}")
        return replace(self, **kwargs)


DEFAULT_TOLS = Tolerances()
