"""Central tolerance block.

The four certificate gates are fixed and live in one frozen Tolerances
instance, ``DEFAULT_TOLS``, which every module reads; no function takes a
tolerance argument and no CLI flag changes a gate.  Constants that belong to
one algorithm live beside their code: the step controller's sag target
``SAG_REL``, its arg-step cap ``MAX_ARG_STEP`` and its step floor
``MIN_STEP_REL`` in ``tracer``, with the winding tolerance ``WINDING_TOL``,
the root clustering and residual scales in ``funcspace``
(``ROOT_CLUSTER_REL``, ``ROOT_RESIDUAL``), and the rotation-system angle in
``levelgraph`` (``ANGLE_TOL``).
"""

from __future__ import annotations

from dataclasses import dataclass


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


DEFAULT_TOLS = Tolerances()
