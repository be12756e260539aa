"""Central tolerance block.

The three certificate gates are fixed and live in one frozen Tolerances
instance, ``DEFAULT_TOLS``, which every module reads; no function takes a
tolerance argument and no CLI flag changes a gate.  Whether a critical point
lies on a level is no tolerance: it is decided by the certified rounding
window of |f(c)| (``RationalFn.critical_on_level``).  Constants that belong
to one algorithm live beside their code: the step controller's sag target
``SAG_REL``, its arg-step cap ``MAX_ARG_STEP`` and its step floor
``MIN_STEP_REL`` in ``tracer``, with the refused near-critical band
(``NECK_MIN_STEPS``, ``LEVEL_MIN_GATES``) and the winding tolerance
``WINDING_TOL``, and the rotation-system angle in ``levelgraph``
(``ANGLE_TOL``).  Root multiplicities take no tolerance either: each root
cluster carries a disk in which Pellet's test certifies its count
(``funcspace.find_roots``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # residual | |f(p)| - eps | allowed on traced points
    trace_tol: float = 1e-9
    # allowed residual of the power identity phi^M == f on the loop samples
    phi_tol: float = 1e-8
    # allowed signed distance of a critical point outside the zero hull
    hull_tol: float = 1e-8


DEFAULT_TOLS = Tolerances()
