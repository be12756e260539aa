"""Certify hull containment of critical points, then watch the proof
mechanics convict a corrupted instance.

The replay takes two points of the supplied curve at the same height with
1 < Re(z1) < Re(z2), found by a complete search of its polyline, and
evaluates prod |z_i - w_j| against declared zeros in the unit disk.  On a
genuine level curve of those zeros the two products would be equal;
strict inequality exposes the corruption.
"""

import numpy as np

from levelcurves import Polynomial, check_gauss_lucas, replay_level_curve_argument
from levelcurves.funcspace import random_polynomial
from levelcurves.gauss_lucas import corrupted_instance


def main():
    print("== hull containment on named polynomials ==")
    for label, coeffs in (
        ("z^3 - z", [0, -1, 0, 1]),
        ("z^5 - 1", [-1, 0, 0, 0, 0, 1]),
        ("z^4 + z + 1", [1, 1, 0, 0, 1]),
    ):
        rep = check_gauss_lucas(Polynomial(coeffs))
        print(f"  {label:12s}: hull of {len(rep.hull)} vertex(es), "
              f"most-outside critical distance {rep.max_signed_distance:+.2e}")

    print("== 200 random polynomials ==")
    rng = np.random.default_rng(0)
    worst = -np.inf
    for _ in range(200):
        rep = check_gauss_lucas(random_polynomial(rng, int(rng.integers(2, 11))))
        worst = max(worst, rep.max_signed_distance)
    print(f"  worst signed distance over the corpus: {worst:+.2e} (never outside)")

    print("== corrupted-instance replay ==")
    rng = np.random.default_rng(12)
    p, c, curve = corrupted_instance(rng)
    w = replay_level_curve_argument(p, c, curve_points=curve)
    print(f"  declared critical point {c:.3f}, normalized to {w.normalized_c:.4f}")
    print(f"  same-height pair at Im = {w.s:+.4f}:")
    print(f"    z1 = {w.z1:.4f}  product {w.product1:.6f}")
    print(f"    z2 = {w.z2:.4f}  product {w.product2:.6f}")
    print(f"  strict inequality margin {w.margin:.2e} "
          f"-> the declared data cannot come from one level curve")


if __name__ == "__main__":
    main()
