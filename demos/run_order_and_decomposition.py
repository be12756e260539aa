"""Order the critical set by nesting, then decompose into annuli with the
conformal power map.

Each component of the domain minus the critical set is an annulus on which
f is exactly phi^M for the constructed branch phi of f^(1/M).  The Blaschke
ratio shows every region flavor: zero petals, a pole petal with M = -N, a
two-sheeted middle annulus, and the rim along the unit circle.
"""

import pathlib

import numpy as np

from levelcurves import (
    build_phi,
    critical_level_curves,
    decompose,
    maximal_component,
    parse_function_spec,
    verify_phi,
)
from levelcurves.order_topology import hasse_diagram

OUT = pathlib.Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)


def show(name, spec):
    f = parse_function_spec(spec)
    print(f"== {name}: {spec} ==")
    C = critical_level_curves(f)
    for i, ref in enumerate(C.components):
        print(f"  C[{i}] {ref.kind.value:11s} level {ref.level}")
    print(f"  nesting (below, above): {hasse_diagram(C)}")
    print(f"  maximal element: {maximal_component(f, C=C).label}")

    rows = []
    for region in decompose(f, C=C):
        grid = build_phi(f, region)
        cert = verify_phi(f, region)
        rows.append((region, grid, cert))
        lo, hi = cert.radii
        print(
            f"  region {region.label}\n"
            f"    |f| in ({region.eps1:.4g}, {region.eps2:.4g}), N={region.N}, M={region.M:+d}\n"
            f"    |phi| in ({lo:.4g}, {hi:.4g}), samples {cert.n_mesh}, "
            f"max |phi^M - f| = {cert.max_power_residual:.1e}"
        )
    return rows


def main():
    show("power map", "poly:1,0,0")
    rows = show("Blaschke ratio 2/1", "blaschke:0.36,-0.34+0.03i/0.05+0.02i")

    path = OUT / "blaschke_phi.csv"
    with open(path, "w") as fh:
        fh.write("region,w_re,w_im,phi_re,phi_im\n")
        for region, grid, _ in rows:
            for w, ph in zip(grid.points[::7], grid.phi[::7]):
                fh.write(f"{region.label},{w.real},{w.imag},{ph.real},{ph.imag}\n")
    print(f"wrote phi samples to {path}")


if __name__ == "__main__":
    main()
