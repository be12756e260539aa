import numpy as np
import pytest

from levelcurves import LevelCurveError, RationalFn, parse_function_spec
from levelcurves.funcspace import random_polynomial

CORPUS_SEED = 20260810


def build_corpus(n=30, seed=CORPUS_SEED, deg_lo=3, deg_hi=7):
    """Seeded random polynomials with fixture hygiene.

    Resampling rules keep the corpus numerically generic: distinct critical
    values, no critical value at the zero level, and no crowded critical
    points.  The checks run against whatever survives; nothing is weakened.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        deg = int(rng.integers(deg_lo, deg_hi + 1))
        p = random_polynomial(rng, deg)
        try:
            f = RationalFn(p)
        except LevelCurveError:
            continue
        crit = f.critical_points
        vals = sorted(f.abs_eval(c) for c, _ in crit)
        if any(v < 1e-3 for v in vals):
            continue
        if any(b - a < 1e-4 for a, b in zip(vals, vals[1:])):
            continue
        pts = [c for c, _ in crit]
        if len(pts) > 1 and min(
            abs(a - b) for i, a in enumerate(pts) for b in pts[i + 1 :]
        ) < 2e-2:
            continue
        out.append(f)
    return out


@pytest.fixture(scope="session")
def corpus30():
    return build_corpus(30)


@pytest.fixture(scope="session")
def z5m1():
    return parse_function_spec("poly:1,0,0,0,0,-1")


@pytest.fixture(scope="session")
def lemniscate_fn():
    return parse_function_spec("poly:1,0,-1")


@pytest.fixture(scope="session")
def blaschke_21():
    return parse_function_spec("blaschke:0.36,-0.34+0.03i/0.05+0.02i")
