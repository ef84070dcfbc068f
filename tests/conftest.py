import numpy as np
import pytest

from ktrg.cutoffs import _fejer_one_minus_over_u, _fejer_sine
from ktrg.lattice import TorusLattice
from ktrg.decomposition import decompose


def one_minus_factor_over_u(u, theta, b: float, kappa: int) -> np.ndarray:
    """(1 - s_kappa(u)) / u at theta = theta(u, b) through the band-pass kernel."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    half = 0.5 * np.atleast_1d(np.asarray(theta, dtype=float))
    sk, small = _fejer_sine(half, kappa)
    return _fejer_one_minus_over_u(sk, u / b, u, half, b, kappa, small)


def deviation_table(a=(), b=(), vol=(), a_lim=1.0, b_lim=1.0) -> tuple:
    """FlowConfig rows (a_j/a - 1, vol_j - 1, vol_j b_j/b - 1) of coefficient
    tables, each table taken at its limit past its last entry."""
    n = max(len(a), len(b), len(vol))
    a, b, vol = (tuple(t) + (lim,) * (n - len(t)) for t, lim in ((a, a_lim), (b, b_lim), (vol, 1.0)))
    return tuple((aj / a_lim - 1.0, vj - 1.0, vj * bj / b_lim - 1.0) for aj, bj, vj in zip(a, b, vol))


@pytest.fixture(scope="session")
def stack_l3_massive():
    """(L, R, m) = (3, 3, 0.1): the small massive reference stack."""
    return decompose(TorusLattice(L=3, R=3, m=0.1))


@pytest.fixture(scope="session")
def stack_l3_massless():
    """(L, R) = (3, 6), massless: scales j = 0..5 on the 729 torus."""
    return decompose(TorusLattice(L=3, R=6, m=0.0))


@pytest.fixture(scope="session")
def stack_l3_r5():
    return decompose(TorusLattice(L=3, R=5, m=0.0))


@pytest.fixture(scope="session")
def stack_l9_massless():
    """(L, R) = (9, 6), massless; metadata-only (no torus tables)."""
    return decompose(TorusLattice(L=9, R=6, m=0.0))
