"""Sturm-bisection kernel of the oracle: eigenvalues and counts."""

import numpy as np
import pytest

from miespec.oracle import Tridiagonal, count_below, eigen_lowest


def random_tridiagonal(rng, m):
    return (rng.normal(size=m), rng.normal(size=max(m - 1, 0)))


def test_backends_agree_with_dense_solver():
    rng = np.random.default_rng(11)
    for m in (1, 2, 5, 40, 300):
        d, e = random_tridiagonal(rng, m)
        dense = np.zeros((m, m))
        dense[np.arange(m), np.arange(m)] = d
        if m > 1:
            dense[np.arange(m - 1), np.arange(1, m)] = e
            dense[np.arange(1, m), np.arange(m - 1)] = e
        want = np.sort(np.linalg.eigvalsh(dense))
        got = eigen_lowest(Tridiagonal(d, e), m, 1e-12)
        assert got == pytest.approx(want, abs=1e-9)


def test_sturm_count_brackets_eigenvalues():
    rng = np.random.default_rng(3)
    d, e = random_tridiagonal(rng, 30)
    tri = Tridiagonal(d, e)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    eigs = np.sort(np.linalg.eigvalsh(dense))
    for j in (0, 10, 29):
        below = 0.5 * (eigs[j - 1] + eigs[j]) if j > 0 else eigs[0] - 1.0
        above = 0.5 * (eigs[j] + eigs[j + 1]) if j < 29 else eigs[-1] + 1.0
        assert count_below(tri, below) == j
        assert count_below(tri, above) == j + 1


def test_zero_offdiagonal_pivot_path():
    tri = Tridiagonal(np.array([1.0, 1.0]), np.array([0.0]))
    assert count_below(tri, 0.999999) == 0
    assert count_below(tri, 1.000001) == 2
    count_below(tri, 1.0)  # exact tie must not divide by zero

    got = eigen_lowest(tri, 2, 1e-13)
    assert got == pytest.approx([1.0, 1.0], abs=1e-12)


def test_count_bounds_validation():
    tri = Tridiagonal(np.array([1.0, 2.0]), np.array([0.3]))
    with pytest.raises(ValueError):
        eigen_lowest(tri, 0, 1e-10)
    with pytest.raises(ValueError):
        eigen_lowest(tri, 3, 1e-10)
