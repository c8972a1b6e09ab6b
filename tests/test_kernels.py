"""Sturm kernel of the oracle: eigenvalues, counts and sweep budget."""

import numpy as np
import pytest

from miespec import oracle
from miespec.oracle import (Tridiagonal, build_tridiagonal_radial, cell_grid,
                            convergence_study, count_below, default_grid,
                            eigen_lowest, solve_bound_states)
from miespec.potentials import coulomb, kratzer_fues, modified_kratzer


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


# -- bracket proofs, agreement with plain bisection, sweep counts -------------

EPS = 2.220446049250313e-16


def reference_bisection(tri, count, tol):
    """Plain bisection from the Gershgorin bounds, one level at a time:
    (eigenvalues, Sturm sweeps taken)."""
    e = np.abs(tri.offdiag)
    rad = np.concatenate(([0.0], e)) + np.concatenate((e, [0.0]))
    lo, ghi = float(np.min(tri.diag - rad)), float(np.max(tri.diag + rad))
    values, sweeps = [], 0
    for j in range(count):
        hi = ghi
        while hi - lo > tol + 2.0 * EPS * (abs(lo) + abs(hi)):
            mid = lo + 0.5 * (hi - lo)
            sweeps += 1
            if count_below(tri, mid) >= j + 1:
                hi = mid
            else:
                lo = mid
        values.append(0.5 * (lo + hi))
    return np.array(values), sweeps


def counted_eigen_lowest(monkeypatch, tri, count, tol, **kwargs):
    """eigen_lowest with the Sturm sweeps it makes counted."""
    sweeps = []
    with monkeypatch.context() as patch:
        for name in ("_negcount", "_negcount_slope"):
            fn = getattr(oracle, name)

            def counted(*args, _fn=fn):
                sweeps.append(1)
                return _fn(*args)
            patch.setattr(oracle, name, counted)
        values = eigen_lowest(tri, count, tol, **kwargs)
    return values, len(sweeps)


def wilkinson_w21():
    return Tridiagonal(np.abs(np.arange(21) - 10.0), np.ones(20))


def _solver_cases():
    rng = np.random.default_rng(2024)
    for m in (1, 2, 7, 60, 200):
        d, e = random_tridiagonal(rng, m)
        yield f"random-{m}", Tridiagonal(d, e)
    for m in (5, 40, 120):
        sign = rng.choice([-1.0, 1.0], size=m)
        d = sign * 10.0 ** rng.uniform(-6, 6, size=m)
        e = 10.0 ** rng.uniform(-6, 6, size=m - 1)
        yield f"graded-{m}", Tridiagonal(d, e)
        yield f"graded-sorted-{m}", Tridiagonal(np.sort(np.abs(d)), np.sort(e))
    for m in (6, 50, 150):
        d = rng.integers(0, 3, size=m).astype(float)
        e = rng.choice([0.0, 1e-9, 0.5], size=m - 1, p=[0.4, 0.4, 0.2])
        yield f"ties-{m}", Tridiagonal(d, e)
    yield "wilkinson-21", wilkinson_w21()


SOLVER_CASES = dict(_solver_cases())


def tolerance_for(tri):
    scale = max(1.0, float(np.max(np.abs(tri.diag))),
                float(np.max(np.abs(tri.offdiag), initial=0.0)))
    return 1e-11 * scale


@pytest.mark.parametrize("name", SOLVER_CASES)
def test_solver_brackets_reference_and_sweep_bound(monkeypatch, name):
    tri = SOLVER_CASES[name]
    tol = tolerance_for(tri)
    count = min(tri.size, 25)
    got, sweeps = counted_eigen_lowest(monkeypatch, tri, count, tol)
    want, ref_sweeps = reference_bisection(tri, count, tol)

    for j, v in enumerate(got):
        assert count_below(tri, v - tol) <= j
        assert count_below(tri, v + tol) >= j + 1
    assert np.all(np.abs(got - want) <= tol + 8.0 * EPS * np.abs(want))
    assert sweeps <= 2 * ref_sweeps


def test_solver_halves_the_sweeps_on_an_oracle_matrix(monkeypatch):
    hydrogen = coulomb(-1.0)
    tri = build_tridiagonal_radial(default_grid(hydrogen, 1, 3), hydrogen, 1, 3)
    got, sweeps = counted_eigen_lowest(monkeypatch, tri, 4, 1e-11)
    want, ref_sweeps = reference_bisection(tri, 4, 1e-11)
    assert got == pytest.approx(want, abs=1e-11)
    assert sweeps <= ref_sweeps // 2


def test_prepare_squares_match_the_python_products():
    tiny = 2.2250738585072014e-308
    e = np.array([0.0, -0.0, 5e-324, -3e-320, tiny, -1e-160, 1e-170, 0.5,
                  -3.7, 1e154, -1.3e154, 1e200, -1e308])
    _, esq, pivmin = oracle._prepare(np.zeros(len(e) + 1), e)
    want = [float(v) * float(v) for v in e]
    assert all(type(v) is float for v in esq)
    assert [v.hex() for v in esq] == [v.hex() for v in want]
    assert pivmin == tiny * max(want)


def test_degenerate_tolerance_and_range_are_errors_not_hangs():
    tri = Tridiagonal(np.array([1.0, 2.0]), np.array([0.3]))
    for tol in (-1e-12, float("nan")):
        with pytest.raises(ValueError):
            eigen_lowest(tri, 1, tol)
    exact = eigen_lowest(tri, 2, 0.0)  # tol 0: down to float resolution
    want = np.linalg.eigvalsh(np.array([[1.0, 0.3], [0.3, 2.0]]))
    assert exact == pytest.approx(want, rel=1e-15)
    with pytest.raises(ValueError):
        eigen_lowest(Tridiagonal(np.array([1e308, -1e308]), np.array([0.0])), 1)


# -- early-exit counts, the ceiling count and started solves ------------------

def full_count(d, esq, shift, pivmin):
    """Negative LDL^T pivots of T - shift, sweeping every row."""
    q, cnt = d[0] - shift, 0
    for i in range(len(d)):
        if i:
            q = d[i] - shift - esq[i - 1] / q
        if q < pivmin:
            cnt += 1
            q = min(q, -pivmin)
    return cnt


def oracle_matrices():
    hydrogen = coulomb(-1.0)
    grid = cell_grid(30.0, 400)
    return {scheme: oracle._BUILDERS[scheme](grid, hydrogen, 1, 3)
            for scheme in ("radial", "u")}


# a zero tail: just below 0 its pivots are ties, which count as negative
COUNT_CASES = {**SOLVER_CASES, **oracle_matrices(),
               "zero-tail": Tridiagonal(np.array([2.0, 0.0, 0.0, 0.0]),
                                        np.array([1.0, 0.0, 0.0]))}


@pytest.mark.parametrize("name", COUNT_CASES)
def test_early_exit_count_equals_a_full_sweep(name):
    tri = COUNT_CASES[name]
    d, esq, pivmin = oracle._prepare(tri.diag, tri.offdiag)
    floor, ghi = oracle._gershgorin(tri.diag, tri.offdiag, pivmin)
    rng = np.random.default_rng(17)
    span = max(ghi - floor[0], 1.0)
    edges = np.concatenate((tri.diag, floor))
    shifts = np.concatenate((
        rng.uniform(floor[0] - 0.1 * span, ghi + 0.1 * span, size=200),
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)))
    for shift in shifts:
        shift = float(shift)
        assert oracle._negcount(d, esq, shift, pivmin, floor) == \
            full_count(d, esq, shift, pivmin), shift


def rows_reached(d, esq, shift, pivmin, floor=None):
    """Rows an early-exit count sweeps: it stops at the first row i past the
    last one with floor <= shift whose incoming pivot has q^2 >= e^2."""
    stop = len(d) if floor is None else max(1, int(floor.searchsorted(shift, "right")))
    q = d[0] - shift
    for i in range(1, len(d)):
        if i >= stop and q * q >= esq[i - 1]:
            return i
        q = d[i] - shift - esq[i - 1] / (q if abs(q) >= pivmin else -pivmin)
    return len(d)


def recorded_rows(monkeypatch):
    """A list that gets the rows of every Sturm sweep from now on."""
    rows = []
    count, slope = oracle._negcount, oracle._negcount_slope

    def counted(d, esq, shift, pivmin, floor=None):
        rows.append(rows_reached(d, esq, shift, pivmin, floor))
        return count(d, esq, shift, pivmin, floor)

    def counted_slope(d, esq, shift, pivmin):
        rows.append(len(d))
        return slope(d, esq, shift, pivmin)
    monkeypatch.setattr(oracle, "_negcount", counted)
    monkeypatch.setattr(oracle, "_negcount_slope", counted_slope)
    return rows


def test_bound_state_solve_sweeps_under_half_the_rows(monkeypatch):
    hydrogen = coulomb(-1.0)
    grid = default_grid(hydrogen, 1, 3)
    assert grid.count == 1386
    # plain bisection from the Gershgorin bounds, every sweep full length
    _, ref_sweeps = reference_bisection(
        build_tridiagonal_radial(grid, hydrogen, 1, 3), 4, 1e-11)
    before = ref_sweeps * 1386

    rows = recorded_rows(monkeypatch)
    got = solve_bound_states(hydrogen, 1, 3, grid)
    monkeypatch.undo()

    assert got == pytest.approx([-1 / 8, -1 / 18, -1 / 32, -1 / 50], rel=1e-4)
    # the scout's rows included
    assert sum(rows) <= 0.1 * before
    tri = build_tridiagonal_radial(grid, hydrogen, 1, 3)
    for j, v in enumerate(got):
        assert count_below(tri, v - 0.5e-11) <= j
        assert count_below(tri, v + 0.5e-11) >= j + 1


def test_ceiling_count_keeps_the_levels_below_it():
    tri = wilkinson_w21()
    every = eigen_lowest(tri, 21, 1e-12)
    ceiling = 0.5 * (every[6] + every[7])
    below = eigen_lowest(tri, 10, 1e-12, _ceiling=ceiling)
    assert below == pytest.approx(every[:7], abs=1e-12)
    assert len(eigen_lowest(tri, 10, 1e-12, _ceiling=every[0] - 1.0)) == 0
    assert len(eigen_lowest(tri, 10, 1e-12, _ceiling=every[-1] + 1.0)) == 10


@pytest.mark.parametrize("ell,dim", [(0, 2), (1, 3), (2, 5)])
def test_started_level_matches_the_unstarted_one(ell, dim):
    # the order fit's rungs: each level 0 starts from the grids before it
    kratzer = kratzer_fues(5.0, 1.0)
    grid = default_grid(kratzer, ell, dim)
    rungs = [(4, 1), (2, 1), (1, 1)]
    started = oracle.solve_grids(kratzer, ell, dim, grid, rungs)
    for (factor, _), levels in zip(rungs, started):
        rung = (grid if factor == 1 else
                cell_grid(grid.r_max + 0.5 * grid.spacing,
                          round(grid.count / factor)))
        tri = build_tridiagonal_radial(rung, kratzer, ell, dim)
        assert len(levels) == 1
        assert abs(levels[0] - eigen_lowest(tri, 1)[0]) <= 1e-11


def test_a_box_level_above_the_ceiling_makes_the_order_inconclusive():
    # on [0, 0.5] hydrogen's lowest level is a box level far above the
    # bound-state ceiling V_eff(r_max) ~ -2
    hydrogen = coulomb(-1.0)
    report = convergence_study(hydrogen, 0, 3, level=0, exact_energy=-0.5,
                               r_domain=0.5, h_sequence=[0.04, 0.02, 0.01])
    assert report["status"] == "inconclusive"
    assert "ceiling" in report["reason"]
    assert len(solve_bound_states(hydrogen, 0, 3, cell_grid(0.5, 50), 1)) == 0


# -- scout grids: per-level starts only place probes --------------------------

def test_numpy_starts_reach_the_sweeps_as_plain_floats(monkeypatch):
    tri = oracle_matrices()["radial"]
    want = eigen_lowest(tri, 4, 1e-11)
    shifts = []  # every shift that reaches a Sturm sweep
    for name in ("_negcount", "_negcount_slope"):
        fn = getattr(oracle, name)

        def recorded(d, esq, shift, *rest, _fn=fn):
            shifts.append(shift)
            return _fn(d, esq, shift, *rest)
        monkeypatch.setattr(oracle, name, recorded)
    starts = want + np.float64(1e-6)  # numpy scalars, near each level
    ceiling = np.float64(want[-1] + 1.0)  # above every level: a real count
    got = eigen_lowest(tri, 4, 1e-11, _starts=starts, _ceiling=ceiling)
    assert shifts
    assert {type(shift) for shift in shifts} == {float}
    assert np.all(np.abs(got - want) <= 1e-11)


@pytest.mark.parametrize("starts", [
    [0.0] * 4, [-100.0] * 4, [float("nan")] * 4, "reversed", [], [-0.125]],
    ids=["zero", "far-below", "nan", "reversed", "none", "first-only"])
def test_a_start_only_decides_where_a_probe_goes(starts):
    tri = oracle_matrices()["radial"]
    want = eigen_lowest(tri, 4, 1e-11)
    if starts == "reversed":
        starts = want[::-1]
    got = eigen_lowest(tri, 4, 1e-11, _starts=starts)
    assert np.all(np.abs(got - want) <= 1e-11)
    for j, v in enumerate(got):
        assert count_below(tri, v - 0.5e-11) <= j
        assert count_below(tri, v + 0.5e-11) >= j + 1


# (matrix, count, tol, start offset).  At tol 1e-10 a start 0.8 of the early
# close-out's reach away gets a first Newton step that triggers it and lands
# more than tol from the level.
MISS_CASES = {
    "oracle-1e-6": (oracle_matrices()["radial"], 4, 1e-11, 1e-6),
    "oracle-at-trigger": (oracle_matrices()["radial"], 4, 1e-10,
                          0.8 * oracle._EARLY_CLOSE * 0.5e-10),
    "wilkinson-21": (wilkinson_w21(), 21, tolerance_for(wilkinson_w21()), 1e-6),
}


@pytest.mark.parametrize("name", MISS_CASES)
def test_a_missed_first_newton_landing_still_closes_on_counts(monkeypatch, name):
    tri, count, tol, offset = MISS_CASES[name]
    want, ref_sweeps = reference_bisection(tri, count, tol)
    starts = want + offset
    d, esq, pivmin = oracle._prepare(tri.diag, tri.offdiag)
    landings = [s - 1.0 / oracle._negcount_slope(d, esq, float(s), pivmin)[1]
                for s in starts]
    assert max(abs(x - v) for x, v in zip(landings, want)) > tol
    if name != "oracle-1e-6":  # these miss on an early close-out
        reach = oracle._EARLY_CLOSE * 0.5 * tol
        assert any(abs(x - s) <= reach and abs(x - v) > tol
                   for x, s, v in zip(landings, starts, want))

    got, sweeps = counted_eigen_lowest(monkeypatch, tri, count, tol,
                                       _starts=starts)
    for j, v in enumerate(got):
        assert count_below(tri, v - 0.5 * tol) <= j
        assert count_below(tri, v + 0.5 * tol) >= j + 1
    assert np.all(np.abs(got - want) <= tol + 8.0 * EPS * np.abs(want))
    assert sweeps <= 2 * ref_sweeps


def _scout_cases():
    for label, potential in (("coulomb", coulomb(-1.0)),
                             ("kratzer-fues", kratzer_fues(5.0, 1.0))):
        for dim in (2, 3, 5):
            for ell in range(3):
                grid = default_grid(potential, ell, dim, n_max=3)
                yield (f"{label}-N{dim}-ell{ell}", potential, ell, dim,
                       grid, 4, "radial")
    # C = 5: the solve's ceiling is the offset, not 0
    shifted = modified_kratzer(5.0, 1.0)
    yield ("modified-kratzer", shifted, 0, 3,
           default_grid(shifted, 0, 3, n_max=3), 4, "radial")
    hydrogen = coulomb(-1.0)
    # the u scheme on uniform r-cells over [0, 150]
    yield ("u-scheme", hydrogen, 1, 3, cell_grid(150.0, 7500), 4, "u")
    yield ("no-scouts", hydrogen, 0, 3, cell_grid(0.5, 24), 1, "radial")


SCOUT_CASES = {case[0]: case[1:] for case in _scout_cases()}


@pytest.mark.parametrize("name", SCOUT_CASES)
def test_scouted_solve_matches_the_unscouted_one(monkeypatch, name):
    potential, ell, dim, grid, count, scheme = SCOUT_CASES[name]
    sizes = []  # rows of every grid solved
    solve = oracle.eigen_lowest

    def recorded(tri, *args, **kwargs):
        sizes.append(tri.size)
        return solve(tri, *args, **kwargs)
    monkeypatch.setattr(oracle, "eigen_lowest", recorded)
    got, = oracle.solve_grids(potential, ell, dim, grid, [(1, count)], scheme)
    monkeypatch.undo()
    assert sizes[-1] == grid.count
    assert (len(sizes) == 1) == (name == "no-scouts")

    tri = oracle._build(grid, scheme, potential, ell, dim)
    ceiling = oracle._ceiling(potential, ell, dim, grid, scheme)
    plain = eigen_lowest(tri, count, oracle._TOL, _ceiling=ceiling)
    assert len(got) == len(plain)
    assert np.all(np.abs(got - plain) <= oracle._TOL)
    for j, v in enumerate(got):
        assert count_below(tri, v - 0.5 * oracle._TOL) <= j
        assert count_below(tri, v + 0.5 * oracle._TOL) >= j + 1


def test_default_channel_solves_sweep_under_0p7m_rows(monkeypatch):
    # the 18 default verify channels, scout included: 0.60 M rows on the
    # x-grids, 2.23 M on the uniform-r grids with two scouts
    rows = recorded_rows(monkeypatch)
    levels = 0
    for name, (potential, ell, dim, grid, _, _) in SCOUT_CASES.items():
        if name.startswith(("coulomb", "kratzer-fues")):
            levels += len(solve_bound_states(potential, ell, dim, grid))
    assert levels == 72
    assert sum(rows) <= 0.7e6
