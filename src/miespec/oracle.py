"""Independent finite-difference verification of the closed-form spectrum.

The radial problem is discretized on a grid of uniform cells and reduced to
a real symmetric tridiagonal eigenproblem, solved within Sturm-proven
brackets: every bracket end carries an exact eigenvalue count, and a step
model only chooses where the next count is taken.  The kernel is plain
Python rather than LAPACK's ``dstebz``: importing ``scipy.linalg`` would
add about 26 MiB of resident memory and 0.3 s of start-up to every command.
Its cost is rows swept, so it sweeps only rows that decide something:

* A bound-state solve takes its first count at the bound-state ceiling,
  min(C, V_eff(r_max)); no level above it is solved.
* A plain count stops once no later pivot can be negative.  Past the last
  row whose Gershgorin lower bound d_j - |e_{j-1}| - |e_j| is not above the
  shift, a pivot q_{i-1} with |q_{i-1}| >= |e_{i-1}| gives
  q_i >= d_i - shift - |e_{i-1}| > |e_i| > 0, and so on by induction.
* Once a level is isolated, full sweeps also return the log-derivative G of
  det(T - x).  The next probe is Newton's step after one such sweep, and
  after two the pole of G(x) = 1/(x - lam) + c fitted through them, as in
  LAPACK's secular-equation solver (R.-C. Li, LAPACK Working Note 89).
* Every solve is one ladder of grids over the same domain, solved coarse
  to fine (solve_grids): a scout grid of spacing 8h, with 1/8 of the rows,
  then the caller's rungs (a full ``verify``: 4h and 2h for level 0, then
  h, and order_fit gates level 0's order on them).  On every grid, level
  j's first slope probe goes to the h^2 (Richardson) line through the last
  two grids that solved it, or to the one value, not to a bracket midpoint.
* A level closes on its first small model step.  Every oracle solve ends
  on brackets of width tol = _TOL = 1e-11.  Once a step is below
  _EARLY_CLOSE = 1e5 times tol/2, the two counts at x + step +- tol/2 are
  taken at once, not after one more slope sweep has shrunk the step below
  tol/2.  They are real counts, so a miss only shrinks the bracket.

The grid sets the rows per sweep.  On the 18 default ``verify`` channels
the x-grids below have 24.8 k cells, against 136 k on the uniform r-cells
they replace, and a full ``verify`` sweeps 0.64 M rows (0.31 M of them in
slope sweeps, the scout's included) instead of 2.48 M (1.16 M), with the
worst energy error at 0.40 of its tolerance instead of 0.50.  A second
scout of 16h would have only about 80 cells and no longer pays for itself.

A potential is read only through ``value(r)``, ``at_infinity`` and
``kinetic`` = hbar^2/2M; only default_grid sizes its grid from the
closed-form decay rates, and so needs a PotentialParams.  Without a grid,
solve_bound_states asks default_grid for one sized for ``count`` levels.

The one discretization is the conservative cell-centered flux form of
the equation for R itself, on cells uniform in x = sqrt(r) (the
Kustaanheimo-Stiefel map, under which every Coulomb state is a polynomial
times a Gaussian in x), symmetrized in the measure 2 x^{2N-1}.  The grid
coordinate is x, and the grid starts at the origin (cell_grid): the face
weight x^{2N-3}/2 vanishes at the x = 0 face, a natural boundary that keeps
second-order convergence even for channels whose reduced u-equation has the
critical -1/(4 r^2) coupling (e.g. ell = 0, N = 2).

The textbook 3-point stencil for the reduced equation -K u'' + V_eff u = E u,
K = hbar^2/2M, with hard walls one spacing outside a grid in r, remains as
build_tridiagonal, the negative control's matrix: fine for regular
channels, measurably non-convergent for the critical ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridResolutionError
from .spectrum import binding_rate, indicial_root
from .wavefunction import RadialGrid


@dataclass(frozen=True)
class Tridiagonal:
    """Symmetric tridiagonal matrix: main diagonal and one off-diagonal."""
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if len(self.offdiag) != len(self.diag) - 1:
            raise ValueError("offdiag must be one shorter than diag")
        if not (np.all(np.isfinite(self.diag)) and np.all(np.isfinite(self.offdiag))):
            raise GridResolutionError(
                "finite-difference matrix entries must be finite; the grid or "
                "the units leave the double range")

    @property
    def size(self) -> int:
        return len(self.diag)


def effective_potential(potential, ell: int, dim: int, r):
    """V(r) + K [l(l+N-2) + (N-1)(N-3)/4] / r^2, K = hbar^2/2M.

    The barrier term is what reduces the radial equation to
    -K u'' + V_eff u = E u after u = r^{(N-1)/2} R.
    """
    r = np.asarray(r, dtype=float)
    barrier = ell * (ell + dim - 2) + (dim - 1.0) * (dim - 3.0) / 4.0
    out = potential.value(r) + potential.kinetic * barrier / r**2
    return out if out.ndim else float(out)


def build_tridiagonal(grid: RadialGrid, potential, ell: int,
                      dim: int) -> Tridiagonal:
    """3-point u-form stencil over the grid nodes.

    diag_i = 2K/h^2 + V_eff(r_i), offdiag = -K/h^2, K = hbar^2/2M;
    Dirichlet walls sit one spacing outside the grid, so with r_min equal to
    the spacing the left wall is exactly at the origin.
    """
    h = grid.spacing
    r = grid.nodes()
    t = potential.kinetic / (h * h)
    diag = 2.0 * t + effective_potential(potential, ell, dim, r)
    off = np.full(grid.count - 1, -t)
    return Tridiagonal(diag=np.ascontiguousarray(diag),
                       offdiag=np.ascontiguousarray(off))


def build_tridiagonal_radial(grid: RadialGrid, potential, ell: int,
                             dim: int) -> Tridiagonal:
    """Conservative flux discretization of the R-equation in x = sqrt(r),
    symmetrized.

    The grid's nodes are x values.  Under r = x^2 the R-equation reads
    -K (p R')' / w + V_c(x^2) R = E R, K = hbar^2/2M, with face weight
    p = x^{2N-3}/2 and cell measure w = 2 x^{2N-1}, V_c being V plus the
    l(l+N-2) barrier.  Cells are centered on the nodes with faces halfway
    between, and the first face must sit at the origin, where p vanishes
    (a natural boundary), as on cell_grid()'s grids; any other grid is a
    ValueError.  The weights enter only as powers of face/node ratios, so
    no finite grid overflows them.

    An entry that leaves the double range is refused by Tridiagonal, not
    warned about on the way; so is a spacing whose square underflows,
    before any entry is formed, and a nonzero off-diagonal whose square,
    which the Sturm counts read, is below the normal range.
    """
    h = grid.spacing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        x = grid.nodes()
        faces = np.concatenate(([x[0] - 0.5 * h], x + 0.5 * h))
        if abs(faces[0]) > 1e-12 * h:
            raise ValueError("the radial scheme needs a grid whose first "
                             "cell face is at the origin (r_min = "
                             "spacing/2), as cell_grid builds")
        if h * h == 0.0:
            raise GridResolutionError(
                "finite-difference matrix entries must be finite; the grid "
                "spacing squared underflows to zero")
        faces[0] = max(faces[0], 0.0)
        q = 2.0 * dim - 3.0
        r = x * x
        # (K/h^2) p/w on each side of a cell, without the (f/x)^q
        t = potential.kinetic / (4.0 * h * h)
        barrier = ell * (ell + dim - 2)
        vc = potential.value(r) + potential.kinetic * barrier / r**2
        diag = t * ((faces[1:] / x) ** q + (faces[:-1] / x) ** q) / r + vc
        # p_f / sqrt(w_i w_{i+1}) = (f^2 / (x_i x_{i+1}))^{q/2} / (4 x_i x_{i+1})
        f = faces[1:-1]
        off = -t * ((f / x[:-1]) * (f / x[1:])) ** (0.5 * q) / (x[:-1] * x[1:])
        tri = Tridiagonal(diag=np.ascontiguousarray(diag),
                          offdiag=np.ascontiguousarray(off))
    e = np.abs(tri.offdiag)
    if np.any((e > 0.0) & (e < _ROOT_TINY)):
        raise GridResolutionError(
            "finite-difference matrix entries must have squares in the "
            "normal double range; the grid or the units leave it")
    return tri


def cell_grid(r_domain: float, count: int) -> RadialGrid:
    """Cell-centered grid for [0, r_domain]: nodes at (i - 1/2) h, so the
    first cell face is the origin.  The radial scheme reads its coordinate
    as x, build_tridiagonal as r."""
    if r_domain <= 0.0 or count < 3:
        raise ValueError("need positive domain and at least 3 cells")
    h = r_domain / count
    return RadialGrid(r_min=0.5 * h, r_max=r_domain - 0.5 * h, count=count)


# default_grid's bounds on the cell count: 4 cells per level on the order
# fit's 4h rung, and a cost cap of 400,000 rows per sweep
_CELLS_PER_LEVEL = 16
_MAX_CELLS = 400000


def default_grid(potential, ell: int, dim: int, n_max: int = 3,
                 refine: float = 1.0) -> RadialGrid:
    """Channel-sized grid for the radial scheme, uniform in x = sqrt(r).

    The r-domain covers the slowest decay and the r-spacing h_r resolves
    the fastest; the x-grid then gets 16 sqrt(r_domain / h_r) cells, times
    ``refine`` (2.0 halves the spacing).  Under r = x^2 every Coulomb state
    is a polynomial times a Gaussian in x, which uniform x-cells resolve
    with far fewer rows than uniform r-cells.  A count outside
    [16 (n_max + 1), 400000] raises GridResolutionError naming it, rather
    than being clamped silently.
    """
    if n_max < 0:
        raise ValueError("default grid sizing needs n_max >= 0")
    if not refine > 0.0:
        raise ValueError("the grid refinement factor must be positive")
    k = indicial_root(potential, ell, dim)
    beta = binding_rate(potential)
    if beta <= 0.0:
        raise ValueError("default grid sizing needs an attractive tail (B < 0)")
    eps_min = beta / (2.0 * n_max + 2.0 * k + 3.0 - dim)
    eps_max = beta / (2.0 * k + 3.0 - dim)
    r_domain = 1.5 * (2.0 * n_max + 2.0 * k + 10.0) / eps_min
    h = 0.01 / eps_max
    # a spacing that underflows to 0 or a domain past the double range
    # sizes to inf cells, a spacing that overflows to 0 cells
    cells = 16.0 * math.sqrt(r_domain / h) * refine if h else math.inf
    count = math.ceil(cells) if cells < math.inf else cells
    least = _CELLS_PER_LEVEL * (n_max + 1)
    if not least <= count <= _MAX_CELLS:
        raise GridResolutionError(
            f"the grid for ell={ell}, N={dim} sizes to {count} cells; the "
            f"oracle needs at least {least} ({_CELLS_PER_LEVEL} per level) "
            f"and allows at most {_MAX_CELLS}")
    return cell_grid(math.sqrt(r_domain), count)


# -- Sturm-count brackets with model-placed probes ----------------------------
# Plain Python lists in the hot loop beat per-element numpy indexing.  A pivot
# smaller than pivmin in magnitude is replaced by -pivmin, so an exact tie
# counts as negative and never divides by zero.

_TINY = 2.2250738585072014e-308
_ROOT_TINY = math.sqrt(_TINY)  # the least |e| whose square is normal
_EPS = 2.220446049250313e-16
_DENORM = 5e-324  # rounding error of a product in the subnormal range
_TOL = 1e-11  # bracket width of every oracle solve
# A level is closed by counts once its model step is below _EARLY_CLOSE
# times tol/2 (see eigen_lowest).  On the 18 default verify channels,
# thresholds of 1e4, 1e5 and 1e6 sweep 1.46, 1.25 and 1.32 M slope rows and
# 1.18, 1.33 and 1.39 M plain-count rows; a slope row costs about twice a
# plain one, so 1e5 costs least.  1e3 leaves 1.64 M slope rows, and the
# constant-free rule step^2 <= tol/2 |previous step| 1.71 M.
_EARLY_CLOSE = 1e5


def _prepare(diag, offdiag):
    d = np.asarray(diag, dtype=float).tolist()
    e = np.asarray(offdiag, dtype=float)
    with np.errstate(over="ignore"):  # an e^2 past the double range is inf
        esq = (e * e).tolist()
    pivmin = _TINY * max(1.0, max(esq, default=1.0))
    return d, esq, pivmin


def _gershgorin(diag, offdiag, pivmin):
    """(floor, upper bound): floor[i] is the least Gershgorin lower bound
    d_j - |e_{j-1}| - |e_j| over rows j >= i, lowered by a margin that
    covers the rounding of the pivot recurrence; it never decreases in i."""
    d = np.asarray(diag, dtype=float)
    a = np.abs(np.asarray(offdiag, dtype=float))
    rad = np.concatenate(([0.0], a)) + np.concatenate((a, [0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        low = (d - rad - 8.0 * _EPS * (np.abs(d) + rad)
               - (2.0 * pivmin + 8.0 * _DENORM / pivmin))
        floor = np.minimum.accumulate(low[::-1])[::-1]
        return floor, float(np.max(d + rad))


def _negcount(d, esq, shift, pivmin, floor=None):
    """Number of negative LDL^T pivots of T - shift: eigenvalues below it.

    With ``floor`` from _gershgorin the sweep ends at the first row i with
    floor[i] > shift whose incoming pivot has q^2 >= e_{i-1}^2; by the
    induction in eigen_lowest no later pivot is negative.
    """
    m = len(d)
    stop = m if floor is None else max(1, int(floor.searchsorted(shift, "right")))
    q = d[0] - shift
    cnt = 0
    if q < pivmin:
        cnt = 1
        if q > -pivmin:
            q = -pivmin
    for di, ei in zip(d[1:stop], esq):
        q = di - shift - ei / q
        if q < pivmin:
            cnt += 1
            if q > -pivmin:
                q = -pivmin
    for i in range(stop, m):
        ei = esq[i - 1]
        if q * q >= ei:
            break
        q = d[i] - shift - ei / q
        if q < pivmin:
            cnt += 1
            if q > -pivmin:
                q = -pivmin
    return cnt


def _negcount_slope(d, esq, shift, pivmin):
    """(_negcount, d/dx log|det(T - x)| at x = shift) from one sweep.

    The log-derivative is sum q_i'/q_i over the pivots, with
    q_i' = -1 + e_{i-1}^2 q_{i-1}' / q_{i-1}^2 carried as r = q'/q.  It
    always runs the full length: every row adds a term.
    """
    q = d[0] - shift
    cnt = 0
    if q < pivmin:
        cnt = 1
        if q > -pivmin:
            q = -pivmin
    r = -1.0 / q
    slope = r
    for di, ei in zip(d[1:], esq):
        t = ei / q
        q = di - shift - t
        if q < pivmin:
            cnt += 1
            if q > -pivmin:
                q = -pivmin
        r = (t * r - 1.0) / q
        slope += r
    return cnt, slope


def _converged(lo, hi, tol):
    # the eps and _TINY terms stop at float resolution: above them the
    # midpoint lies strictly inside the bracket, so every probe shrinks it
    return hi - lo <= tol + 2.0 * _EPS * (abs(lo) + abs(hi)) + _TINY


def _pole(x1, g1, x2, g2, lo, hi):
    """The pole lam of the model G(x) = 1/(x - lam) + c through the slope
    samples (x1, G1) and (x2, G2), or None if it is not strictly inside
    (lo, hi).

    The fit has two roots, mirror images about (x1 + x2)/2; both lie in the
    bracket only when x1 and x2 straddle the level.  The pole term then
    dominates G near the level, so the root that leaves the smaller |c| is
    taken.
    """
    # u = x2 - lam solves u (u + dx) = dx / (g2 - g1) with dx = x1 - x2
    dx = x1 - x2
    p = dx / (g2 - g1) if g2 != g1 else math.nan
    disc = dx * dx + 4.0 * p
    if not (disc >= 0.0 and math.isfinite(disc)):
        return None
    u = -0.5 * (dx + math.copysign(math.sqrt(disc), dx))
    roots = [x2 - v for v in (u, -p / u if u else math.nan) if v]
    inside = [lam for lam in roots if lo < lam < hi]
    return min(inside, key=lambda lam: abs(g2 - 1.0 / (x2 - lam)), default=None)


def eigen_lowest(tri: Tridiagonal, count: int, tol: float = _TOL, *,
                 _ceiling: float | None = None, _starts=()) -> np.ndarray:
    """The ``count`` smallest eigenvalues of ``tri``, each the midpoint of a
    bracket of width ``tol`` whose two ends carry real Sturm counts.

    Raises ValueError unless 1 <= count <= tri.size and tol >= 0, or when
    the entries are so large that the Gershgorin interval overflows.

    Brackets start from the Gershgorin bounds.  Every count at x tightens
    the bracket of every requested level, as in LAPACK's dstebz.  Given a
    ``_ceiling``, the first count is taken there and only the levels below
    it are solved and returned.  The oracle's own solves pass it, and
    ``_starts``: one estimate per level, which only places the level's
    first slope probe.

    A plain count ends early.  Past the last row whose Gershgorin lower
    bound d_j - |e_{j-1}| - |e_j| (lowered by a rounding margin) is not
    above the shift, take a row i whose incoming pivot has
    |q_{i-1}| >= |e_{i-1}|.  Then e_{i-1}^2 / q_{i-1} <= |e_{i-1}|, so
    q_i = d_i - shift - e_{i-1}^2 / q_{i-1} >= d_i - shift - |e_{i-1}|
    > |e_i|, and by induction every later pivot exceeds the next |e| >= 0:
    none is negative and the count is final.

    Once level j is isolated (its ends count j and j + 1 eigenvalues below
    them), its probes are full sweeps that also return
    G(x) = d/dx log|det(T - x)|, which only chooses where the next count
    goes; only counts move bracket ends.  (A sweep cut short would give the
    G of a leading block, whose eigenvalues Newton would then chase.)  The
    first such probe of level j goes to ``_starts[j]`` if that is given and
    lies in the bracket; a missing, non-finite or outlying start leaves it
    at the midpoint.  A start thus only decides where a probe goes.  After
    the level's first sweep the next probe is Newton's step x - 1/G on
    det(T - x).  After two, it is the pole lam of the model
    G(x) = 1/(x - lam) + c fitted through the last two, as in LAPACK's
    secular-equation solver, when lam lies in the bracket: the other
    eigenvalues damp Newton's step, and the constant c absorbs them.  The
    midpoint is probed instead when no step is finite and inside the
    bracket, and right after a step probe that failed to halve it, so every
    two probes at least halve the bracket.

    A step shorter than tol/2 is closed, once per level, by counts at
    x +- tol/2 around the model root x.  So is, once per level and with a
    flag of its own, a step shorter than _EARLY_CLOSE * tol/2: from a
    predicted start, Newton's first step usually lands within tol/2, and one
    more slope sweep would only confirm it.  Neither close can change what
    is proven: both are counts, which move bracket ends as any count does,
    and a level still ends only on a bracket of width <= tol.  A miss
    leaves x outside the bracket, at most tol/2 past the end it moved; the
    next slope probe goes to that end, and the exact close is still there
    for the step it gives.
    """
    d, esq, pivmin = _prepare(tri.diag, tri.offdiag)
    m = len(d)
    if not 1 <= count <= m:
        raise ValueError("count must be in [1, matrix dimension]")
    if not tol >= 0.0:
        raise ValueError("tolerance must be non-negative")

    floor, ghi = _gershgorin(tri.diag, tri.offdiag, pivmin)
    glo = float(floor[0])
    if not math.isfinite(ghi - glo):
        raise ValueError("Gershgorin interval overflows the float range")

    # plain floats: a numpy scalar start or ceiling would run every sweep
    # it reaches in numpy-scalar arithmetic
    starts = [float(s) for s in _starts]
    ceiling = None if _ceiling is None else float(_ceiling)
    lo, hi = [glo] * count, [ghi] * count
    nlo, nhi = [0] * count, [m] * count  # Sturm counts at lo and hi

    def probe(x, slope=False):
        if slope:
            c, s = _negcount_slope(d, esq, x, pivmin)
        else:
            c, s = _negcount(d, esq, x, pivmin, floor), None
        for k in range(min(c, count)):
            if x < hi[k]:
                hi[k], nhi[k] = x, c
        for k in range(c, count):
            if x > lo[k]:
                lo[k], nlo[k] = x, c
        return c, s

    if ceiling is not None:
        below = m if ceiling >= ghi else 0 if ceiling <= glo else probe(ceiling)[0]
        count = min(count, below)

    out = np.empty(count)
    for j in range(count):
        x = starts[j] if j < len(starts) else None  # the next slope probe
        last = None       # (x, G) of this level's last slope sweep
        bisect = False    # the last step probe failed to halve the bracket
        closed = False    # x +- tol/2 counted on a step below tol/2
        early = False     # ... on a step below _EARLY_CLOSE * tol/2
        while not _converged(lo[j], hi[j], tol):
            a, b = lo[j], hi[j]
            if bisect or nlo[j] != j or nhi[j] != j + 1:
                probe(a + 0.5 * (b - a))
                bisect = False
                continue
            stepped = x is not None and a <= x <= b
            if not stepped:
                x = a + 0.5 * (b - a)
            g = probe(x, slope=True)[1]
            bisect = stepped and hi[j] - lo[j] > 0.5 * (b - a)
            lam = None if last is None else _pole(*last, x, g, lo[j], hi[j])
            last = (x, g)
            step = (lam - x if lam is not None
                    else -1.0 / g if g else math.nan)
            x = x + step
            if not math.isfinite(x):
                x = None
                continue
            half = 0.5 * tol + _EPS * abs(x)  # tol/2, but at least one ulp
            if abs(step) <= half and not closed:
                closed = True
            elif abs(step) <= _EARLY_CLOSE * half and not early:
                early = True
            else:
                continue
            for y in (x - half, x + half):
                if lo[j] < y < hi[j]:
                    probe(y)
            # a miss leaves x just outside the bracket: the next slope
            # probe goes to the end the counts moved, next to the level
            x = min(max(x, lo[j]), hi[j])
        out[j] = 0.5 * (lo[j] + hi[j])
    return out


def count_below(tri: Tridiagonal, bound: float) -> int:
    """Exact number of eigenvalues below ``bound`` (Sturm count)."""
    bound = float(bound)
    if math.isnan(bound):
        raise ValueError("the count bound must not be NaN")
    d, esq, pivmin = _prepare(tri.diag, tri.offdiag)
    return _negcount(d, esq, bound, pivmin)


def _ceiling(potential, ell: int, dim: int, grid: RadialGrid) -> float:
    """Bound-state ceiling of a grid: the potential's value at infinity or
    the effective potential at the outer node, whichever is lower.  The
    nodes are x = sqrt(r).  An r^2 past the double range leaves a 1/r^2
    term at its limit, zero."""
    with np.errstate(over="ignore"):
        v_edge = float(effective_potential(potential, ell, dim,
                                           grid.r_max * grid.r_max))
    return min(potential.at_infinity, v_edge)


def solve_bound_states(potential, ell: int, dim: int,
                       grid: RadialGrid | None = None,
                       count: int = 4) -> np.ndarray:
    """Up to ``count`` lowest discrete eigenvalues that qualify as bound.

    Eigenvalues are kept only below the potential's value at infinity and
    below the effective potential at the domain edge (anything above is box
    artifact, not physics).  The grid, default_grid's sized for ``count``
    levels when none is given, is the one rung of solve_grids.
    """
    if grid is None:
        grid = default_grid(potential, ell, dim, n_max=count - 1)
    return solve_grids(potential, ell, dim, grid, [(1, count)])[0]


# spacing factor of the scout grid solved in front of the rungs
_SCOUT = 8


def solve_grids(potential, ell: int, dim: int, grid: RadialGrid,
                rungs) -> list:
    """Bound levels of the radial scheme on a ladder of grids over the
    domain of ``grid``, which must start at the origin (cell_grid's).

    ``rungs`` is a non-empty list of (spacing factor, level count) pairs,
    coarse to fine, each factor positive and finite (else a ValueError);
    factor 1 is ``grid`` itself and factor f has about 1/f of its cells.
    One level array is returned per rung, each holding the levels below
    that grid's bound-state ceiling, so it may be short; a count outside
    [1, cells] is eigen_lowest's ValueError.

    A scout grid of factor 8 is solved first, at the highest count of any
    rung, unless a rung already has that factor or the scout would have
    fewer than 4 cells per level.  On every grid, level j's first slope
    probe goes to _predict from the grids already solved; a prediction only
    places a probe, and every grid sees only FD matrices, so the oracle
    stays independent of the closed form.
    """
    if not rungs or not all(0.0 < f < math.inf for f, _ in rungs):
        raise ValueError("rungs must be a non-empty list of (spacing factor, "
                         "level count) pairs with positive finite factors")
    domain = grid.r_max + 0.5 * grid.spacing
    top = max(count for _, count in rungs)
    scouts = ([] if any(f == _SCOUT for f, _ in rungs)
              or round(grid.count / _SCOUT) < 4 * top else [(_SCOUT, top)])
    solved = [[] for _ in range(top)]  # (spacing, value) per level, in order
    out = []
    for factor, count in [*scouts, *rungs]:
        rung = (grid if factor == 1 else
                cell_grid(domain, round(grid.count / factor)))
        levels = eigen_lowest(
            build_tridiagonal_radial(rung, potential, ell, dim), count, _TOL,
            _starts=[_predict(solved[j], rung.spacing) for j in range(count)],
            _ceiling=_ceiling(potential, ell, dim, rung))
        for j, value in enumerate(levels):
            solved[j].append((rung.spacing, value))
        out.append(levels)
    return out[len(scouts):]


def _predict(solved: list, spacing: float) -> float:
    """A level's estimate at ``spacing`` from the (spacing, value) pairs of
    the grids that solved it: the h^2 error model E(s) = E + c s^2
    (Richardson, 1911) through the last two, the last value when those two
    share a spacing or only one grid solved it, or nan (no start) when
    none did."""
    if not solved:
        return math.nan
    s1, e1 = solved[-2] if len(solved) > 1 else solved[-1]
    s2, e2 = solved[-1]
    if s1 == s2:
        return e2
    w = (spacing * spacing - s2 * s2) / (s1 * s1 - s2 * s2)
    return e2 + w * (e1 - e2)


def order_fit(levels: list, level: int, exact_energy: float) -> dict:
    """Convergence report of eigenvalue ``level`` from solve_grids' level
    arrays, one per rung, on two or more rungs whose spacings halve coarse
    to fine (factors 4, 2, 1): ``order`` is the mean log2 ratio of
    successive errors.  A grid that holds no such bound level, and error
    sequences that are non-monotone or already at the rounding floor, are
    reported as inconclusive rather than fitted.

    ``passed`` is the order gate: a fitted order within 0.2 of 2, or errors
    at the rounding floor, where no order can be read; any other
    inconclusive fit fails it.  Fewer than two level arrays hold no order
    to read, and are a ValueError.
    """
    if len(levels) < 2:
        raise ValueError("order_fit needs the level arrays of two or more "
                         "rungs")
    errors = [abs(float(values[level]) - exact_energy)
              for values in levels if len(values) > level]
    report = {"errors": errors, "order": None, "status": "inconclusive",
              "reason": "", "passed": False}
    if len(errors) < len(levels):
        report["reason"] = "level above the bound-state ceiling on some grid"
        return report
    if min(errors) <= 1e-9 * max(1.0, abs(exact_energy)):
        report.update(reason="errors at rounding floor", passed=True)
        return report
    if any(b >= a for a, b in zip(errors, errors[1:])):
        report["reason"] = "non-monotone error sequence"
        return report
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    order = sum(orders) / len(orders)
    report.update(order=order, status="ok", passed=abs(order - 2.0) <= 0.2)
    return report
