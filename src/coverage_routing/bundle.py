"""Level bundle method for the dual of the coverage-requirement relaxation.

The dual function (min over multipliers ``lam <= 0``) is evaluated exactly by
the labeling solvers.  It is a maximum over idle candidates, and each
candidate's best route, with its timing fixed, is affine in ``lam`` and lies
at or below it everywhere; so one evaluation adds one affine cut (a gradient
and an offset) per candidate that has a route: the maximizing candidate's
first, then the others in idle-set order (the multicut idea of Birge &
Louveaux, *EJOR* 1988), built after the evaluation's wall time is stamped
so that no bound waits for them (in case I, no bound waits for a route
either), and all of them in one :func:`make_cut` pass.  The cuts live in
a :class:`CutPool` of arrays that holds each cut's norm and unit row from
the moment it is added.  The next iterate is the
projection of the current one onto the level set ``{lam <= 0 : all cuts <=
f_lev}`` with ``f_lev = phi*LB + (1-phi)*UB``, except after an exact row:
an evaluation whose value is at most its level plus ``h``, half the stopping
gap.  The cut model is then tight where it was evaluated, so the next level
is lowered to ``LB + h`` if that is below the ``phi`` point, the highest
level at which one more exact evaluation closes the gap; a certificate that
refutes it lifts ``LB`` and allows one more such jump.  The master sees only
the iterate, the pool and ``f_lev``.  It projects by one dual active-set QP
(Goldfarb & Idnani, *Math. Programming* 1983) started at the iterate, which
needs no feasible point: it either reaches the projection or proves the
level set empty, with steps that keep their bookkeeping in Python floats
and preallocated buffers.  If the iterate can be projected, it is
evaluated, its cuts are added, and ``UB`` shrinks toward the dual value.
The master moves ``LB`` only on a certificate that the level set is empty:
weights ``y >= 0`` summing to 1 over the cuts whose aggregated gradient
``sum y_k g_k`` is ``<= 0`` in every component.  The QP's last dual step
supplies the weights, and one check, :func:`_verify_farkas`, accepts or
refuses them; when rounding makes its working cuts dependent, or when it
reaches its step cap, the QP stops with no point and no weights, which the
check refuses.
The aggregated cut then lies below the dual function at every ``lam <=
0``, so its offset ``sum y_k o_k``, above ``f_lev``, is the new ``LB``: a
lower bound on the cut model's minimum, and often that minimum itself (the
level method of Lemarechal, Nemirovskii & Nesterov, *Math. Programming*
1995).  An emptiness verdict without such a certificate leaves ``LB``
alone; the next level then moves from the refuted one toward ``UB``.

Every evaluation lifts ``LB`` too.  A cut whose gradient is ``<= 0`` in
every component comes from a route that meets every requirement; if that
route also fits the deadline (its recorded travel time is at most it, as
every case-II route's is), it is primal feasible, and its offset, its
primal value, bounds the dual optimum from below by weak duality.  After
each evaluation's cut pass ``LB`` becomes the largest such offset if that
is higher, capped at ``UB``: the one-route vertices of the cut model's
restricted master.  ``LB`` starts from the ``lam = 0`` evaluation's
feasible cuts, or from a deep floor when it has none.  Every route's value
is at least 0, so a dual value below 0 proves that no route meets the
requirements and that the dual is unbounded below: the loop stops there,
converged.  No certificate and no feasible cut can hold on such an
instance, so ``LB`` stays at the floor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg import _umath_linalg

from .instance import (VALIDATE_TOL, ArcIndexTable, Instance, PathSolution,
                       build_index_table)
from .labeling_case1 import solve_case1
from .labeling_case2 import RATIO_SLOPE, solve_case2
from .relaxation import (CASE_I, PathTiming, RelaxValue, _idle_time,
                         assemble_f_value, build_coeffs, make_cut)
# not called here: bench/tracing.py times the simplex under this name
from .simplex import dense_lp_solve  # noqa: F401

LB_FLOOR = -1e9
#: levels lowered to half the stopping gap above the floor after an exact
#: row, the later ones each after a certificate refuted the one before (see
#: :func:`run_dual`)
LEVEL_JUMPS = 2

CONVERGED = "converged"
ITERATION_LIMIT = "iteration-limit"
TIME_LIMIT = "time-limit"

MASTER_FEASIBLE = "feasible"
MASTER_INFEASIBLE = "infeasible"
#: the projection gave no verdict that holds: it found the level set empty
#: but its certificate failed the check, or it stopped short (at a singular
#: Gram matrix or at the step cap) with no point and no certificate
MASTER_UNVERIFIED = "unverified"

#: projection: violation per unit row norm (relative to the iterate and the
#: row's distance from the origin) below which a row counts as met, and the
#: step cap after which the projection stops with no verdict
PROJECTION_TOL = 1e-10
PROJECTION_MAX_STEPS = 1000
#: a primal step direction shorter than this, relative to the dual step
#: (rows have unit norm), is zero; a dual step entry must exceed the other
#: to count as positive
_ZERO_STEP = 1e-9
_DUAL_STEP_EPS = 1e-12
#: rounding allowance of a Farkas certificate's ``y.G <= 0``, relative to
#: the largest entry of ``G``, with ``y`` scaled to sum to 1
_FARKAS_RTOL = 1e-9


@dataclass
class TraceRow:
    """One iteration of :func:`run_dual`: its dual value (None when no point
    was evaluated), the bounds after it, ``lb`` including the lift of the
    evaluation's feasible cuts, its level and master verdict, and the
    seconds since the run started when the verdict or evaluation returned,
    before any of the evaluation's cuts was built and, in case I and in a
    certified case II (see ``labeling_case2``), before any of its routes
    was chosen."""

    iteration: int
    f_value: Optional[float]
    lb: float
    ub: float
    f_lev: Optional[float]
    master_status: str
    wall_time: float


@dataclass
class MasterResult:
    status: str
    lam: Optional[np.ndarray]
    active: Tuple[int, ...] = ()
    #: False when the projection stopped short (``MASTER_UNVERIFIED``)
    exact: bool = True
    #: with ``MASTER_INFEASIBLE``: the certified lower bound ``sum y_k o_k``
    bound: Optional[float] = None


# ---------------------------------------------------------------------------
# projection master

#: the LAPACK gufunc that ``np.linalg.solve`` calls for a 1-D right-hand side
_solve1 = _umath_linalg.solve1


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _linalg_state() -> np.errstate:
    """The floating-point state under which ``np.linalg.solve`` calls its
    gufunc: a singular matrix raises ``LinAlgError``, and overflow,
    division by zero and underflow pass silently."""
    return np.errstate(call=_raise_singular, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _gram_solve(G: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(G, rhs)`` for a square float matrix and a float
    vector, bit for bit, without the wrapper's checks and conversions: the
    same gufunc, called under :func:`_linalg_state`, which the caller
    enters, so a singular ``G`` raises ``LinAlgError``."""
    return _solve1(G, rhs, signature="dd->d")


class CutPool:
    """The cuts ``g . lam + o`` a run has collected, one row each, in the
    order they were added: their gradients and offsets, and for the
    projection each gradient's norm (1 for a zero gradient) and ``rows``,
    the gradients at unit norm stacked over the bound rows ``I``; for the
    certificate check, ``max_abs``, the largest ``|entry|`` of the
    gradients (0 with none).  Norms and unit rows are computed once per
    cut, and ``rows`` is rebuilt only when cuts are added."""

    def __init__(self, gradients: np.ndarray, offsets: np.ndarray):
        m = gradients.shape[1]
        self.gradients = np.zeros((0, m))
        self.offsets = np.zeros(0)
        self.norms = np.zeros(0)
        self.rows = np.eye(m)
        self.max_abs = 0.0
        self.add(gradients, offsets)

    def __len__(self) -> int:
        return len(self.offsets)

    def add(self, gradients: np.ndarray, offsets: np.ndarray) -> None:
        """Append cuts; earlier arrays are replaced, never changed."""
        k = len(self)
        norms = np.sqrt(np.einsum("ij,ij->i", gradients, gradients))
        norms[norms == 0.0] = 1.0
        self.gradients = np.concatenate([self.gradients, gradients])
        self.offsets = np.concatenate([self.offsets, offsets])
        self.norms = np.concatenate([self.norms, norms])
        self.rows = np.concatenate(
            [self.rows[:k], gradients / norms[:, None], self.rows[k:]])
        self.max_abs = max(self.max_abs,
                           float(np.abs(gradients).max(initial=0.0)))


def _project_dual(center: np.ndarray, pool: CutPool, d: np.ndarray
                  ) -> Tuple[Optional[np.ndarray], np.ndarray, List[int], bool]:
    """Projection of ``center`` onto ``{x : C x <= d, x <= 0}``, ``C`` the
    pool's gradients, by the dual active-set method of Goldfarb & Idnani
    (*Math. Programming* 1983) with ``H = I``: it starts at ``center`` and
    adds violated rows until none is left, so it needs no feasible start.

    Returns the projection, the multipliers of the rows ``[C; I]`` (cuts,
    then bounds) for the objective ``|x - center|^2``, the final working set
    as row numbers of ``[C; I]``, and an exactness flag.  On an empty set the
    projection is None and the multipliers are weights ``w >= 0`` of
    ``[C; I]`` whose rows sum to 0 while ``w . [d; 0] < 0``.

    The cuts are the pool's unit rows, with ``d`` scaled alike.  The working
    set is a list of cut rows plus a mask of coordinates fixed at 0; every
    coordinate that is 0 at ``center`` starts fixed with multiplier 0.  Each
    step takes the most violated row per unit norm, from one product with
    the pool's stacked ``[unit rows; I]``.  Its primal direction ``z`` (the
    row projected onto the null space of the working set) and dual
    direction ``r`` (its coefficients over the working rows) come from one
    Gram system of the working cuts over the free coordinates.  A full step
    makes the row tight and adds it.  A partial step stops where working
    multipliers reach 0 and drops those rows; fixed coordinates that tie at
    multiplier 0 go together.  A working row that rounding lets slip past
    the tolerance is added anew with its multiplier.  A zero primal step
    with no positive entry of ``r`` proves the set empty, with weights
    ``[-r; 1]``.  Two exits give no verdict: None comes back inexactly with
    zero weights, which certify nothing.  If the step cap is hit, the
    iterate is no projection, and on a nearly dependent empty set it can
    have run off without bound.  If rounding makes the Gram matrix
    singular, the working cuts are dependent over the free coordinates; the
    null combination of those cuts meets the certificate check only within
    its rounding slack, and can bound far above the cut model's minimum.

    A step solves the Gram system of the working cuts by the LAPACK gufunc
    that ``np.linalg.solve`` wraps, called directly (:func:`_gram_solve`).
    The floating-point state that ``np.linalg.solve`` sets for it
    (:func:`_linalg_state`) is entered once per projection, around all of
    its steps: a ``LinAlgError`` raised anywhere in them ends the
    projection with no verdict, and the caller's state comes back on every
    exit.  Past the Gram system a step allocates nothing: the working cuts'
    multipliers and their ratio test are Python floats, and the working
    rows, violations, step parts and bound ratios live in buffers made once
    per call (a step with no bound ratio skips them).  The free coordinates
    are kept as a mask, as a float copy of it that multiplies the working
    rows without a cast, and as a counter.  The rows' own share of the
    violation thresholds, ``|b|`` times the tolerance, is scaled once per
    call; a step compares the largest violation with its own threshold
    alone, and forms them all only when that violation is within it.
    ``r_b`` is ``s`` with its free entries zeroed and ``z`` is ``s - r_b``:
    ``s`` on the free entries and ``+0.0`` on the fixed ones.  Every
    operation that feeds the iterate, the multipliers or the weights is the
    one the step made on fresh arrays, in the same order, so the results
    are the same bit for bit."""
    k, m = len(pool), len(center)
    norms, A = pool.norms, pool.rows
    b = np.concatenate([d / norms, np.zeros(m)])
    # max(|b|, scale) * tol, as max(|b| * tol, scale * tol): rounding is
    # monotone, so the two agree bit for bit
    tol_b = np.abs(b) * PROJECTION_TOL
    x = center.astype(float)
    free = x != 0.0
    free_f = free.astype(float)  # the mask as the factor of a product
    n_free = int(np.count_nonzero(free))
    u_b = np.zeros(m)  # multipliers of the fixed coordinates, 0 elsewhere
    work: List[int] = []
    u_w: List[float] = []
    p, u_p = -1, 0.0  # the row being added, and its multiplier so far
    # buffers: the working cut rows (the first len(work) in use) and their
    # copy over the free coordinates; the violations, their thresholds and
    # the rows within them; the step s with its parts z and r_b, the bound
    # ratios, a mask over the coordinates and a spare vector for products
    rows, masked = np.empty((2, min(k, m), m))
    v, thr = np.empty((2, k + m))
    met = np.empty(k + m, dtype=bool)
    s, z, r_b, ratio_b, tmp = np.empty((5, m))
    mask = np.empty(m, dtype=bool)

    def active() -> List[int]:
        return work + (k + np.flatnonzero(~free)).tolist()

    def over_rows(on_work: np.ndarray, on_bounds: np.ndarray) -> np.ndarray:
        # values per working row of A, as values per row of [C; I]
        out = np.zeros(k + m)
        out[work] = on_work / norms[work]
        out[k:] = on_bounds
        return out

    with _linalg_state():
        try:
            for _ in range(PROJECTION_MAX_STEPS):
                if p < 0:
                    # fixed coordinates are exactly 0, so only working cuts
                    # can be violated among the working rows
                    scale = max(1.0,
                                float(np.maximum.reduce(np.abs(x, out=tmp))))
                    np.matmul(A, x, out=v)
                    v -= b
                    p = int(v.argmax())
                    if not v.item(p) > max(tol_b.item(p),
                                           scale * PROJECTION_TOL):
                        # the largest violation is within its tolerance:
                        # look for the largest among those that are not
                        np.maximum(tol_b, scale * PROJECTION_TOL, out=thr)
                        np.copyto(v, -np.inf,
                                  where=np.less_equal(v, thr, out=met))
                        p = int(v.argmax())
                        if v[p] == -np.inf:
                            return (x, over_rows(np.multiply(u_w, 2.0),
                                                 2.0 * u_b),
                                    active(), True)
                    u_p = 0.0
                    if p in work:
                        # a working row that rounding has let slip is added
                        # anew, keeping its multiplier
                        i = work.index(p)
                        del work[i]
                        u_p = u_w.pop(i)
                        rows[i:len(work)] = rows[i + 1:len(work) + 1]
                a_p = A[p]
                v_p = float(a_p @ x) - b.item(p)
                if work:
                    Aw = rows[:len(work)]
                    Af = np.multiply(Aw, free_f, out=masked[:len(work)])
                    r_w = _gram_solve(Af @ Aw.T, Af @ a_p)
                    np.subtract(a_p, np.matmul(Aw.T, r_w, out=s), out=s)
                else:
                    r_w = np.zeros(0)
                    s[:] = a_p
                r = r_w.tolist()
                # s is z on the free coordinates and r on the fixed ones:
                # s - s is +0.0 and s - 0.0 is s, sign of 0 included
                np.copyto(r_b, s)
                np.copyto(r_b, 0.0, where=free)
                np.subtract(s, r_b, out=z)
                ratio_w = [u / q if q > _DUAL_STEP_EPS else np.inf
                           for u, q in zip(u_w, r)]
                # most steps lower no fixed coordinate's multiplier and skip
                # the bound ratios; a partial step reads them only when
                # t1_b, finite, sets its length
                t1_b = np.inf
                if not np.maximum.reduce(r_b) <= _DUAL_STEP_EPS:
                    ratio_b.fill(np.inf)
                    np.divide(u_b, r_b, out=ratio_b,
                              where=np.greater(r_b, _DUAL_STEP_EPS, out=mask))
                    t1_b = float(np.minimum.reduce(ratio_b))
                t1 = min(min(ratio_w, default=np.inf), t1_b)
                # z is a difference of terms as large as r, and as inexact;
                # with as many working cuts as free coordinates it is 0
                zz = float(z @ z)
                # |r|'s sum as numpy takes it: fewer than 8 terms left to
                # right
                size = (sum(map(abs, r)) if len(r) < 8
                        else float(np.abs(r_w).sum()))
                moves = (len(work) < n_free and
                         zz > (_ZERO_STEP * (1.0 + size)) ** 2)
                if not moves and t1 == np.inf:
                    weights = over_rows(-r_w, -r_b)
                    weights[p] += 1.0 / norms[p] if p < k else 1.0
                    return None, weights, active(), True
                t2 = max(v_p, 0.0) / zz if moves else np.inf
                t = min(t1, t2)
                if moves:
                    x -= np.multiply(z, t, out=tmp)
                u_w = [u - t * q for u, q in zip(u_w, r)]
                u_b -= np.multiply(r_b, t, out=tmp)
                u_p += t
                if t2 <= t1:
                    if p < k:
                        rows[len(work)] = a_p
                        work.append(p)
                        u_w.append(u_p)
                    else:
                        free[p - k] = False
                        free_f[p - k] = 0.0
                        n_free -= 1
                        x[p - k] = 0.0
                        u_b[p - k] = u_p
                    p = -1
                    continue
                if t1 in ratio_w:
                    kept = [i for i, ratio in enumerate(ratio_w)
                            if ratio != t1]
                    work = [work[i] for i in kept]
                    u_w = [u_w[i] for i in kept]
                    rows[:len(kept)] = rows[kept]
                if t1_b == t1:
                    gone = np.equal(ratio_b, t1, out=mask)
                    free |= gone
                    np.copyto(free_f, 1.0, where=gone)
                    n_free = int(np.count_nonzero(free))
                    np.copyto(u_b, 0.0, where=gone)
        except LinAlgError:
            # in practice the Gram solve: rounding has made the working cuts
            # dependent over the free coordinates.  No weights, so no
            # verdict
            return None, np.zeros(k + m), active(), False
    # the step cap: the iterate is no projection, and it may have run off
    return None, np.zeros(k + m), active(), False


def solve_master(lam_hat: np.ndarray, pool: CutPool,
                 f_lev: float) -> MasterResult:
    """One projection master solve: project ``lam_hat`` onto the level set
    ``{lam <= 0 : every cut of the pool <= f_lev}`` by the dual active-set
    method of :func:`_project_dual`, with the pool's unit rows as rows and
    the bounds ``lam <= 0`` as coordinates fixed at 0; ``active`` numbers
    the rows of its final working set over ``[cuts; bounds]``.  The
    projection comes back clipped to ``lam <= 0``, where the dual function
    is a valid bound at any point: it may exceed 0 within the tolerance.

    The projection's emptiness verdict is ``MASTER_INFEASIBLE`` only with a
    Farkas certificate that passes :func:`_verify_farkas`: weights
    ``y >= 0`` over the cuts, summing to 1, with ``sum y_k g_k <= 0`` up to
    rounding and ``sum y_k o_k > f_lev``.  Since ``lam <= 0``, every cut
    aggregated by ``y`` stays at or above ``sum y_k o_k``, which ``bound``
    returns as a lower bound on the dual function.  Every emptiness verdict
    of the projection goes through that check; one whose certificate fails
    is ``MASTER_UNVERIFIED`` and bounds nothing.  So is a projection that
    stops short with no weights, at a singular Gram matrix or at the step
    cap (``exact`` False): its last iterate is no point of the level set.
    """
    if not len(pool):
        raise ValueError("cut pool is empty")
    rhs = f_lev - pool.offsets
    x, mu, work, exact = _project_dual(lam_hat, pool, rhs)
    if x is None:
        y = _verify_farkas(mu[:len(pool)], pool.gradients, rhs,
                           pool.max_abs)
        if y is None:
            return MasterResult(MASTER_UNVERIFIED, None, exact=exact)
        return MasterResult(MASTER_INFEASIBLE, None,
                            bound=float(y @ pool.offsets))
    return MasterResult(MASTER_FEASIBLE, np.minimum(x, 0.0),
                        tuple(sorted(work)))


def _verify_farkas(u: np.ndarray, G: np.ndarray, b: np.ndarray,
                   max_abs: float) -> Optional[np.ndarray]:
    """Return ``u``, clipped at 0 and scaled to sum to 1, if it certifies
    that ``{lam <= 0 : G lam <= b}`` is empty, else None; ``max_abs`` is
    the largest ``|entry|`` of ``G``.

    The check reads the scaled vector only, so it gives the same verdict at
    any scale of ``u``: ``u.b < 0``, and every component of ``u.G`` at most
    ``_FARKAS_RTOL * max_abs``, which admits the rounding of the sum and
    nothing a wrong verdict leaves.  In ``mu = -lam >= 0`` it is the
    certificate of ``-G mu <= b``, with the sign folded into the comparison:
    negation is exact, so the verdict is the same bit for bit.  The bound
    that the master reads from ``u`` is not exact, though: where the cut
    model's minimum sits at a far ``lam``, the admitted slack times that
    ``lam`` can lift the bound above it."""
    u = np.maximum(u, 0.0)
    total = float(u.sum())
    if not (np.isfinite(total) and total > 0.0):
        return None
    u = u / total
    if u @ b < 0.0 and np.all(G.T @ u <= _FARKAS_RTOL * max_abs):
        return u
    return None


# ---------------------------------------------------------------------------
# dual function evaluation


def evaluate_dual_function(table: ArcIndexTable, lam: Sequence[float],
                           case: str, ratio_mode: str = RATIO_SLOPE
                           ) -> RelaxValue:
    """Exact dual-function value at ``lam``: the best path over the idle
    candidates.  One labeling call answers every candidate: a table fill in
    case I, the screened search of ``labeling_case2`` in case II.  The
    candidates are compared by value.  In case I no route is chosen, traced
    or timed here: the fill's values alone give the result, and the
    maximizing candidate's route (:attr:`RelaxValue.best`) and the value's
    ``routes`` are built when :func:`_candidate_cuts` turns them all into
    cuts.  So it is in case II where the table's slowest-route certificate
    shows that the deadline cannot bind.  Elsewhere the case-II screen
    times every candidate's deadline-free route before it has a value, so
    there the routes precede the result.

    ``ratio_mode`` steers the case-II search only, which always prunes by
    dominance."""
    coeffs = build_coeffs(table, lam, case)
    if case == CASE_I:
        routes = solve_case1(coeffs)
    else:
        routes = solve_case2(coeffs, ratio_mode)
    return assemble_f_value(coeffs, routes)


def _candidate_cuts(value: RelaxValue, table: ArcIndexTable
                    ) -> Tuple[np.ndarray, np.ndarray, float]:
    """The cut of every idle candidate's route, as gradients and offsets
    from one :func:`make_cut` pass: the maximizing candidate's first, then
    the others in idle-set order; candidates without a route add none.  A
    route with its timing fixed is affine in ``lam`` and lies at or below
    the dual function everywhere, tight at the evaluated multipliers for
    its own candidate.

    Also returns the largest offset among the cuts of primal-feasible
    routes, or ``-inf`` when there is none.  A route is feasible when its
    gradient ``required - coverage`` is ``<= 0`` in every component (a
    float difference has the sign of the exact one, so the test is exact on
    the computed coverage) and it fits the deadline: its recorded travel
    time, :attr:`PathTiming.total`, is at most the deadline, one test in
    either case (every case-II route passes it, see ``solve_case2``)."""
    routes, top = value.routes, value.vbar
    timings = [value.best] + [
        routes.timing(vbar) for vbar, found in routes.values.items()
        if found is not None and vbar != top]
    gradients, offsets = make_cut(timings, table)
    T = table.instance.deadline
    primal = -np.inf
    # each gradient's largest entry (-inf with no targets): one reduce
    # where a per-row test would cost several numpy calls per evaluation
    worst = np.maximum.reduce(gradients, axis=1, initial=-np.inf).tolist()
    for k, peak in enumerate(worst):
        if peak <= 0.0 and timings[k].total <= T:
            primal = max(primal, offsets.item(k))
    return gradients, offsets, primal


def _route_solution(table: ArcIndexTable, nodes: Tuple[int, ...],
                    times: Sequence[float], vbar: int, idle: float,
                    cov: np.ndarray) -> PathSolution:
    """A timed route with its per-target coverage ``cov``; ``vbar`` 0 means
    no idle stop."""
    return PathSolution(
        nodes=nodes,
        times=tuple(map(float, times)),
        idle_node=vbar if vbar else None,
        idle_time=idle,
        objective=float(table.priorities @ cov),
        per_target_coverage=tuple(zip(table.target_ids, map(float, cov))),
    )


def timing_to_solution(timing: PathTiming,
                       table: ArcIndexTable) -> PathSolution:
    """Materialize a relaxation witness as a route: with an idle stop the
    whole deadline remainder is spent there."""
    idle = _idle_time(timing, table)
    (cov,) = table.route_coverage(
        [(timing.arcs, timing.times, timing.vbar, idle)])
    return _route_solution(table, timing.nodes, timing.times, timing.vbar,
                           idle, cov)


# not called here: kept only for bench/tracing.py's repair span
def _greedy_primal_repair(table: ArcIndexTable, witness: PathTiming
                          ) -> Tuple[float, Optional[PathSolution]]:
    """Best feasible route obtainable by re-timing the witness path (all
    fast, as witnessed, all slow if that fits the deadline) and idling the
    deadline remainder at one of its waypoints, or at none.

    Every (timing, idle stop) pair is covered at once: one coverage call
    over all of them, and one coverage mask.  Each feasible pair is scored
    by its objective; the first strict maximum wins, in the order fast,
    witnessed, slow, then no idle stop, then the waypoints in path order,
    and only its route is built."""
    nodes = witness.nodes
    ids = list(witness.arcs)
    T = table.instance.deadline
    slow = table.max_time[ids]
    timings = [table.min_time[ids], np.asarray(witness.times, dtype=float)]
    if float(slow.sum()) <= T:
        timings.append(slow)
    totals = np.array([t.sum() for t in timings])
    idle = T - totals
    stops = [0] + [v for v in nodes if 0 < v <= table.n]

    # coverage per (timing, idle stop, target)
    cov = table.route_coverage(
        [(ids, t, s, w) for t, w in zip(timings, idle) for s in stops]
    ).reshape(len(timings), len(stops), len(table.target_ids))
    ok = np.all(cov >= table.required - VALIDATE_TOL, axis=2)
    ok[totals > T + VALIDATE_TOL] = False

    best = None
    for j, s in zip(*np.nonzero(ok)):
        objective = float(table.priorities @ cov[j, s])
        if best is None or objective > best[0]:
            best = objective, j, s
    if best is None:
        return LB_FLOOR, None
    objective, j, s = best
    vbar = stops[s]
    return objective, _route_solution(table, nodes, timings[j], vbar,
                                      float(idle[j]) if vbar else 0.0,
                                      cov[j, s])


# ---------------------------------------------------------------------------
# main loop


@dataclass
class DualResult:
    status: str
    dual_bound: float
    lower_bound: float
    initial_bound: float
    best_lam: np.ndarray
    iterations: int
    trace: Tuple[TraceRow, ...]
    solution: PathSolution


def run_dual(instance: Instance, case: str, phi: float = 0.5,
             tol: float = 1e-4, *, iter_limit: int = 1000,
             time_limit: Optional[float] = None,
             ratio_mode: str = RATIO_SLOPE,
             table: Optional[ArcIndexTable] = None) -> DualResult:
    """Minimize the dual bound over multipliers ``<= 0``.

    Stops when ``UB - LB <= tol * max(1, |UB|)``, when ``UB < 0`` (no route
    meets the requirements, see the module docstring), or when a limit is
    hit; the returned ``dual_bound`` (the best evaluated value) is always a
    valid bound on the primal optimum, and ``lower_bound`` moves only on a
    checked certificate (:func:`solve_master`) or on a feasible cut
    (:func:`_candidate_cuts`).  The trace keeps one row per iteration plus
    an initialization row.  A row's ``wall_time`` is read when its master
    verdict or its evaluation returns, before :func:`_candidate_cuts` builds
    an evaluation's cuts (and, in case I and in a case II whose deadline
    the slowest-route certificate rules out, chooses and traces its
    routes), and its ``lb`` includes their lift.  Each level is the ``phi``
    point between the floor and ``UB``.  The floor is ``LB``, except after
    a ``MASTER_UNVERIFIED`` row, where the refuted level takes its place:
    such a row evaluates no point and moves no bound, whether its
    certificate failed or the projection stopped short at the step cap.
    With ``h = 0.5 * tol * max(1, |UB|)``, half the stopping gap, a row is
    exact when its dual value is at most its level plus ``h``.  After an
    exact row the level is ``min(phi point, floor + h)``, for up to
    :data:`LEVEL_JUMPS` rows: the next jump is taken only when a
    certificate refuted the last one (from the lifted ``LB``), and the
    ``phi`` point returns after the last jump, after an unverified row and
    after an evaluation that is not exact.  ``ratio_mode`` applies to case
    II only; the case-II search always prunes by dominance.
    ``time_limit`` (seconds, ``inf`` allowed) must be positive and
    ``iter_limit`` at least 1.  A given ``table`` must be the instance's
    index table.
    """
    if not (0.0 < phi < 1.0):
        raise ValueError(f"phi must sit strictly inside (0, 1), got {phi}")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if iter_limit < 1:
        raise ValueError(f"iteration limit must be at least 1, got {iter_limit}")
    if time_limit is not None and not time_limit > 0:  # NaN fails too
        raise ValueError(f"time limit must be positive, got {time_limit}")
    table = table or build_index_table(instance)
    if table.instance != instance:
        raise ValueError("the index table was built for another instance")
    t0 = time.monotonic()

    lam0 = np.zeros(len(table.target_ids))
    value0 = evaluate_dual_function(table, lam0, case, ratio_mode)
    wall = time.monotonic() - t0
    gradients, offsets, primal = _candidate_cuts(value0, table)
    pool = CutPool(gradients, offsets)
    lam_hat = lam0
    ub = value0.value
    lb = min(ub, max(LB_FLOOR, primal))
    if not len(lam0):
        lb = ub  # no targets, no multipliers: row 0 is the dual optimum
    best_lam, best_value = lam0.copy(), value0
    trace = [TraceRow(0, value0.value, lb, ub, None, "initial", wall)]

    def converged() -> bool:
        return ub < 0.0 or ub - lb <= tol * max(1.0, abs(ub))

    status = ITERATION_LIMIT
    iterations = 0
    floor = lb  # the level's lower end: LB, or a refuted level left unproved
    jumps = 0  # jumped levels left, LEVEL_JUMPS after an exact row
    while iterations < iter_limit:
        if converged():
            status = CONVERGED
            break
        if time_limit is not None and time.monotonic() - t0 > time_limit:
            status = TIME_LIMIT
            break
        iterations += 1
        half = 0.5 * tol * max(1.0, abs(ub))  # half the stopping gap
        f_lev = phi * floor + (1.0 - phi) * ub
        if jumps:
            f_lev = min(f_lev, floor + half)
        master = solve_master(lam_hat, pool, f_lev)
        verdict = master.status
        if verdict == MASTER_INFEASIBLE and not master.bound <= ub:
            # a certificate that an evaluated value contradicts
            verdict = MASTER_UNVERIFIED
        if verdict == MASTER_INFEASIBLE:
            lb = max(f_lev, master.bound)
        if verdict != MASTER_FEASIBLE:
            jumps = jumps - 1 if verdict == MASTER_INFEASIBLE and jumps else 0
            floor = f_lev if verdict == MASTER_UNVERIFIED else lb
            trace.append(TraceRow(iterations, None, lb, ub, f_lev, verdict,
                                  time.monotonic() - t0))
            continue
        lam_hat = master.lam
        value = evaluate_dual_function(table, master.lam, case, ratio_mode)
        wall = time.monotonic() - t0
        if value.value < ub:
            ub = value.value
            best_lam = master.lam.copy()
            best_value = value
        # exact: the value is within half the stopping gap of the level
        # that the cut model met at this point
        jumps = LEVEL_JUMPS if value.value <= f_lev + half else 0
        gradients, offsets, primal = _candidate_cuts(value, table)
        pool.add(gradients, offsets)
        # a feasible cut lifts LB, capped at UB; LB never falls
        lb = floor = max(lb, min(ub, primal))
        trace.append(TraceRow(iterations, value.value, lb, ub, f_lev,
                              MASTER_FEASIBLE, wall))
    if converged():
        status = CONVERGED

    return DualResult(
        status=status,
        dual_bound=ub,
        lower_bound=lb,
        initial_bound=value0.value,
        best_lam=best_lam,
        iterations=iterations,
        trace=tuple(trace),
        solution=timing_to_solution(best_value.best, table),
    )
