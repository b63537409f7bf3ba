"""Self-contained dense linear programming.

Solves min c.x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0 with a
two-phase primal simplex on the slack-extended standard form. The working
representation is a dense maintained basis inverse; pricing is Dantzig
(most negative reduced cost) with Bland's least-index rule engaged as the
anti-cycling safeguard after a run of degenerate pivots, which bounds the
method away from cycling. Rows are scaled to unit max-abs coefficient
before Phase 1. Infeasible and unbounded problems are reported through the
status field, never as exceptions; a pivot cap turns non-termination into
an explicit "pivot_limit" status.

Intended for desk-scale dense instances; there is no sparsity machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7      # feasibility / phase-1 acceptance threshold
PIVOT_TOL = 1e-9     # smallest usable pivot element
ENTER_TOL = 1e-9     # reduced cost must undercut -ENTER_TOL*scale to enter
DEFAULT_PIVOT_CAP = 1_000_000
_BLAND_AFTER = 40    # consecutive degenerate pivots before Bland engages
_REFACTOR_EVERY = 256


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Dense LP data; empty blocks may be passed as None. Every entry must be
    finite: a NaN or infinity is refused with a ValueError naming its block."""

    c: np.ndarray
    A_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    A_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).reshape(-1)
        n = c.size
        ae, be = _block(self.A_eq, self.b_eq, n, "eq")
        au, bu = _block(self.A_ub, self.b_ub, n, "ub")
        for name, arr in (("c", c), ("A_eq", ae), ("b_eq", be),
                          ("A_ub", au), ("b_ub", bu)):
            if not np.isfinite(arr).all():
                raise ValueError(f"LP data {name} holds a NaN or infinite entry")
            object.__setattr__(self, name, arr)

    @property
    def n_vars(self) -> int:
        return self.c.size


def _block(A, b, n, label):
    if A is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    if A.ndim != 2 or A.shape != (b.size, n):
        raise ValueError(f"{label} block shape mismatch: A {A.shape}, b {b.shape}, n={n}")
    return A, b


@dataclass(frozen=True, eq=False)
class LpSolution:
    """Solver outcome. x, y, objective are None unless status is optimal.

    y holds one multiplier per constraint row, equality rows first;
    inequality-row multipliers are nonpositive. On optimal exits the primal
    residual and the primal-dual objective gap are both checked below 1e-7
    scale by the caller-facing invariants.
    """

    status: str
    x: np.ndarray | None
    y: np.ndarray | None
    objective: float | None
    n_pivots: int
    primal_residual: float | None = None
    duality_gap: float | None = None
    complementarity: float | None = None


def _pivot(Binv, d, r):
    """Update the basis inverse in place: the column with B^-1 a = d enters at row r."""
    piv_row = Binv[r] / d[r]
    Binv -= np.outer(d, piv_row)
    Binv[r] = piv_row


def _simplex(A, b, c, basis, Binv, pivots, cap):
    """Minimize c over {x >= 0 : A x = b} from a feasible basis with inverse Binv.

    pivots counts the pivots made before this call; no pivot beyond cap is
    made. Returns (status, basis, Binv, x_B, pivots) with status in
    {"optimal", "unbounded", "pivot_limit"}.
    """
    x_B = np.maximum(Binv @ b, 0.0)
    scale_c = 1.0 + float(np.max(np.abs(c), initial=0.0))
    degenerate_run = 0
    bland = False

    while True:
        y = c[basis] @ Binv
        reduced = c - y @ A
        reduced[basis] = 0.0
        candidates = np.flatnonzero(reduced < -ENTER_TOL * scale_c)
        if candidates.size == 0:
            return "optimal", basis, Binv, x_B, pivots
        if bland:
            j = int(candidates[0])
        else:
            j = int(candidates[np.argmin(reduced[candidates])])

        d = Binv @ A[:, j]
        pos = d > PIVOT_TOL
        if not np.any(pos):
            return "unbounded", basis, Binv, x_B, pivots
        ratios = np.full(d.size, np.inf)
        ratios[pos] = x_B[pos] / d[pos]
        theta = float(ratios.min())
        near = np.flatnonzero(ratios <= theta + PIVOT_TOL * (1.0 + abs(theta)))
        if bland:
            r = int(near[np.argmin(basis[near])])
        else:
            r = int(near[np.argmax(np.abs(d[near]))])

        if pivots >= cap:
            return "pivot_limit", basis, Binv, x_B, pivots
        # pivot: j enters, basis[r] leaves
        x_B -= theta * d
        np.maximum(x_B, 0.0, out=x_B)
        x_B[r] = theta
        basis[r] = j
        _pivot(Binv, d, r)
        pivots += 1

        degenerate_run = degenerate_run + 1 if theta <= PIVOT_TOL else 0
        bland = degenerate_run >= _BLAND_AFTER
        if pivots % _REFACTOR_EVERY == 0:
            Binv = np.linalg.inv(A[:, basis])
            x_B = np.maximum(Binv @ b, 0.0)


def solve_lp(problem: LpProblem, pivot_cap: int = DEFAULT_PIVOT_CAP) -> LpSolution:
    """Solve a dense LP; see the module docstring for method and guarantees."""
    n = problem.n_vars
    m_eq = problem.b_eq.size
    m_ub = problem.b_ub.size
    m = m_eq + m_ub
    n_std = n + m_ub

    A = np.zeros((m, n_std))
    A[:m_eq, :n] = problem.A_eq
    A[m_eq:, :n] = problem.A_ub
    A[m_eq:, n:] = np.eye(m_ub)
    b = np.concatenate([problem.b_eq, problem.b_ub])

    # row equilibration, then flip signs so b >= 0
    scale = np.max(np.abs(A), axis=1, initial=0.0)
    scale[scale <= 0.0] = 1.0
    A /= scale[:, None]
    b = b / scale
    flip = np.where(b < 0.0, -1.0, 1.0)
    A *= flip[:, None]
    b *= flip

    # Phase 1: artificial identity basis, minimize total infeasibility
    A_art = np.concatenate([A, np.eye(m)], axis=1)
    c1 = np.concatenate([np.zeros(n_std), np.ones(m)])
    basis = np.arange(n_std, n_std + m, dtype=np.int64)
    status, basis, Binv, x_B, pivots = _simplex(A_art, b, c1, basis, np.eye(m), 0, pivot_cap)
    if status == "pivot_limit":
        return LpSolution(status, None, None, None, pivots)
    infeas = float(x_B[basis >= n_std].sum())
    if infeas > FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
        return LpSolution("infeasible", None, None, None, pivots)

    # pivot out any zero-level artificials; drop rows that turn out redundant
    keep = np.ones(m, dtype=bool)
    for r in np.flatnonzero(basis >= n_std):
        pool = np.flatnonzero(np.abs(Binv[r] @ A) > FEAS_TOL)
        pool = pool[~np.isin(pool, basis)]
        if pool.size:
            basis[r] = pool[0]
            _pivot(Binv, Binv @ A_art[:, pool[0]], r)
        else:
            keep[r] = False
    if not keep.all():
        A, b, basis = A[keep], b[keep], basis[keep]
        Binv = np.linalg.inv(A[:, basis])

    c_std = np.concatenate([problem.c, np.zeros(m_ub)])
    status, basis, Binv, x_B, pivots = _simplex(A, b, c_std, basis, Binv, pivots, pivot_cap)
    if status != "optimal":
        return LpSolution(status, None, None, None, pivots)

    x_std = np.zeros(n_std)
    x_std[basis] = np.maximum(x_B, 0.0)
    x = x_std[:n]
    # redundant rows carry zero multipliers
    y = np.zeros(m)
    y[keep] = (c_std[basis] @ Binv) * flip[keep] / scale[keep]
    y_eq, y_ub = y[:m_eq], y[m_eq:]
    objective = float(problem.c @ x)

    res_eq = float(np.max(np.abs(problem.A_eq @ x - problem.b_eq), initial=0.0))
    res_ub = float(np.max(problem.A_ub @ x - problem.b_ub, initial=0.0))
    primal_residual = max(res_eq, res_ub, float(np.max(-x, initial=0.0)))
    duality_gap = abs(objective - float(problem.b_eq @ y_eq + problem.b_ub @ y_ub))
    red = problem.c - problem.A_eq.T @ y_eq - problem.A_ub.T @ y_ub
    slack_ub = problem.b_ub - problem.A_ub @ x
    comp = max(float(np.max(np.abs(red * x), initial=0.0)),
               float(np.max(np.abs(slack_ub * y_ub), initial=0.0)))
    return LpSolution("optimal", x, y, objective, pivots, primal_residual, duality_gap, comp)
