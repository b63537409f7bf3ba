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


@dataclass(frozen=True)
class LpProblem:
    """Dense LP data; empty blocks may be passed as None."""

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


@dataclass(frozen=True)
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


class _Simplex:
    """Revised simplex with a dense maintained inverse on fixed (A, b)."""

    def __init__(self, A, b, pivot_cap):
        self.A = A
        self.b = b
        self.m = A.shape[0]
        self.pivots = 0
        self.cap = pivot_cap

    def run(self, c, basis, Binv):
        """Minimize c over the current polyhedron from a feasible basis.

        Returns (status, basis, Binv, x_B) with status in
        {"optimal", "unbounded", "pivot_limit"}.
        """
        A, b, m = self.A, self.b, self.m
        x_B = Binv @ b
        np.maximum(x_B, 0.0, out=x_B)
        scale_c = 1.0 + float(np.max(np.abs(c))) if c.size else 1.0
        degenerate_run = 0
        bland = False

        while True:
            if self.pivots >= self.cap:
                return "pivot_limit", basis, Binv, x_B
            y = c[basis] @ Binv
            reduced = c - y @ A
            reduced[basis] = 0.0
            candidates = np.flatnonzero(reduced < -ENTER_TOL * scale_c)
            if candidates.size == 0:
                return "optimal", basis, Binv, x_B
            if bland:
                j = int(candidates[0])
            else:
                j = int(candidates[np.argmin(reduced[candidates])])

            d = Binv @ A[:, j]
            pos = d > PIVOT_TOL
            if not np.any(pos):
                return "unbounded", basis, Binv, x_B
            ratios = np.full(m, np.inf)
            ratios[pos] = x_B[pos] / d[pos]
            theta = float(ratios.min())
            near = np.flatnonzero(ratios <= theta + PIVOT_TOL * (1.0 + abs(theta)))
            if bland:
                r = int(near[np.argmin(basis[near])])
            else:
                r = int(near[np.argmax(np.abs(d[near]))])

            # pivot: j enters, basis[r] leaves
            x_B -= theta * d
            np.maximum(x_B, 0.0, out=x_B)
            x_B[r] = theta
            basis[r] = j
            piv_row = Binv[r] / d[r]
            Binv -= np.outer(d, piv_row)
            Binv[r] = piv_row
            self.pivots += 1

            if theta <= PIVOT_TOL:
                degenerate_run += 1
                if degenerate_run >= _BLAND_AFTER:
                    bland = True
            else:
                degenerate_run = 0
                bland = False

            if self.pivots % _REFACTOR_EVERY == 0:
                Binv = np.linalg.inv(A[:, basis])
                x_B = Binv @ b
                np.maximum(x_B, 0.0, out=x_B)
        # unreachable


def solve_lp(problem: LpProblem, pivot_cap: int = DEFAULT_PIVOT_CAP) -> LpSolution:
    """Solve a dense LP; see the module docstring for method and guarantees."""
    n = problem.n_vars
    m_eq = problem.b_eq.size
    m_ub = problem.b_ub.size
    m = m_eq + m_ub
    n_std = n + m_ub

    if m == 0:
        if np.all(problem.c >= 0):
            x = np.zeros(n)
            return LpSolution("optimal", x, np.zeros(0), 0.0, 0, 0.0, 0.0, 0.0)
        return LpSolution("unbounded", None, None, None, 0)

    A = np.zeros((m, n_std))
    A[:m_eq, :n] = problem.A_eq
    A[m_eq:, :n] = problem.A_ub
    if m_ub:
        A[m_eq:, n:] = np.eye(m_ub)
    b = np.concatenate([problem.b_eq, problem.b_ub])

    # row equilibration, then flip signs so b >= 0
    scale = np.max(np.abs(A), axis=1)
    scale[scale <= 0.0] = 1.0
    A /= scale[:, None]
    b = b / scale
    flip = np.where(b < 0.0, -1.0, 1.0)
    A *= flip[:, None]
    b *= flip

    c_std = np.concatenate([problem.c, np.zeros(m_ub)])
    engine = _Simplex(A, b, pivot_cap)

    # Phase 1: artificial identity basis, minimize total infeasibility
    A_art = np.concatenate([A, np.eye(m)], axis=1)
    c1 = np.concatenate([np.zeros(n_std), np.ones(m)])
    basis = np.arange(n_std, n_std + m, dtype=np.int64)
    engine.A = A_art
    status, basis, Binv, x_B = engine.run(c1, basis, np.eye(m))
    if status == "pivot_limit":
        return LpSolution("pivot_limit", None, None, None, engine.pivots)
    infeas = float(x_B[basis >= n_std].sum()) if np.any(basis >= n_std) else 0.0
    if infeas > FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
        return LpSolution("infeasible", None, None, None, engine.pivots)

    # pivot out any zero-level artificials; drop rows that turn out redundant
    drop_rows: list[int] = []
    for r in np.flatnonzero(basis >= n_std):
        u = Binv[r] @ A
        pool = np.flatnonzero(np.abs(u) > FEAS_TOL)
        pool = pool[~np.isin(pool, basis)]
        if pool.size:
            j = int(pool[0])
            d = Binv @ A_art[:, j]
            piv_row = Binv[r] / d[r]
            Binv -= np.outer(d, piv_row)
            Binv[r] = piv_row
            basis[r] = j
        else:
            drop_rows.append(int(r))
    if drop_rows:
        keep = np.setdiff1d(np.arange(m), drop_rows)
        A = A[keep]
        b = b[keep]
        scale = scale[keep]
        flip = flip[keep]
        basis = basis[keep]
        m = keep.size
        Binv = np.linalg.inv(A[:, basis])
    engine.A = A
    engine.b = b
    engine.m = m

    status, basis, Binv, x_B = engine.run(c_std, basis, Binv)
    if status in ("pivot_limit", "unbounded"):
        return LpSolution(status, None, None, None, engine.pivots)

    x_std = np.zeros(n_std)
    x_std[basis] = np.maximum(x_B, 0.0)
    x = x_std[:n]
    y_scaled = c_std[basis] @ Binv
    y_rows = y_scaled * flip / scale
    # rows may have been dropped as redundant; report duals on surviving rows
    objective = float(problem.c @ x)

    res_eq = float(np.max(np.abs(problem.A_eq @ x - problem.b_eq), initial=0.0)) if m_eq else 0.0
    res_ub = float(np.max(problem.A_ub @ x - problem.b_ub, initial=0.0)) if m_ub else 0.0
    primal_residual = max(res_eq, max(res_ub, 0.0), float(np.max(-x, initial=0.0)))

    if y_rows.size == m_eq + m_ub:
        y_full = y_rows
    else:  # redundant equality rows dropped: they carry zero multipliers
        y_full = np.zeros(m_eq + m_ub)
        kept = np.setdiff1d(np.arange(m_eq + m_ub), drop_rows)
        y_full[kept] = y_rows
    dual_obj = float(problem.b_eq @ y_full[:m_eq] + problem.b_ub @ y_full[m_eq:])
    duality_gap = abs(objective - dual_obj)

    red = problem.c - problem.A_eq.T @ y_full[:m_eq] - \
        (problem.A_ub.T @ y_full[m_eq:] if m_ub else 0.0)
    comp = float(np.max(np.abs(red * x), initial=0.0))
    if m_ub:
        slack_ub = problem.b_ub - problem.A_ub @ x
        comp = max(comp, float(np.max(np.abs(slack_ub * y_full[m_eq:]), initial=0.0)))

    return LpSolution("optimal", x, y_full, objective, engine.pivots,
                      primal_residual, duality_gap, comp)
