"""Finite CTMDP instances: tables, validation, drift certificates, presets.

A model is a finite truncation of a countable-state controlled jump process:
states 0..n_states-1, a finite action set per state, conservative transition
rate rows q(.|i,a), one objective cost table c_0 and N constraint cost tables
c_1..c_N with bounds d_1..d_N, a horizon T, an initial distribution, and a
Lyapunov-type weight function w >= 1 used by all growth checks.

State-action pairs are stored flat: pair index ka runs over states in order,
with ``action_offsets[i]:action_offsets[i+1]`` the slice of state i's actions.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

RATE_TOL = 1e-9    # |row sum| cap for a conservative rate row
PROB_TOL = 1e-12   # normalization cap for distributions / policy kernels
CERT_TOL = 1e-9    # drift slack above which an inequality counts as violated
AUTO_RHO = 1.0     # growth rate of every inequality auto_certificate fits

# Drift/growth inequalities a certificate speaks for, keyed by what they bound.
CERT_KEYS = ("w_drift", "w2_drift", "w3_drift", "rate_growth", "cost_growth")


class ModelFormatError(ValueError):
    """Model tables, a model file or an index into them cannot be interpreted."""


@dataclass(frozen=True)
class Violation:
    """One failed model invariant, addressed by (state, action, target)."""

    code: str
    state: int | None
    action: int | None
    target: int | None
    residual: float
    message: str


@dataclass(frozen=True, eq=False)
class CtmdpModel:
    """Immutable CTMDP instance. All arrays are read-only after construction.

    Fields
    ------
    action_offsets : (n_states+1,) int, flat layout of state-action pairs
    action_points  : (n_pairs, action_dim) float, the action vectors
    rate_rows      : (n_pairs, n_states) float, q(j|i,a) rows in 1/time
    costs          : (n_costs, n_pairs) float, c_0 first then constraint costs
    constraint_bounds : (n_costs-1,) float, the d_n
    horizon        : T > 0
    initial_dist   : (n_states,) float, sums to 1
    weight         : (n_states,) float, w >= 1
    truncation_level : m with states = {i : w(i) <= m}; None for ad-hoc models
    """

    n_states: int
    action_offsets: np.ndarray
    action_points: np.ndarray
    rate_rows: np.ndarray
    costs: np.ndarray
    constraint_bounds: np.ndarray
    horizon: float
    initial_dist: np.ndarray
    weight: np.ndarray
    truncation_level: float | None = None

    # derived, filled in __post_init__
    pair_state: np.ndarray = field(init=False, repr=False)
    exit_rate: np.ndarray = field(init=False, repr=False)
    q_star: np.ndarray = field(init=False, repr=False)
    pad_index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        offsets = np.asarray(self.action_offsets, dtype=np.int64)
        points = np.atleast_2d(np.asarray(self.action_points, dtype=float))
        rates = np.ascontiguousarray(self.rate_rows, dtype=float)
        costs = np.atleast_2d(np.asarray(self.costs, dtype=float))
        bounds = np.asarray(self.constraint_bounds, dtype=float).reshape(-1)
        gamma = np.asarray(self.initial_dist, dtype=float)
        w = np.asarray(self.weight, dtype=float)

        n = self.n_states
        if offsets.shape != (n + 1,) or offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise ModelFormatError("action_offsets must be a nondecreasing (n_states+1,) array starting at 0")
        n_pairs = int(offsets[-1])
        if points.shape[0] != n_pairs:
            raise ModelFormatError(f"action_points has {points.shape[0]} rows, expected {n_pairs}")
        if rates.shape != (n_pairs, n):
            raise ModelFormatError(f"rate_rows shape {rates.shape}, expected {(n_pairs, n)}")
        if costs.shape[1] != n_pairs:
            raise ModelFormatError(f"costs shape {costs.shape}, expected (*, {n_pairs})")
        if bounds.shape != (costs.shape[0] - 1,):
            raise ModelFormatError(
                f"{bounds.size} constraint bounds for {costs.shape[0]} cost tables")
        if not np.all(np.isfinite(bounds)):
            raise ModelFormatError(f"constraint_bounds must be finite, got {bounds.tolist()}")
        if gamma.shape != (n,) or w.shape != (n,):
            raise ModelFormatError("initial_dist and weight must have one entry per state")
        if not 0 < self.horizon < np.inf:
            raise ModelFormatError(f"horizon must be finite and positive, got {self.horizon}")
        if self.truncation_level is not None and not 0 < self.truncation_level < np.inf:
            raise ModelFormatError(
                f"truncation_level must be finite and positive, got {self.truncation_level}")

        counts = np.diff(offsets)
        pair_state = np.repeat(np.arange(n, dtype=np.int64), counts)
        exit_rate = np.abs(rates[np.arange(n_pairs), pair_state])
        q_star = np.zeros(n)
        with np.errstate(invalid="ignore"):  # a NaN rate is validate_model's to report
            np.maximum.at(q_star, pair_state, exit_rate)

        # padded (state, local action) -> flat pair map; padding slots hold n_pairs
        local = np.arange(int(counts.max()) if n_pairs else 1)
        pad_index = np.where(local < counts[:, None], offsets[:-1, None] + local, n_pairs)

        for name, arr in (
            ("action_offsets", offsets), ("action_points", points),
            ("rate_rows", rates), ("costs", costs),
            ("constraint_bounds", bounds), ("initial_dist", gamma),
            ("weight", w), ("pair_state", pair_state), ("exit_rate", exit_rate),
            ("q_star", q_star), ("pad_index", pad_index),
        ):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- introspection ------------------------------------------------------

    @property
    def n_pairs(self) -> int:
        return int(self.action_offsets[-1])

    @property
    def n_constraints(self) -> int:
        return self.costs.shape[0] - 1

    @property
    def max_q_star(self) -> float:
        return float(self.q_star.max()) if self.n_states else 0.0

    def n_actions(self, i: int) -> int:
        return int(self.action_offsets[i + 1] - self.action_offsets[i])

    def pair_slice(self, i: int) -> slice:
        return slice(int(self.action_offsets[i]), int(self.action_offsets[i + 1]))

    def actions(self, i: int) -> np.ndarray:
        return self.action_points[self.pair_slice(i)]

    def pair_index(self, i: int, a: int) -> int:
        if not 0 <= a < self.n_actions(i):
            raise IndexError(f"state {i} has {self.n_actions(i)} actions, asked for {a}")
        return int(self.action_offsets[i]) + a

    def rate(self, i: int, a: int, j: int) -> float:
        return float(self.rate_rows[self.pair_index(i, a), j])

    def cost(self, n: int, i: int, a: int) -> float:
        return float(self.costs[n, self.pair_index(i, a)])

    def gamma_weight(self) -> float:
        """Initial-distribution average of the weight function."""
        return float(self.initial_dist @ self.weight)

    @classmethod
    def from_tables(cls, actions_per_state, rates, costs, horizon,
                    initial_dist=None, weight=None, constraint_bounds=(),
                    truncation_level=None) -> "CtmdpModel":
        """Build a model from nested per-state tables.

        ``actions_per_state[i]`` lists action vectors (scalars are promoted),
        ``rates[i][a]`` is the full row q(.|i, action a), ``costs[n][i][a]``
        the cost tables. Defaults: point mass at state 0, unit weights.
        """
        n = len(actions_per_state)
        offsets = np.zeros(n + 1, dtype=np.int64)
        pts: list[list[float]] = []
        dim = 1
        for i, acts in enumerate(actions_per_state):
            if len(acts) == 0:
                raise ModelFormatError(f"state {i} has an empty action set")
            offsets[i + 1] = offsets[i] + len(acts)
            for a in acts:
                vec = [float(a)] if np.isscalar(a) else [float(x) for x in a]
                dim = max(dim, len(vec))
                pts.append(vec)
        points = np.zeros((len(pts), dim))
        for k, vec in enumerate(pts):
            points[k, :len(vec)] = vec
        if len(rates) != n:
            missing = f"; state {len(rates)} has no rate rows" if len(rates) < n else ""
            raise ModelFormatError(f"rates has {len(rates)} entries for {n} states{missing}")
        rate_rows = np.vstack([_rate_rows_of(rates[i], i, len(actions_per_state[i]), n)
                               for i in range(n)])
        counts = np.diff(offsets).tolist()
        cost_arr = np.vstack([_cost_table_of(table, c, counts) for c, table in enumerate(costs)])
        return cls(n_states=n, action_offsets=offsets, action_points=points,
                   rate_rows=rate_rows, costs=cost_arr,
                   constraint_bounds=np.asarray(constraint_bounds, dtype=float),
                   horizon=float(horizon),
                   initial_dist=_point_mass(n) if initial_dist is None else initial_dist,
                   weight=np.ones(n) if weight is None else weight,
                   truncation_level=truncation_level)


def _point_mass(n: int, state: int = 0) -> np.ndarray:
    """The initial distribution all of whose mass sits at one state."""
    gamma = np.zeros(n)
    gamma[state] = 1.0
    return gamma


def _integer(value) -> int | None:
    """value as an int if it is an integer (operator.index) other than a bool, else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _checked_index(value, size: int, name: str, kind: str = "state") -> int:
    """value, an integer, as an index into size states (or cost tables), else
    an error naming it."""
    index = _integer(value)
    if index is None or not 0 <= index < size:
        raise ModelFormatError(f"{name} {value} is not a {kind} index in 0..{size - 1}")
    return index


def _rate_rows_of(rows, i: int, n_actions: int, n: int) -> np.ndarray:
    """State i's rate rows as an (n_actions, n) array, or a ModelFormatError."""
    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"rates for state {i} are not a numeric table: {exc}") from exc
    if arr.size != n_actions * n:
        raise ModelFormatError(f"rates for state {i} have shape {arr.shape}, expected "
                               f"{n_actions} row(s) of {n} rates, one per action")
    return arr.reshape(n_actions, n)


def _cost_table_of(table, c: int, counts: list[int]) -> np.ndarray:
    """costs[c] as one entry per pair, read per state, or a ModelFormatError."""
    if len(table) != len(counts):
        raise ModelFormatError(f"costs[{c}] has {len(table)} entries for {len(counts)} states")
    rows = [np.asarray(ci, dtype=float).reshape(-1) for ci in table]
    for i, (row, n_actions) in enumerate(zip(rows, counts)):
        if row.size != n_actions:
            raise ModelFormatError(f"costs[{c}] for state {i} has {row.size} entries, "
                                   f"expected {n_actions}, one per action")
    return np.concatenate(rows)


def validate_model(model: CtmdpModel) -> list[Violation]:
    """Check every model invariant; the returned list is empty iff all hold.

    Violations are data, not exceptions: each names the offending
    (state, action, target) triple and the numerical residual.
    """
    out: list[Violation] = []
    n = model.n_states
    offsets = model.action_offsets

    for i in range(n):
        if model.n_actions(i) == 0:
            out.append(Violation("empty_actions", i, None, None, 0.0,
                                 f"state {i} has no admissible actions"))

    if not np.all(np.isfinite(model.rate_rows)):
        ka, j = np.argwhere(~np.isfinite(model.rate_rows))[0]
        i = int(model.pair_state[ka])
        out.append(Violation("nonfinite_rate", i, int(ka - offsets[i]), int(j),
                             float("nan"), f"non-finite rate q({j}|{i},a)"))
        return out
    for n, ka in np.argwhere(~np.isfinite(model.costs)):
        i = int(model.pair_state[ka])
        a = int(ka - offsets[i])
        out.append(Violation("nonfinite_cost", i, a, None, float("nan"),
                             f"non-finite cost c_{n}({i},{a})"))
    for i in np.flatnonzero(~np.isfinite(model.weight)):
        out.append(Violation("nonfinite_weight", int(i), None, None, float("nan"),
                             f"non-finite weight[{i}]"))

    row_sums = model.rate_rows.sum(axis=1)
    for ka in np.flatnonzero(np.abs(row_sums) > RATE_TOL):
        i = int(model.pair_state[ka])
        a = int(ka - offsets[i])
        out.append(Violation("row_sum", i, a, None, float(row_sums[ka]),
                             f"rate row ({i},{a}) sums to {row_sums[ka]:.3e}, not 0"))

    off_diag = model.rate_rows.copy()
    off_diag[np.arange(model.n_pairs), model.pair_state] = 0.0
    for ka, j in np.argwhere(off_diag < -RATE_TOL):
        i = int(model.pair_state[ka])
        a = int(ka - offsets[i])
        out.append(Violation("negative_rate", i, a, int(j), float(off_diag[ka, j]),
                             f"q({j}|{i},{a}) = {off_diag[ka, j]:.3e} < 0"))

    gamma_sum = float(model.initial_dist.sum())
    if not abs(gamma_sum - 1.0) <= PROB_TOL:  # a NaN sum fails too
        out.append(Violation("initial_dist", None, None, None, gamma_sum - 1.0,
                             f"initial distribution sums to {gamma_sum!r}"))
    for i in np.flatnonzero(model.initial_dist < -PROB_TOL):
        out.append(Violation("initial_dist", int(i), None, None,
                             float(model.initial_dist[i]),
                             f"initial_dist[{i}] negative"))

    for i in np.flatnonzero(model.weight < 1.0 - PROB_TOL):
        out.append(Violation("weight", int(i), None, None, float(model.weight[i] - 1.0),
                             f"weight[{i}] = {model.weight[i]!r} < 1"))
    return out


@dataclass(frozen=True)
class DriftCertificate:
    """Candidate constants for the drift/growth inequalities, plus verdicts.

    ``worst_violation[key]`` is the signed slack max(lhs - rhs) over all
    state-action pairs; ``satisfied[key]`` holds iff that slack <= CERT_TOL.
    ``worst_site[key]`` locates the maximizing (state, local action).
    """

    rho1: float
    b1: float
    rho2: float = 0.0
    b2: float = 0.0
    rho3: float = 0.0
    b3: float = 0.0
    L: float = 0.0
    M: float = 0.0
    satisfied: dict = field(default_factory=dict)
    worst_violation: dict = field(default_factory=dict)
    worst_site: dict = field(default_factory=dict)

    @property
    def all_satisfied(self) -> bool:
        return bool(self.satisfied) and all(self.satisfied[k] for k in CERT_KEYS)

    def violated_keys(self) -> list[str]:
        return [k for k in CERT_KEYS if not self.satisfied.get(k, False)]

    def weight_bound(self, w, t: float):
        """Certified bound e^{rho1 t} w + (b1/rho1)(e^{rho1 t} - 1) on the mean
        weight at time t from a start of weight w (a number or a per-state
        array); at rho1 = 0 it is the limit w + b1 t."""
        if self.rho1 == 0.0:
            return w + self.b1 * t
        try:
            grow = math.exp(self.rho1 * t)
        except OverflowError:  # the bound is infinite, so it holds trivially
            return w * math.inf
        return grow * w + (self.b1 / self.rho1) * (grow - 1.0)


@np.errstate(over="ignore", invalid="ignore")  # inf or NaN slacks fail the check
def certify_drift(model: CtmdpModel, candidate: DriftCertificate) -> DriftCertificate:
    """Exhaustively check the candidate constants on the finite tables.

    Pure function of the truncated model: returns a new certificate with the
    satisfied flags, worst signed slacks, and maximizing sites filled in.
    """
    w = model.weight
    ws = w[model.pair_state]
    satisfied: dict[str, bool] = {}
    worst: dict[str, float] = {}
    site: dict[str, tuple[int, int]] = {}

    def record(key, slack_per_pair):
        ka = int(np.argmax(slack_per_pair))
        i = int(model.pair_state[ka])
        a = ka - int(model.action_offsets[i])
        worst[key] = float(slack_per_pair[ka])
        site[key] = (i, a)
        satisfied[key] = worst[key] <= CERT_TOL

    record("w_drift", model.rate_rows @ w - (candidate.rho1 * ws + candidate.b1))
    record("w2_drift", model.rate_rows @ (w ** 2) - (candidate.rho2 * ws ** 2 + candidate.b2))
    record("w3_drift", model.rate_rows @ (w ** 3) - (candidate.rho3 * ws ** 3 + candidate.b3))

    record("rate_growth", model.exit_rate - candidate.L * ws)
    record("cost_growth", np.max(np.abs(model.costs), axis=0) - candidate.M * ws)

    return replace(candidate, satisfied=satisfied, worst_violation=worst, worst_site=site)


def auto_certificate(model: CtmdpModel) -> DriftCertificate:
    """Smallest-offset certificate with all growth rates fixed at AUTO_RHO.

    A finite conservative model whose drift sums stay finite admits such
    constants; useful when no hand-derived ones exist. A first certify_drift
    at offsets 0 finds the worst slack of each drift sum against AUTO_RHO*w^p;
    the offsets b are those slacks clipped at 0, and a second certify_drift
    checks them. Where a sum overflows, its offset is inf or its slack NaN.
    """
    L = float(max(AUTO_RHO, np.max(model.exit_rate / model.weight[model.pair_state])))
    probe = certify_drift(model, DriftCertificate(
        rho1=AUTO_RHO, b1=0.0, rho2=AUTO_RHO, rho3=AUTO_RHO, L=L,
        M=max(1e-300, cost_bound_from_tables(model))))
    slack = probe.worst_violation  # the three drift keys lead CERT_KEYS
    offsets = {f"b{p}": max(0.0, slack[key]) for p, key in enumerate(CERT_KEYS[:3], start=1)}
    return certify_drift(model, replace(probe, **offsets))


# -- Markov policies --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MarkovPolicy:
    """Piecewise-constant-in-time Markov policy on a node grid.

    Node k covers the cell [t_k, t_{k+1}); the row at the last node is only
    used for readouts at exactly t = T. Deterministic policies store a local
    action index per (node, state); randomized ones a kernel over the flat
    state-action pairs, normalized per (node, state).
    """

    kind: str
    action_index: np.ndarray | None = None
    action_probs: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("deterministic", "randomized"):
            raise ModelFormatError(f"unknown policy kind {self.kind!r}")
        deterministic = self.kind == "deterministic"
        raw = self.action_index if deterministic else self.action_probs
        if raw is None:
            raise ModelFormatError("policy table missing for its kind")
        arr = np.ascontiguousarray(raw, dtype=np.int64 if deterministic else float)
        if arr.ndim != 2:
            raise ModelFormatError("policy table must be 2-d (nodes x states/pairs)")
        arr.flags.writeable = False
        object.__setattr__(self, "action_index" if deterministic else "action_probs", arr)

    @property
    def n_nodes(self) -> int:
        table = self.action_index if self.kind == "deterministic" else self.action_probs
        return table.shape[0]

    @classmethod
    def deterministic(cls, action_index) -> "MarkovPolicy":
        return cls(kind="deterministic",
                   action_index=np.asarray(action_index, dtype=np.int64))

    @classmethod
    def randomized(cls, action_probs) -> "MarkovPolicy":
        return cls(kind="randomized", action_probs=np.asarray(action_probs, dtype=float))

    @classmethod
    def constant(cls, model: CtmdpModel, action_by_state, n_nodes: int = 2) -> "MarkovPolicy":
        """Time-independent deterministic policy; scalar applies to all states."""
        idx = np.broadcast_to(np.asarray(action_by_state, dtype=np.int64),
                              (model.n_states,))
        return cls.deterministic(np.tile(idx, (n_nodes, 1)))

    @classmethod
    def uniform(cls, model: CtmdpModel, n_nodes: int = 2) -> "MarkovPolicy":
        """Uniform randomization over each state's action set."""
        counts = np.diff(model.action_offsets)
        probs = np.tile((1.0 / counts)[model.pair_state], (n_nodes, 1))
        return cls.randomized(probs)

    def kernel(self, model: CtmdpModel) -> np.ndarray:
        """Policy as (n_nodes, n_pairs) probabilities over flat pairs; a policy
        that fails validate is refused, naming its first violation."""
        self._refuse_invalid(model)
        if self.kind == "randomized":
            return self.action_probs
        flat = model.action_offsets[:-1][None, :] + self.action_index
        probs = np.zeros((self.n_nodes, model.n_pairs))
        np.put_along_axis(probs, flat, 1.0, axis=1)
        return probs

    def _refuse_invalid(self, model: CtmdpModel) -> None:
        if violations := self.validate(model):
            raise ModelFormatError(f"invalid policy: {violations[0].message}")

    def validate(self, model: CtmdpModel) -> list[Violation]:
        """Breaches of the policy rule: nodes, table width, action range, row sums, signs."""
        deterministic = self.kind == "deterministic"
        table = self.action_index if deterministic else self.action_probs
        width = model.n_states if deterministic else model.n_pairs
        if self.n_nodes < 2:
            return [Violation("policy_nodes", None, None, None, float(self.n_nodes),
                              "policy needs at least 2 time nodes")]
        if table.shape[1] != width:
            return [Violation("policy_shape", None, None, None, 0.0,
                              f"policy table has {table.shape[1]} columns, expected {width}")]
        if deterministic:
            counts = np.diff(model.action_offsets)
            return [Violation("policy_range", int(i), int(table[k, i]), None, 0.0,
                              f"action index {table[k, i]} out of range at node {k}, "
                              f"state {i}, which has {counts[i]} actions")
                    for k, i in np.argwhere((table < 0) | (table >= counts[None, :]))]
        sums = np.add.reduceat(table, model.action_offsets[:-1], axis=1)
        out = [Violation("policy_norm", int(i), None, None, float(sums[k, i] - 1.0),
                         f"kernel row (node {k}, state {i}) sums to {float(sums[k, i])!r}")
               for k, i in np.argwhere(~(np.abs(sums - 1.0) <= PROB_TOL))]  # NaN sums fail too
        for k, ka in np.argwhere(table < -PROB_TOL)[:1]:
            i = int(model.pair_state[ka])
            out.append(Violation("policy_negative", i, None, None, float(table[k, ka]),
                                 f"negative kernel mass {float(table[k, ka])!r} at node {k}, "
                                 f"state {i}"))
        return out


# -- birth-death preset -----------------------------------------------------


def linear_cost(const=0.0, i=0.0, a1=0.0, a2=0.0) -> Callable[[int, float, float], float]:
    """Cost c(i,(x1,x2)) = const + i*state + a1*x1 + a2*x2 as a callable."""
    ci, ca1, ca2, c0 = float(i), float(a1), float(a2), float(const)
    return lambda state, x1, x2: c0 + ci * state + ca1 * x1 + ca2 * x2


@np.errstate(over="ignore", invalid="ignore")  # a huge lam or mu: validate_model reports it
def make_birth_death(lam: float, mu: float, m: int, grid: int,
                     cost_fns: Sequence[Callable[[int, float, float], float]] | None = None,
                     horizon: float = 1.0,
                     initial_dist=None,
                     constraint_bounds: Sequence[float] = ()) -> CtmdpModel:
    """Controlled birth-death system truncated to states 0..m-1.

    Action (a1, a2) modulates the nominal rates: birth lam*i + a1 (lam + a1
    from state 0, where a2 is pinned to 0), death mu*i + a2. Both control
    axes are discretized to ``grid`` uniform points on [-lam, lam] and
    [-mu, mu]. At the truncation boundary i = m-1 the birth flow is folded
    into the diagonal so the row stays conservative. Weight w(i) = i + 1.
    """
    for name, rate in (("lambda", lam), ("mu", mu)):
        if not 0 < rate < math.inf:
            raise ModelFormatError(f"{name} must be finite and positive, got {rate}")
    for name, count in (("m", m), ("grid", grid)):
        if _integer(count) is None:
            raise ModelFormatError(f"{name} must be an integer, got {count!r}")
    if m < 2:
        raise ModelFormatError("need at least two states (m >= 2)")
    if grid < 2:
        raise ModelFormatError("need at least two grid points per action axis")
    if cost_fns is None:
        cost_fns = (lambda i, a1, a2: float(i),)
    if len(constraint_bounds) != len(cost_fns) - 1:
        raise ModelFormatError("one constraint bound per cost table beyond the first")

    a1_pts = np.linspace(-lam, lam, grid)
    a2_pts = np.linspace(-mu, mu, grid)

    # one entry per state-action pair: state 0 has the grid a1 points, every
    # other state the a1-major product grid
    counts = np.full(m, grid * grid)
    counts[0] = grid
    offsets = np.concatenate(([0], np.cumsum(counts)))
    i = np.repeat(np.arange(m), counts)
    a1 = np.concatenate([a1_pts, np.tile(np.repeat(a1_pts, grid), m - 1)])
    a2 = np.concatenate([np.zeros(grid), np.tile(a2_pts, grid * (m - 1))])

    ka = np.arange(i.size)
    birth = lam * np.maximum(i, 1) + a1  # lam + a1 from state 0
    death = mu * i + a2
    up, down = i < m - 1, i > 0
    rates = np.zeros((i.size, m))
    rates[ka[down], i[down] - 1] = death[down]
    rates[ka[up], i[up] + 1] = birth[up]
    # boundary: birth absorbed on the diagonal
    rates[ka, i] = np.where(up, -(birth + death), -death)

    pairs = list(zip(i.tolist(), a1.tolist(), a2.tolist()))
    costs = np.array([[fn(*pair) for pair in pairs] for fn in cost_fns])

    return CtmdpModel(n_states=m, action_offsets=offsets,
                      action_points=np.column_stack([a1, a2]), rate_rows=rates, costs=costs,
                      constraint_bounds=np.asarray(constraint_bounds, dtype=float),
                      horizon=float(horizon),
                      initial_dist=_point_mass(m) if initial_dist is None else initial_dist,
                      weight=np.arange(1, m + 1, dtype=float),
                      truncation_level=float(m))


def birth_death_certificate(lam: float, mu: float, cost_bound: float = 1.0) -> DriftCertificate:
    """Reference drift constants for the birth-death preset with w(i) = i+1."""
    return DriftCertificate(rho1=lam + mu, b1=lam,
                            rho2=7 * lam + 5 * mu, b2=3 * lam + mu,
                            rho3=31 * lam + 13 * mu, b3=7 * lam + mu,
                            L=2 * lam + mu, M=cost_bound)


def cost_bound_from_tables(model: CtmdpModel) -> float:
    """Tightest M with |c_n(i,a)| <= M w(i) on the finite tables."""
    if model.n_pairs == 0:
        return 0.0
    return float(np.max(np.abs(model.costs) / model.weight[model.pair_state]))


# -- model files -------------------------------------------------------------

def _is_number(value) -> bool:
    """A JSON number that converts to a float; true and false are not numbers."""
    return isinstance(value, float) or type(value) is int and abs(value) <= sys.float_info.max


def _is_table(value, depth: int) -> bool:
    """A JSON list whose entries are numbers or, if depth > 1, such tables of
    depth - 1."""
    return isinstance(value, list) and all(
        _is_number(v) or depth > 1 and _is_table(v, depth - 1) for v in value)


# JSON kind of every field of each model-file object, under the name its
# errors give it. A field of kind number must also be finite.
_STR, _INT, _NUM, _LIST, _OBJ = "a string", "an integer", "a number", "a list", "an object"
_TABLE, _ROWS = "a list of numbers", "a list of lists of numbers"
_KINDS = {_STR: lambda v: isinstance(v, str), _INT: lambda v: type(v) is int,
          _NUM: _is_number, _LIST: lambda v: isinstance(v, list),
          _OBJ: lambda v: isinstance(v, dict), _TABLE: lambda v: _is_table(v, 1),
          _ROWS: lambda v: isinstance(v, list) and all(_is_table(row, 2) for row in v)}
_SHARED_FIELDS = {"horizon": _NUM, "constraint_bounds": _TABLE, "initial_dist": _TABLE,
                  "initial_state": _INT, "drift_certificate": _OBJ}
_PRESET_FIELDS = {"preset": _STR, "lambda": _NUM, "mu": _NUM, "m": _INT, "grid": _INT,
                  "costs": _LIST, **_SHARED_FIELDS}
_EXPLICIT_FIELDS = {"states": _INT, "actions_per_state": _ROWS, "rates": _ROWS,
                    "costs": _ROWS, "weight": _TABLE, "truncation_level": _NUM,
                    **_SHARED_FIELDS}
_COST_TERM_FIELDS = dict.fromkeys(("const", "i", "a1", "a2"), _NUM)
_CERT_FIELDS = dict.fromkeys(("rho1", "b1", "rho2", "b2", "rho3", "b3", "L", "M"), _NUM)


def _checked(obj, fields: dict, required, where: str, prefix: str = "") -> dict:
    """obj itself if it is an object with only known fields, every required
    one present and each of its table's kind; else a ModelFormatError naming
    the field as prefix + name."""
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be an object, got {obj!r:.40}")
    unknown = set(obj) - set(fields)
    if unknown:
        raise ModelFormatError(f"unknown field(s) {sorted(unknown)} in {where}")
    for key in required:
        if key not in obj:
            raise ModelFormatError(f"missing required field {prefix + key!r}")
    for key, value in obj.items():
        if not _KINDS[fields[key]](value):
            raise ModelFormatError(f"{prefix}{key} must be {fields[key]}, got {value!r:.40}")
        if fields[key] == _NUM and not abs(value) <= sys.float_info.max:
            raise ModelFormatError(f"{prefix}{key} must be finite, got {value!r:.40}")
    return obj


def _initial_dist_from(doc: dict, n: int):
    if "initial_state" not in doc:
        return doc.get("initial_dist")
    if "initial_dist" in doc:
        raise ModelFormatError("give initial_dist or initial_state, not both")
    return _point_mass(n, _checked_index(doc["initial_state"], n, "initial_state"))


def model_from_dict(doc: dict) -> tuple[CtmdpModel, DriftCertificate | None]:
    """Decode a model document; returns the model and any declared certificate."""
    preset = isinstance(doc, dict) and "preset" in doc
    if preset and doc["preset"] != "birth_death":
        raise ModelFormatError(f"unknown preset {doc['preset']!r}")
    if preset:
        _checked(doc, _PRESET_FIELDS, ("lambda", "mu", "m"), "preset model")
    else:
        _checked(doc, _EXPLICIT_FIELDS, ("states", "actions_per_state", "rates", "costs",
                                         "horizon"), "model document")
    if doc.get("costs") == []:
        raise ModelFormatError("costs must hold at least one cost table")
    cert = None
    if "drift_certificate" in doc:
        block = _checked(doc["drift_certificate"], _CERT_FIELDS, ("rho1", "b1"),
                         "drift_certificate", "drift_certificate.")
        cert = DriftCertificate(**{k: float(v) for k, v in block.items()})

    if preset:
        lam, mu, m = float(doc["lambda"]), float(doc["mu"]), doc["m"]
        model = make_birth_death(
            lam=lam, mu=mu, m=m, grid=doc.get("grid", 3),
            cost_fns=[linear_cost(**_checked(t, _COST_TERM_FIELDS, (), "cost term",
                                             "cost term "))
                      for t in doc.get("costs", [{"i": 1.0}])],
            horizon=float(doc.get("horizon", 1.0)),
            initial_dist=_initial_dist_from(doc, m),
            constraint_bounds=doc.get("constraint_bounds", ()))
        if cert is None:
            cert = birth_death_certificate(lam, mu, cost_bound_from_tables(model))
        return model, cert

    n = doc["states"]
    if len(doc["actions_per_state"]) != n:
        raise ModelFormatError("actions_per_state length must equal states")
    model = CtmdpModel.from_tables(
        actions_per_state=doc["actions_per_state"],
        rates=doc["rates"], costs=doc["costs"],
        horizon=float(doc["horizon"]),
        initial_dist=_initial_dist_from(doc, n),
        weight=doc.get("weight"),
        constraint_bounds=doc.get("constraint_bounds", ()),
        truncation_level=doc.get("truncation_level"))
    return model, cert


def load_model(path) -> tuple[CtmdpModel, DriftCertificate | None]:
    """Load a model JSON file. Unknown fields are rejected, not ignored."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deep
            raise ModelFormatError(f"invalid JSON in {path}: {exc}") from exc
    return model_from_dict(doc)


def model_to_dict(model: CtmdpModel) -> dict:
    """Explicit-table document for a model (round-trips through model_from_dict)."""
    split = model.action_offsets[1:-1]
    doc = {
        "states": model.n_states,
        "actions_per_state": [p.tolist() for p in np.split(model.action_points, split)],
        "rates": [r.tolist() for r in np.split(model.rate_rows, split)],
        "costs": [[c.tolist() for c in np.split(table, split)] for table in model.costs],
        "horizon": model.horizon,
        "constraint_bounds": model.constraint_bounds.tolist(),
        "initial_dist": model.initial_dist.tolist(),
        "weight": model.weight.tolist(),
    }
    if model.truncation_level is not None:
        doc["truncation_level"] = model.truncation_level
    return doc
