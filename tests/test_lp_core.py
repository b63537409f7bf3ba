import numpy as np
import pytest

from ctmdp.lp_core import _REFACTOR_EVERY, LpProblem, solve_lp
from oracles import class_simplex_solve_lp, lp_vertex_optimum


class TestBasics:
    def test_pinned_variable(self):
        sol = solve_lp(LpProblem(c=[1.0], A_eq=[[1.0]], b_eq=[1.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.objective == pytest.approx(1.0, abs=1e-12)

    def test_simplex_edge(self):
        sol = solve_lp(LpProblem(c=[-1.0, -1.0], A_ub=[[1.0, 1.0]], b_ub=[1.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-1.0, abs=1e-12)
        assert sol.x[0] == pytest.approx(1.0) and sol.x[1] == pytest.approx(0.0)

    def test_infeasible_is_a_status_not_an_error(self):
        sol = solve_lp(LpProblem(c=[1.0], A_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]))
        assert sol.status == "infeasible"
        assert sol.x is None and sol.objective is None

    def test_unbounded_is_a_status(self):
        sol = solve_lp(LpProblem(c=[-1.0], A_ub=[[-1.0]], b_ub=[0.0]))
        assert sol.status == "unbounded"

    def test_pivot_cap_reports(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(0, 1, size=(6, 12))
        sol = solve_lp(LpProblem(c=-np.ones(12), A_ub=A, b_ub=np.ones(6)),
                       pivot_cap=1)
        assert sol.status == "pivot_limit"

    def test_pivot_cap_counts_the_pivots_made(self):
        # a solve that needs exactly pivot_cap pivots finishes
        rng = np.random.default_rng(11)
        for _ in range(5):
            problem = random_bounded_lp(rng)
            free = solve_lp(problem)
            n = free.n_pivots
            assert free.status == "optimal" and n >= 1
            exact = solve_lp(problem, pivot_cap=n)
            assert exact.status == "optimal" and exact.n_pivots == n
            assert np.array_equal(exact.x, free.x)
            short = solve_lp(problem, pivot_cap=n - 1)
            assert short.status == "pivot_limit" and short.n_pivots == n - 1

    def test_empty_constraint_blocks(self):
        assert solve_lp(LpProblem(c=[1.0, 2.0])).objective == 0.0
        assert solve_lp(LpProblem(c=[-1.0])).status == "unbounded"
        # a cost above -ENTER_TOL * scale does not enter, with or without rows
        assert solve_lp(LpProblem(c=[-1e-12])).status == "optimal"

    @pytest.mark.parametrize("blocks, message", [
        ({"A_eq": [[1.0, 1.0]], "b_eq": [1.0, 2.0]}, r"eq block shape mismatch: A \(1, 2\)"),
        ({"A_ub": [[1.0, 1.0, 1.0]], "b_ub": [1.0]}, r"ub block shape mismatch: A \(1, 3\)"),
        ({"A_eq": [1.0, 1.0], "b_eq": [1.0]}, r"eq block shape mismatch: A \(2,\)"),
    ], ids=["eq-rows", "ub-columns", "eq-1-d"])
    def test_block_shape_mismatch_rejected(self, blocks, message):
        with pytest.raises(ValueError, match=message):
            LpProblem(c=[1.0, 2.0], **blocks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("block", ["c", "A_eq", "b_eq", "A_ub", "b_ub"])
    def test_non_finite_data_rejected(self, block, bad):
        # NaN in c or A_eq used to come back "optimal" with a NaN objective
        # or residual, and NaN in b_eq ended in an argmax over no candidates
        data = {"c": [1.0, 2.0], "A_eq": [[1.0, 1.0]], "b_eq": [1.0],
                "A_ub": [[1.0, 0.0]], "b_ub": [0.5]}
        data[block] = np.array(data[block])
        data[block].flat[-1] = bad
        with pytest.raises(ValueError, match=f"LP data {block} holds a NaN or infinite entry"):
            LpProblem(**data)

    def test_beale_cycling_instance_terminates(self):
        # classic degenerate instance that cycles without an anti-cycling rule
        c = [-0.75, 150.0, -0.02, 6.0]
        A_ub = [[0.25, -60.0, -0.04, 9.0],
                [0.5, -90.0, -0.02, 3.0],
                [0.0, 0.0, 1.0, 0.0]]
        sol = solve_lp(LpProblem(c=c, A_ub=A_ub, b_ub=[0.0, 0.0, 1.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)

    def test_redundant_rows_are_dropped(self):
        # second row duplicates the first: Phase 1 has to delete it
        sol = solve_lp(LpProblem(c=[1.0, 1.0],
                                 A_eq=[[1.0, 1.0], [2.0, 2.0]],
                                 b_eq=[1.0, 2.0]))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-10)
        assert sol.y is not None and sol.y.size == 2


def random_bounded_lp(rng):
    """Random LP with a bounding box so the optimum is finite."""
    n = int(rng.integers(2, 6))
    m_eq = int(rng.integers(0, 3))
    m_ub = int(rng.integers(1, 4))
    x_feas = rng.uniform(0.2, 1.0, size=n)
    A_eq = rng.uniform(-1, 1, size=(m_eq, n))
    b_eq = A_eq @ x_feas
    A_ub = np.vstack([rng.uniform(-1, 1, size=(m_ub, n)), np.ones((1, n))])
    b_ub = np.concatenate([A_ub[:-1] @ x_feas + rng.uniform(0.05, 1.0, size=m_ub),
                           [float(x_feas.sum() + rng.uniform(0.5, 2.0))]])
    c = rng.uniform(-1, 1, size=n)
    return LpProblem(c=c, A_eq=A_eq if m_eq else None, b_eq=b_eq if m_eq else None,
                     A_ub=A_ub, b_ub=b_ub)


class TestAgainstVertexOracle:
    def test_thirty_random_instances(self):
        rng = np.random.default_rng(2024)
        solved = 0
        while solved < 30:
            problem = random_bounded_lp(rng)
            status, obj, _ = lp_vertex_optimum(
                problem.c,
                problem.A_eq if problem.b_eq.size else None,
                problem.b_eq if problem.b_eq.size else None,
                problem.A_ub, problem.b_ub)
            sol = solve_lp(problem)
            assert sol.status == status == "optimal"
            assert sol.objective == pytest.approx(obj, abs=1e-7)
            solved += 1

    def test_infeasible_detection_matches_oracle(self):
        # x1 + x2 = -1 with x >= 0 is infeasible
        status, _, _ = lp_vertex_optimum([1.0, 1.0], [[1.0, 1.0]], [-1.0])
        sol = solve_lp(LpProblem(c=[1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0]))
        assert status == sol.status == "infeasible"


class TestOptimalityCertificates:
    def test_invariants_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            sol = solve_lp(random_bounded_lp(rng))
            assert sol.status == "optimal"
            assert sol.primal_residual <= 1e-7
            assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective))
            assert sol.complementarity <= 1e-7
            assert np.all(sol.x >= -1e-9)

    def test_ub_duals_are_nonpositive(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            problem = random_bounded_lp(rng)
            sol = solve_lp(problem)
            n_eq = problem.b_eq.size
            assert np.all(sol.y[n_eq:] <= 1e-9)

    def test_certificates_after_refactorizations(self):
        # enough pivots that the basis inverse is refactorized more than once
        rng = np.random.default_rng(3)
        n, m_eq, m_ub = 250, 100, 40
        x_feas = rng.uniform(0.0, 1.0, size=n)
        A_eq = rng.uniform(-1, 1, size=(m_eq, n))
        A_ub = rng.uniform(0, 1, size=(m_ub, n))
        problem = LpProblem(c=rng.uniform(-1, 1, size=n), A_eq=A_eq, b_eq=A_eq @ x_feas,
                            A_ub=A_ub, b_ub=A_ub @ x_feas + 1.0)
        sol = solve_lp(problem)
        assert sol.status == "optimal"
        assert sol.n_pivots > 2 * _REFACTOR_EVERY
        assert sol.primal_residual <= 1e-7
        assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.objective))
        assert sol.complementarity <= 1e-7


def assert_same_solution(sol, ref):
    """Every field equal: arrays by array_equal, scalars by ==."""
    assert (sol.status, sol.n_pivots) == (ref.status, ref.n_pivots)
    for name in ("x", "y"):
        a, b = getattr(sol, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and np.array_equal(a, b), name
    for name in ("objective", "primal_residual", "duality_gap", "complementarity"):
        assert getattr(sol, name) == getattr(ref, name), name


def scaled_rows(problem, rng):
    """The same LP with every row multiplied by a factor in [3, 50]."""
    s_eq = rng.uniform(3, 50, size=problem.b_eq.size)
    s_ub = rng.uniform(3, 50, size=problem.b_ub.size)
    return LpProblem(c=problem.c, A_eq=problem.A_eq * s_eq[:, None], b_eq=problem.b_eq * s_eq,
                     A_ub=problem.A_ub * s_ub[:, None], b_ub=problem.b_ub * s_ub)


class TestAgainstClassSimplex:
    """solve_lp gives the engine-object simplex's answers bit for bit; the
    two differ only at a pivot cap equal to the pivots a solve needs."""

    def test_random_instances_plain_and_row_scaled(self):
        rng = np.random.default_rng(9)
        for k in range(60):
            problem = random_bounded_lp(rng)
            if k % 2:
                problem = scaled_rows(problem, rng)
            if k % 3 == 0 and problem.b_eq.size:  # a redundant equality row
                problem = LpProblem(c=problem.c, A_eq=np.vstack([problem.A_eq, 2.0 * problem.A_eq[:1]]),
                                    b_eq=np.append(problem.b_eq, 2.0 * problem.b_eq[0]),
                                    A_ub=problem.A_ub, b_ub=problem.b_ub)
            assert_same_solution(solve_lp(problem), class_simplex_solve_lp(problem))

    @pytest.mark.parametrize("problem", [
        LpProblem(c=[1.0, 1.0], A_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0]),
        LpProblem(c=[1.0, -1.0], A_eq=[[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]],
                  b_eq=[1.0, 2.0, 0.5], A_ub=[[0.0, 1.0]], b_ub=[3.0]),
        LpProblem(c=[1.0, 2.0]),
        LpProblem(c=[-1.0]),
        LpProblem(c=[]),
        LpProblem(c=[1.0], A_eq=[[1.0], [1.0]], b_eq=[1.0, 2.0]),
        LpProblem(c=[-1.0], A_ub=[[-1.0]], b_ub=[0.0]),
        LpProblem(c=[-0.75, 150.0, -0.02, 6.0],
                  A_ub=[[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
                  b_ub=[0.0, 0.0, 1.0]),
    ], ids=["redundant-row", "redundant-row-with-ub", "no-rows", "no-rows-unbounded",
            "no-variables", "infeasible", "unbounded", "beale-cycling"])
    def test_redundant_rows_empty_blocks_and_statuses(self, problem):
        assert_same_solution(solve_lp(problem), class_simplex_solve_lp(problem))

    def test_degenerate_instances_engage_bland(self):
        # 80 cuts through the origin: long runs of degenerate pivots there
        rng = np.random.default_rng(0)
        for _ in range(2):
            n, m0 = 30, 80
            problem = LpProblem(c=rng.uniform(-1, 1, size=n),
                                A_ub=np.vstack([rng.uniform(-1, 1, size=(m0, n)), np.ones((1, n))]),
                                b_ub=np.concatenate([np.zeros(m0), [1.0]]))
            assert_same_solution(solve_lp(problem), class_simplex_solve_lp(problem))

    def test_cap_hit_mid_phase(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 20:
            problem = scaled_rows(random_bounded_lp(rng), rng)
            n = solve_lp(problem).n_pivots
            if n < 2:
                continue
            cap = int(rng.integers(0, n))  # below the pivots the solve needs
            sol = solve_lp(problem, pivot_cap=cap)
            assert sol.status == "pivot_limit" and sol.n_pivots == cap
            assert_same_solution(sol, class_simplex_solve_lp(problem, pivot_cap=cap))
            checked += 1
