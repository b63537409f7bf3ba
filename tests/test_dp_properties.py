"""Property tests: the value writer's bytes against csv.writer on random float
tables, a deterministic policy's kernel average against the one-hot
kernel's, and the stepper against the scalar RK4 and Euler step, bit for
bit."""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ctmdp.dp import TimeGrid, ValueGrid, _plays, _stepper
from ctmdp.model import MarkovPolicy
from oracles import _step, csv_writer_value_table, random_instance

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

# every float64, with the signed zeros, subnormals and extremes drawn often
FLOATS = st.one_of(st.floats(width=64),
                   st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0 / 3.0]))


@hypothesis.settings(max_examples=200, deadline=None, database=None, derandomize=True)
@hypothesis.given(data=st.data(), n_steps=st.integers(1, 6), n_states=st.integers(1, 4),
                  horizon=st.sampled_from([1.0, 0.7, 3.0, 1e-3]))
def test_value_writer_matches_csv_writer(data, n_steps, n_states, horizon):
    grid = TimeGrid(horizon, n_steps)
    table = data.draw(hnp.arrays(np.float64, (grid.n_nodes, n_states), elements=FLOATS))
    values = ValueGrid(grid, table)
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "value.csv", Path(tmp) / "value_ref.csv"
        values.write_csv(ours)
        csv_writer_value_table(values, ref)
        assert ours.read_bytes() == ref.read_bytes()


# the per-pair entries a kernel average meets: signed zeros above all, since
# a one-hot sum of zeros is -0.0 only if every term is
PER_PAIR = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -1.5, 2.0, 1e308, -1e308])


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_deterministic_average_has_the_one_hot_bits(seed, data):
    rng = np.random.default_rng(seed)
    model = random_instance(rng, max_states=5, max_actions=4)
    counts = np.diff(model.action_offsets)
    policy = MarkovPolicy.deterministic(np.stack([rng.integers(0, counts) for _ in range(4)]))
    per_pair = np.array(data.draw(st.lists(PER_PAIR, min_size=model.n_pairs,
                                           max_size=model.n_pairs)))
    kernel = policy.kernel(model)[:-1]
    one_hot = np.add.reduceat(kernel * per_pair, model.action_offsets[:-1], axis=1)
    assert _plays(model, policy).average(per_pair).tobytes() == one_hot.tobytes()


# the entries a step meets at the edges of float64: signed zeros, subnormals,
# infinities and NaN, and +-1e308, whose k + k overflows
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan,
                         1e308, -1e308, 1.0, -2.5, 1.0 / 3.0])


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(data=st.data(), n=st.integers(1, 4), integrator=st.sampled_from(["rk4", "euler"]),
                  dt=st.sampled_from([0.1, 1.0 / 3.0, 1e-3, 0.7]), given_k1=st.booleans(),
                  in_place=st.booleans())
def test_stepper_has_the_bits_of_the_scalar_step(data, n, integrator, dt, given_k1, in_place):
    def entries(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(EDGES, FLOATS)))

    y, c, M = entries(n), entries(n), entries((n, n))

    def f(v):  # linear, c + M v: every stage's bits follow from its argument's
        return c + M @ v

    with np.errstate(all="ignore"):
        k1 = f(y) if given_k1 else None
        want = _step(f, y, dt, integrator, None if k1 is None else k1.copy())
        start, kept = y.copy(), None if k1 is None else k1.copy()
        out = y if in_place else np.empty(n)
        _stepper(n, dt, integrator)(f, y, out, k1)
    assert np.array_equal(out, want, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(want))
    if not in_place:
        assert y.tobytes() == start.tobytes()
    if k1 is not None:
        assert k1.tobytes() == kept.tobytes()
