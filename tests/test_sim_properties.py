"""Property test: the compacted thinning batch equals the full-width oracle
bit for bit on fuzzed small models, policies, start states and seeds."""

import numpy as np
import pytest

from ctmdp.model import CtmdpModel, MarkovPolicy
from test_sim import assert_batch_matches_dense

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def fuzzed_model(rng: np.random.Generator, sparsity: float) -> CtmdpModel:
    """2-5 states, 1-3 actions; off-diagonal rates are zeroed with probability
    `sparsity`, so absorbing states and zero-rate actions both turn up."""
    n = int(rng.integers(2, 6))
    n_actions = [int(rng.integers(1, 4)) for _ in range(n)]
    rates = []
    for i in range(n):
        rows = rng.uniform(0.0, 6.0, size=(n_actions[i], n))
        rows[rng.random(rows.shape) < sparsity] = 0.0
        rows[:, i] = 0.0
        rows[:, i] = -rows.sum(axis=1)
        rates.append(rows.tolist())
    costs = [[rng.uniform(-1.0, 1.0, size=k).tolist() for k in n_actions]]
    return CtmdpModel.from_tables([[float(a) for a in range(k)] for k in n_actions],
                                  rates, costs, horizon=float(rng.uniform(0.3, 1.5)))


def fuzzed_policy(rng: np.random.Generator, model: CtmdpModel, randomized: bool):
    n_nodes = int(rng.integers(2, 12))
    if not randomized:
        counts = np.diff(model.action_offsets)
        return MarkovPolicy.deterministic(
            np.stack([rng.integers(0, counts) for _ in range(n_nodes)]))
    raw = rng.uniform(0.0, 1.0, size=(n_nodes, model.n_pairs))
    raw[rng.random(raw.shape) < 0.2] = 0.0  # some actions carry no mass
    raw[:, model.action_offsets[:-1]] += 1e-3
    sums = np.add.reduceat(raw, model.action_offsets[:-1], axis=1)
    return MarkovPolicy.randomized(raw / sums[:, model.pair_state])


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(model_seed=st.integers(0, 2**32 - 1),
                  sparsity=st.sampled_from([0.0, 0.3, 0.6, 0.9]),
                  randomized=st.booleans(),
                  i0=st.integers(0, 4),
                  seed=st.integers(0, 2**63 - 1),
                  t_frac=st.one_of(st.floats(0.0, 1.0, exclude_min=True),
                                   st.sampled_from(["just below T", "T"])),
                  quantity=st.sampled_from(["cost 0", "rate into {0}", None]))
def test_batch_matches_the_dense_oracle(model_seed, sparsity, randomized, i0, seed,
                                        t_frac, quantity):
    rng = np.random.default_rng(model_seed)
    model = fuzzed_model(rng, sparsity)
    policy = fuzzed_policy(rng, model, randomized)
    i0 %= model.n_states
    T = model.horizon
    # the integral caps the round's shared cell at the cell of t_check; checks
    # inside the horizon, just below it and at it must all give the dense
    # oracle's cell
    t_check = {"just below T": np.nextafter(T, 0.0), "T": T}.get(t_frac)
    if t_check is None:
        t_check = t_frac * T
    per_pair = {"cost 0": model.costs[0], "rate into {0}": model.rate_rows[:, 0],
                None: None}[quantity]
    assert_batch_matches_dense(model, policy, i0, 200, seed, t_check, per_pair)
