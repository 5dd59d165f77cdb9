"""The vectorised stratified sampler and the stacked optimizer step give the
bytes of their plain forms: ``reference.batches``, and the per-array update
rules written out below."""

import warnings

import numpy as np
import reference
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adascale import data
from adascale.data import Dataset, StratifiedSampler
from adascale.model import ModelSpec, init_params
from adascale.trainer import SGD, Adam, _OptimizerState

ORACLE = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def _warned(call, *args):
    """The call's result and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call(*args)
    return result, [str(w.message) for w in caught]


@ORACLE
@given(
    n=st.integers(1, 300),
    batch_size=st.integers(1, 80),
    quota=st.integers(1, 6),
    positive_rate=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=50, batch_size=80, quota=2, positive_rate=0.5, seed=1)  # no full batch
@example(n=240, batch_size=80, quota=3, positive_rate=0.5, seed=2)  # no tail
@example(n=300, batch_size=7, quota=6, positive_rate=0.02, seed=3)  # quota infeasible, with a tail
@example(n=1, batch_size=1, quota=6, positive_rate=1.0, seed=4)
def test_stratified_batches(n, batch_size, quota, positive_rate, seed):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < positive_rate, rng.integers(1, 4, size=n), 0)
    ds = Dataset(np.zeros((n, 1)), labels, k=4)
    sampler = StratifiedSampler(quota)
    got, got_warnings = _warned(data.batches, ds, sampler, batch_size, seed)
    expected, warned = _warned(reference.batches, ds, sampler, batch_size, seed)
    assert got_warnings == warned
    assert [b.tobytes() for b in got] == [b.tobytes() for b in expected]
    assert [b.dtype for b in got] == [b.dtype for b in expected]


# gradient entries beside standard normals: zeros of both signs, the smallest
# subnormals, tiny normals and values whose square overflows
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1e200)
SPECS = (ModelSpec(3, 2), ModelSpec(4, 3, 6, "tanh"))
OPTIMIZERS = st.one_of(
    st.builds(
        Adam,
        lr=st.sampled_from([1e-3, 0.05, 1.0, 3e-7]),
        b1=st.sampled_from([0.0, -0.0, 0.5, 0.9, 0.999]),
        b2=st.sampled_from([0.0, 0.9, 0.999, 0.9999]),
        eps=st.sampled_from([1e-8, 1e-300, 0.5]),
    ),
    st.builds(SGD, lr=st.sampled_from([0.1, 1.0, 1e-5]), momentum=st.sampled_from([0.0, 0.5, 0.9, 0.999])),
)


def _per_array_step(opt, arrays, grads, state):
    """One update of every array by the per-array rule of the trainer's reference loop."""
    if isinstance(opt, SGD):
        velocity = state.setdefault("velocity", [np.zeros_like(a) for a in arrays])
        for i, (a, g) in enumerate(zip(arrays, grads)):
            velocity[i] = opt.momentum * velocity[i] + g
            a -= opt.lr * velocity[i]
        return
    m = state.setdefault("m", [np.zeros_like(a) for a in arrays])
    v = state.setdefault("v", [np.zeros_like(a) for a in arrays])
    state["t"] = t = state.get("t", 0) + 1
    bc1 = 1.0 - opt.b1**t
    bc2 = 1.0 - opt.b2**t
    for i, (a, g) in enumerate(zip(arrays, grads)):
        m[i] = opt.b1 * m[i] + (1.0 - opt.b1) * g
        v[i] = opt.b2 * v[i] + (1.0 - opt.b2) * (g * g)
        a -= opt.lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + opt.eps)


@ORACLE
@given(
    spec=st.sampled_from(SPECS),
    optimizer=OPTIMIZERS,
    seed=st.integers(0, 2**32 - 1),
    special_share=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
)
def test_optimizer_steps(spec, optimizer, seed, special_share):
    rng = np.random.default_rng(seed)
    params = init_params(spec, 0)
    arrays = [a.copy() for a in params.weights + params.biases]
    opt_state = _OptimizerState(optimizer, params)
    views = opt_state.grads.weights + opt_state.grads.biases
    per_array = {}
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for _ in range(50):
            grads = []
            for a in arrays:
                g = rng.standard_normal(a.shape) * rng.choice([1e-3, 1.0, 1e3])
                planted = rng.random(a.shape) < special_share
                g[planted] = rng.choice(SPECIAL, size=int(planted.sum()))
                grads.append(g)
            # as the backward pass does, through the views of the state's flat gradient
            for view, g in zip(views, grads):
                view[...] = g
            opt_state.step()
            _per_array_step(optimizer, arrays, grads, per_array)
            got = params.weights + params.biases
            assert [a.tobytes() for a in got] == [a.tobytes() for a in arrays]
