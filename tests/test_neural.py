import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adam_oracle import whole_buffer_adam_step
from kgchains.neural import (
    ADAM_CHUNK,
    AdamState,
    DenseParams,
    adam_step,
    backward,
    clone_params,
    count_params,
    cross_entropy,
    forward,
    init_dense,
    linear_dims,
    losses_and_scores,
    mlp_dims,
    softmax,
)

from param_oracle import param_count


def finite_difference(params, x, label, h=1e-5):
    grads = []
    for li, (w, b) in enumerate(params.layers):
        layer_grads = []
        for arr in (w, b):
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = arr[idx]
                arr[idx] = old + h
                lp, _ = cross_entropy(forward(params, x)[0], label)
                arr[idx] = old - h
                lm, _ = cross_entropy(forward(params, x)[0], label)
                arr[idx] = old
                g[idx] = (lp - lm) / (2 * h)
            layer_grads.append(g)
        grads.append(layer_grads)
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic.layers, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
            mask = (np.abs(a) > 1e-7) | (np.abs(n) > 1e-7)
            if mask.any():
                worst = max(worst, float((np.abs(a - n) / denom)[mask].max()))
    return worst


def test_zero_net_gives_uniform_softmax():
    params = DenseParams(layers=[[np.zeros((2, 4)), np.zeros(2)]])
    logits, _ = forward(params, np.array([1.0, -2.0, 3.0, 0.5]))
    assert logits.tolist() == [0.0, 0.0]
    assert softmax(logits).tolist() == [0.5, 0.5]


def test_identity_linear_layer():
    params = DenseParams(layers=[[np.eye(2), np.zeros(2)]])
    logits, _ = forward(params, np.array([3.0, -2.0]))
    assert logits.tolist() == [3.0, -2.0]


def test_forward_dimension_mismatch():
    params = DenseParams(layers=[[np.zeros((2, 4)), np.zeros(2)]])
    with pytest.raises(ValueError):
        forward(params, np.zeros(3))


def test_cross_entropy_values():
    loss, dlogits = cross_entropy(np.array([0.0, 0.0]), 1)
    assert loss == pytest.approx(math.log(2), abs=1e-12)
    assert dlogits == pytest.approx(np.array([0.5, -0.5]), abs=1e-12)

    loss, _ = cross_entropy(np.array([1000.0, 0.0]), 0)
    assert loss == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(loss)

    loss, _ = cross_entropy(np.array([1.0, -1.0]), 0)
    assert loss == pytest.approx(math.log(1 + math.exp(-2)), abs=1e-12)


def old_softmax(logits):
    """The reduction form softmax replaced, kept as the reference."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def old_cross_entropy(logits, label):
    """The reduction form cross_entropy replaced, kept as the reference."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    label = np.asarray(label)[..., None]
    loss = -np.take_along_axis(log_probs, label, axis=-1)[..., 0]
    dlogits = np.exp(log_probs) - (np.arange(logits.shape[-1]) == label)
    return (float(loss) if logits.ndim == 1 else loss), dlogits


def bits(values, nan_payloads):
    """The float64 bits of ``values``; without ``nan_payloads`` every NaN is the canonical NaN."""
    values = np.array(values, dtype=np.float64)
    if not nan_payloads:
        values[np.isnan(values)] = np.nan
    return values.view(np.uint64)


logit_values = st.one_of(st.floats(), st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300, 0.0, -0.0]))
pair_shapes = st.one_of(
    st.just((2,)),
    st.tuples(st.integers(1, 6), st.just(2)),
    st.tuples(st.integers(1, 4), st.integers(1, 5), st.just(2)),
)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, pair_shapes, elements=logit_values), st.data())
def test_two_column_softmax_and_cross_entropy_match_the_reductions_bit_for_bit(logits, data):
    if logits.ndim == 1:
        label = data.draw(st.integers(0, 1))
    else:
        label = data.draw(arrays(np.int64, logits.shape[:-1], elements=st.integers(0, 1)))
    # A NaN logit may come out as another NaN: for a NaN in the first column numpy's max
    # reduction returns the canonical NaN and np.maximum returns that NaN. Every other bit,
    # the NaNs that inf - inf makes included, is the same.
    payloads = not np.isnan(logits).any()
    with np.errstate(all="ignore"):
        assert np.array_equal(bits(softmax(logits), payloads), bits(old_softmax(logits), payloads))
        (loss, dlogits), (old_loss, old_dlogits) = cross_entropy(logits, label), old_cross_entropy(logits, label)
    assert np.array_equal(bits(loss, payloads), bits(old_loss, payloads))
    assert np.array_equal(bits(dlogits, payloads), bits(old_dlogits, payloads))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.just(2)), elements=logit_values), st.data())
def test_losses_and_scores_are_cross_entropy_and_softmax_bit_for_bit(logits, data):
    labels = data.draw(arrays(np.int64, logits.shape[:1], elements=st.integers(0, 1)))
    with np.errstate(all="ignore"):
        losses, scores = losses_and_scores(logits, labels)
        expected_losses, expected_scores = cross_entropy(logits, labels)[0], softmax(logits)[:, 1]
    assert np.array_equal(bits(losses, True), bits(expected_losses, True))
    assert np.array_equal(bits(scores, True), bits(expected_scores, True))


@pytest.mark.parametrize("shape", [(3,), (1,), (4, 1), (2, 3, 5), (2, 0)])
def test_softmax_and_cross_entropy_reject_a_last_axis_other_than_2(shape):
    logits = np.zeros(shape)
    with pytest.raises(ValueError, match="last axis of 2"):
        softmax(logits)
    with pytest.raises(ValueError, match="last axis of 2"):
        cross_entropy(logits, np.zeros(shape[:-1], dtype=np.int64))


def test_backward_zero_dlogits():
    rng = np.random.default_rng(0)
    params = init_dense(mlp_dims(6), rng)
    _, cache = forward(params, rng.normal(size=6))
    grads = backward(params, cache, np.zeros(2))
    for gw, gb in grads.layers:
        assert not gw.any()
        assert not gb.any()


def test_linear_weight_gradient_is_outer_product():
    params = DenseParams(layers=[[np.zeros((2, 3)), np.zeros(2)]])
    x = np.array([1.0, 2.0, -1.0])
    _, cache = forward(params, x)
    g = np.array([0.3, -0.7])
    grads = backward(params, cache, g)
    assert np.allclose(grads.layers[0][0], np.outer(g, x))
    assert np.allclose(grads.layers[0][1], g)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for dims in (mlp_dims(9), linear_dims(5), mlp_dims(14)):
        params = init_dense(dims, rng)
        x = rng.normal(size=dims[0])
        label = int(rng.integers(2))
        logits, cache = forward(params, x)
        _, dlogits = cross_entropy(logits, label)
        analytic = backward(params, cache, dlogits)
        numeric = finite_difference(params, x, label)
        assert max_rel_error(analytic, numeric) < 1e-4


def test_adam_zero_gradient_keeps_params():
    rng = np.random.default_rng(1)
    params = init_dense(linear_dims(3), rng)
    before = [w.copy() for w, _ in params.layers]
    state = AdamState.for_params(params)
    adam_step(params, DenseParams(params.layers, np.zeros_like(params.flat)), state)
    assert state.step == 1
    for (w, _), old in zip(params.layers, before):
        assert np.array_equal(w, old)


def test_adam_first_step_is_minus_lr():
    params = DenseParams(layers=[[np.array([[0.0]]), np.zeros(1)]])
    state = AdamState.for_params(params, lr=0.001)
    grads = DenseParams(layers=[[np.array([[1.0]]), np.zeros(1)]])
    adam_step(params, grads, state)
    # bias-corrected first step moves by ~lr against the gradient
    assert params.layers[0][0][0, 0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_constant_gradient_limit():
    params = DenseParams(layers=[[np.array([[0.0]]), np.zeros(1)]])
    state = AdamState.for_params(params, lr=0.01)
    grads = DenseParams(layers=[[np.array([[2.5]]), np.zeros(1)]])
    prev = 0.0
    for _ in range(500):
        prev = params.layers[0][0][0, 0]
        adam_step(params, grads, state)
    step = prev - params.layers[0][0][0, 0]
    assert step == pytest.approx(0.01, rel=1e-3)


def old_adam_step(layers, grads, state):
    """The per-layer Adam loop that preceded the flat buffer, on nested lists."""
    state["step"] += 1
    bc1 = 1.0 - 0.9 ** state["step"]
    bc2 = 1.0 - 0.999 ** state["step"]
    for layer, grad, m, v in zip(layers, grads, state["m"], state["v"]):
        for k in range(2):
            m[k] *= 0.9
            m[k] += (1.0 - 0.9) * grad[k]
            v[k] *= 0.999
            v[k] += (1.0 - 0.999) * (grad[k] * grad[k])
            layer[k] -= state["lr"] * (m[k] / bc1) / (np.sqrt(v[k] / bc2) + 1e-8)


@pytest.mark.parametrize("dims", [mlp_dims(23), linear_dims(23), mlp_dims(7, 14)])
def test_flat_adam_matches_per_layer_loop_bit_for_bit(dims):
    rng = np.random.default_rng(len(dims) + dims[-1])
    params = init_dense(dims, rng)
    old = [[w.copy(), b.copy()] for w, b in params.layers]
    state = AdamState.for_params(params, lr=0.01)

    def zeros():
        return [[np.zeros_like(a) for a in layer] for layer in old]

    old_state = {"lr": 0.01, "step": 0, "m": zeros(), "v": zeros()}
    for _ in range(6):
        x = rng.normal(size=(5, dims[0]))
        logits, cache = forward(params, x)
        pairs = logits.reshape(5, -1, 2)  # 2 * D outputs are D two-way pairs, as in the generator
        _, dlogits = cross_entropy(pairs, rng.integers(2, size=pairs.shape[:-1]))
        grads = backward(params, cache, dlogits.reshape(logits.shape))
        old_step_grads = [[g.copy() for g in layer] for layer in grads.layers]
        adam_step(params, grads, state)
        old_adam_step(old, old_step_grads, old_state)
        for (w, b), (ow, ob) in zip(params.layers, old):
            assert np.array_equal(w.view(np.int64), ow.view(np.int64))
            assert np.array_equal(b.view(np.int64), ob.view(np.int64))
    assert state.step == old_state["step"] == 6


def test_adam_step_at_steady_state_allocates_less_than_one_parameter_buffer():
    rng = np.random.default_rng(0)
    params = init_dense(mlp_dims(200, 400), rng)  # the generator at D = 200
    grads = DenseParams(params.layers, rng.normal(size=params.flat.size))
    state = AdamState.for_params(params)
    adam_step(params, grads, state)
    tracemalloc.start()
    try:
        adam_step(params, grads, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.flat.nbytes


def buffer_of(size, rng):
    """One layer holding ``size`` parameters: a (1, size - 1) weight and one bias."""
    return DenseParams([[rng.normal(size=(1, size - 1)), rng.normal(size=1)]])


@pytest.mark.parametrize("size", [1, ADAM_CHUNK - 1, ADAM_CHUNK, 2 * ADAM_CHUNK + 5])
def test_chunked_adam_matches_the_whole_buffer_update_bit_for_bit(size):
    rng = np.random.default_rng(size)
    params = buffer_of(size, rng)
    ref = clone_params(params)
    state, ref_state = AdamState.for_params(params, lr=0.01), AdamState.for_params(ref, lr=0.01)
    for _ in range(30):
        scale = rng.choice([0.0, 1e-6, 1.0, 1e3], size=size)
        grads = DenseParams(params.layers, rng.normal(size=size) * scale)
        adam_step(params, grads, state)
        whole_buffer_adam_step(ref, grads, ref_state)
        assert params.flat.tobytes() == ref.flat.tobytes()
    assert state.m.tobytes() == ref_state.m.tobytes() and state.v.tobytes() == ref_state.v.tobytes()
    assert state.step == ref_state.step == 30


@pytest.mark.parametrize("size", [1, ADAM_CHUNK, 3 * ADAM_CHUNK + 1])
def test_adam_scratch_holds_at_most_two_chunks(size):
    state = AdamState.for_params(buffer_of(size, np.random.default_rng(0)))
    assert sum(buffer.size for buffer in state.scratch) <= 2 * ADAM_CHUNK


def test_adam_rejects_a_gradient_of_another_layout_with_the_same_size():
    params = DenseParams(layers=[[np.zeros((2, 4)), np.zeros(2)]])
    grads = DenseParams(layers=[[np.zeros((5, 1)), np.zeros(5)]])
    assert grads.flat.size == params.flat.size
    with pytest.raises(ValueError, match="layout"):
        adam_step(params, grads, AdamState.for_params(params))


def test_adam_rejects_a_state_made_for_another_buffer():
    # one chunk of state over two chunks of parameters would leave the second chunk unmoved
    params = buffer_of(2 * ADAM_CHUNK, np.random.default_rng(0))
    state = AdamState.for_params(buffer_of(ADAM_CHUNK, np.random.default_rng(1)))
    with pytest.raises(ValueError, match="layout"):
        adam_step(params, clone_params(params), state)


def test_layers_are_views_into_the_flat_buffer():
    params = init_dense(mlp_dims(9), np.random.default_rng(2))
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
    assert params.flat.size == sum(w.size + b.size for w, b in params.layers)
    start = 0
    for i, (w, b) in enumerate(params.layers):
        params.layers[i][0][-1, -1] = 100.0 + i
        params.layers[i][1][-1] = -100.0 - i
        assert params.flat[start + w.size - 1] == 100.0 + i
        assert params.flat[start + w.size + b.size - 1] == -100.0 - i
        assert np.array_equal(params.flat[start : start + w.size], w.reshape(-1))
        start += w.size + b.size


def test_clone_params_shares_no_memory():
    params = init_dense(mlp_dims(9), np.random.default_rng(3))
    clone = clone_params(params)
    assert not np.shares_memory(clone.flat, params.flat)
    for (w, b), (cw, cb) in zip(params.layers, clone.layers):
        assert not np.shares_memory(cw, params.flat) and not np.shares_memory(cb, params.flat)
        assert np.array_equal(w, cw) and np.array_equal(b, cb)
    assert np.shares_memory(clone.layers[0][0], clone.flat)


@pytest.mark.parametrize("dims", [mlp_dims(12), linear_dims(12), mlp_dims(12, 24)])
def test_backward_gradients_have_the_parameter_layout(dims):
    rng = np.random.default_rng(4)
    params = init_dense(dims, rng)
    logits, cache = forward(params, rng.normal(size=(3, dims[0])))
    grads = backward(params, cache, np.ones_like(logits))
    assert grads.flat.shape == params.flat.shape
    assert not np.shares_memory(grads.flat, params.flat)
    for (w, b), (gw, gb) in zip(params.layers, grads.layers):
        assert (gw.shape, gb.shape) == (w.shape, b.shape)
        assert np.shares_memory(gw, grads.flat) and np.shares_memory(gb, grads.flat)


def test_param_count_small_example():
    assert param_count(8, "mlp", 1) == 52
    assert param_count(8, "mlp", 3) == 156


def test_param_count_anchors():
    mlp = param_count(365, "mlp", 3)
    assert abs(mlp - 250_347) / 250_347 < 0.002
    linear = param_count(365, "linear", 3)
    assert abs(linear - 84_913) / 84_913 < 0.005


def test_param_count_matches_direct_tally():
    rng = np.random.default_rng(0)
    for d in (4, 9, 16, 33):
        net = init_dense(mlp_dims(d), rng)
        assert param_count(d, "mlp", 1) == count_params(net)
        assert param_count(d, "mlp", 3) == 3 * count_params(net)
        lin = init_dense(linear_dims(d), rng)
        assert param_count(d, "linear", 3) == count_params(net) + 2 * count_params(lin)


def test_param_count_rejects_tiny_mlp():
    with pytest.raises(ValueError):
        param_count(3, "mlp", 3)


def test_hidden_width_clamped():
    assert mlp_dims(4) == [4, 2, 2, 2]
    assert mlp_dims(5) == [5, 2, 2, 2]


def test_init_deterministic():
    a = init_dense(mlp_dims(10), np.random.default_rng(4))
    b = init_dense(mlp_dims(10), np.random.default_rng(4))
    for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
        assert np.array_equal(wa, wb)
        assert np.array_equal(ba, bb)
    assert not a.layers[0][1].any()  # biases start at zero


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=2))
def test_softmax_is_probability_pair(logit_list):
    probs = softmax(np.array(logit_list))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert (probs >= 0).all()
