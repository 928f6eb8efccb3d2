"""Property tests: the packed BiLSTM scan against the masked scan it
replaced, kept here as the oracle. The masked scan runs the cell on every
row at every step and keeps a padded row's state with `np.where`; the packed
scan sorts the rows by length and runs the cell and BPTT on the live rows
alone. Over random batches with uneven left pads, dropout on and off, and a
carried forward state, probabilities, losses and carried states must agree
to 1e-12 and gradients to a relative 1e-9, on one thread and on the two
that batches of _THREADED_ROWS rows or more use. The reference projects each
step's input with its own X[:, t] @ W, so the probability test also checks
the packed pass's input-projection tables against those products. A single
row without pads must come out bit for bit as the reference, as greedy
decoding sees it: from the same tables when it keeps no BPTT cache, and from
the per-step products when it does."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_seqmodel import explicit_pads

from apisentry.seqmodel import (
    BiLstmConfig,
    _batches,
    _cell_step,
    _forward_batch,
    _gates,
    init_model,
    loss_and_grads,
)


def reference_scan(params, direction, X, mask, reverse, keep_steps, state=None, table=None):
    """_scan as it was: the cell runs on every row, and a padded row keeps
    its state. Given a table, X holds the ids and the step input is
    table[X[:, t]], else it is X[:, t] @ W."""
    B, T = X.shape[:2]
    cell = {m: params[f"{direction}.{m}"] for m in "WUb"}
    h, c = state or (np.zeros((B, cell["U"].shape[0])),) * 2
    times = range(T - 1, -1, -1) if reverse else range(T)
    steps = []
    for t in times:
        xw = X[:, t] @ cell["W"] if table is None else table[X[:, t]]
        h_new, c_new = h.copy(), c.copy()
        acts, tanh_c = _cell_step(xw, h_new, c_new, cell)
        m = mask[:, t][:, None]
        if keep_steps:
            steps.append((t, h, c, m, acts, tanh_c))
        h = np.where(m, h_new, h)
        c = np.where(m, c_new, c)
    return (h, c), steps


def reference_scan_backward(params, direction, steps, X, d_final_h, dX, grads):
    """_scan_backward as it was: every row at every step, masked."""
    W, U = params[f"{direction}.W"], params[f"{direction}.U"]
    gW, gU, gb = (grads[f"{direction}.{m}"] for m in "WUb")
    dh = d_final_h
    dc = np.zeros_like(dh)
    n = 3 * dh.shape[1]
    for t, h_prev, c_prev, m, acts, tanh_c in reversed(steps):
        i, f, o, g = _gates(acts, dh.shape[1])
        dh_new = dh * m
        dc_new = dc * m + dh_new * o * (1.0 - tanh_c ** 2)
        da = np.concatenate([dc_new * g, dc_new * c_prev, dh_new * tanh_c, dc_new * i],
                            axis=1)
        sig = acts[:, :n]
        da[:, :n] *= sig
        da[:, :n] *= 1.0 - sig
        da[:, n:] *= 1.0 - g ** 2
        gW += X[:, t].T @ da
        gU += h_prev.T @ da
        gb += da.sum(axis=0)
        dX[:, t] += da @ W.T
        dh = dh * (1.0 - m) + da @ U.T
        dc = dc_new * f + dc * (1.0 - m)


def reference_forward_batch(model, ids, dropout_seed, state=None, tables=False):
    """_forward_batch as it was, over the masked scan, with dropout drawn
    from `dropout_seed` if one is given; with `tables`, a pass without
    dropout reads its step inputs from (emb @ W)[ids], as the packed pass
    without dropout or cache does."""
    cfg = model.config
    mask = ids != cfg.pad_id
    params = model.params
    X = params["emb"][ids]
    drop = None
    table = dict.fromkeys(("fw", "bw"))
    dropout = dropout_seed is not None and cfg.dropout_rate > 0.0
    if tables and not dropout:
        X, table = ids, {d: params["emb"] @ params[f"{d}.W"] for d in table}
    if dropout:
        rng = np.random.default_rng(dropout_seed)
        keep = 1.0 - cfg.dropout_rate
        drop = (rng.random(X.shape) < keep).astype(np.float64) / keep
        X = X * drop
    new = slice(None) if state is None else slice(-1, None)
    state, steps_f = reference_scan(params, "fw", X[:, new], mask[:, new], False, True, state,
                                    table["fw"])
    (h_b, _), steps_b = reference_scan(params, "bw", X, mask, True, True, None, table["bw"])
    feat = np.concatenate([state[0], h_b], axis=1)
    logits = feat @ params["dense.W"] + params["dense.b"]
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    norm = exp.sum(axis=1, keepdims=True)
    cache = {"X": X, "drop": drop, "steps_f": steps_f, "steps_b": steps_b, "feat": feat}
    return exp / norm, shift - np.log(norm), cache, state


def reference_loss_and_grads(model, samples, dropout_seed):
    """loss_and_grads as it was, over the masked scan and its BPTT."""
    cfg = model.config
    [(ids, targets)] = _batches(samples, cfg, None)
    probs, log_probs, cache, _ = reference_forward_batch(model, ids, dropout_seed)
    B = len(targets)
    loss = float(-log_probs[np.arange(B), targets].sum() / B)
    params = model.params
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dlogits = probs.copy()
    dlogits[np.arange(B), targets] -= 1.0
    dlogits /= B
    grads["dense.W"] += cache["feat"].T @ dlogits
    grads["dense.b"] += dlogits.sum(axis=0)
    dfeat = dlogits @ params["dense.W"].T
    H = cfg.hidden
    X = cache["X"]
    dX = np.zeros_like(X)
    reference_scan_backward(params, "fw", cache["steps_f"], X, dfeat[:, :H], dX, grads)
    reference_scan_backward(params, "bw", cache["steps_b"], X, dfeat[:, H:], dX, grads)
    if cache["drop"] is not None:
        dX = dX * cache["drop"]
    np.add.at(grads["emb"], ids, dX)
    return loss, grads


@st.composite
def padded_batches(draw, max_rows=24):
    """A model and B = 1..max_rows samples (from _THREADED_ROWS rows on,
    the scans run on two threads), each prefix 1-6 calls behind
    0-3 explicit pads, so rows are left-padded unevenly and leading
    columns may hold pads alone."""
    vocab = draw(st.integers(2, 8))
    cfg = BiLstmConfig(vocab_size=vocab, embed_dim=draw(st.integers(1, 4)),
                       hidden=draw(st.integers(1, 5)),
                       dropout_rate=draw(st.sampled_from([0.0, 0.3])), max_prefix_len=9)
    model = init_model(cfg)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for key in model.params:
        model.params[key] = rng.normal(size=model.params[key].shape)
    samples = []
    for _ in range(draw(st.integers(1, max_rows))):
        calls = draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=6))
        pads = draw(st.integers(0, 3))
        samples.append((tuple([cfg.pad_id] * pads + calls), draw(st.integers(0, vocab - 1))))
    return model, samples


def assert_grads_close(got, expect):
    for key, ref in expect.items():
        # a relative 1e-9, with entries that cancel to near 0 read against
        # the tensor's scale
        np.testing.assert_allclose(got[key], ref, rtol=1e-9,
                                   atol=1e-12 * max(np.abs(ref).max(), 1e-300), err_msg=key)


@settings(max_examples=200, deadline=None)
@given(batch=padded_batches(), dropout_seed=st.integers(0, 2**63 - 1))
def test_packed_gradients_equal_the_masked_oracle(batch, dropout_seed):
    model, samples = batch
    with explicit_pads():
        loss, grads = loss_and_grads(model, samples, dropout_seed=dropout_seed)
        ref_loss, ref_grads = reference_loss_and_grads(model, samples, dropout_seed)
    assert abs(loss - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
    assert_grads_close(grads, ref_grads)


@settings(max_examples=200, deadline=None)
@given(batch=padded_batches(), carried=st.booleans(), data=st.data())
def test_packed_probabilities_and_state_equal_the_masked_oracle(batch, carried, data):
    model, samples = batch
    with explicit_pads():
        [(ids, _)] = _batches(samples, model.config, None)
    state = None
    if carried:  # any (h, c) after all columns but the last: the last is live in every row
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        state = tuple(rng.normal(size=(len(ids), model.config.hidden)) for _ in "hc")
    seed = data.draw(st.integers(0, 2**63 - 1))
    seed = seed if data.draw(st.booleans()) else None  # dropout on or off
    before = None if state is None else tuple(a.copy() for a in state)
    probs, log_probs, _, (h, c) = _forward_batch(model, ids, seed, False, state)
    if carried:  # the scan writes its own copy of the carried state
        assert all(np.array_equal(a, b) for a, b in zip(state, before))
    ref_probs, ref_log_probs, _, (ref_h, ref_c) = reference_forward_batch(
        model, ids, seed, state)
    for got, expect in ((probs, ref_probs), (log_probs, ref_log_probs), (h, ref_h),
                        (c, ref_c)):
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(batch=padded_batches(max_rows=1), carried=st.booleans())
def test_a_single_row_without_pads_is_bit_exact(batch, carried):
    model, [(prefix, target)] = batch
    prefix = tuple(x for x in prefix if x != model.config.pad_id)
    ids = np.array([prefix])
    state = (np.full((1, model.config.hidden), 0.25), np.full((1, model.config.hidden), -0.5))
    state = state if carried else None
    before = None if state is None else tuple(a.copy() for a in state)
    got = _forward_batch(model, ids, None, False, state)
    if carried:  # the identity order too leaves the caller's state alone
        assert all(np.array_equal(a, b) for a, b in zip(state, before))
    expect = reference_forward_batch(model, ids, None, state, tables=True)
    for a, b in zip((got[0], got[1], *got[3]), (expect[0], expect[1], *expect[3])):
        assert np.array_equal(a, b)
    loss, grads = loss_and_grads(model, [(prefix, target)])
    ref_loss, ref_grads = reference_loss_and_grads(model, [(prefix, target)], None)
    assert loss == ref_loss
    for key in grads:
        assert np.array_equal(grads[key], ref_grads[key]), key
