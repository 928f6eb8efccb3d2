import math
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import replace
from itertools import islice
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from apisentry import cli, seqmodel
from apisentry.metrics import weighted_metrics
from apisentry.ngrams import PrefixSample, _config_lines
from apisentry.seeding import derive_seed
from apisentry.seqmodel import (
    BiLstmConfig,
    _cell_step as cell_step,
    _greedy,
    batch_loss,
    init_adam,
    init_model,
    load_model,
    loss_and_grads,
    predict_distributions,
    predict_next_k,
    save_curves,
    save_model,
    train,
    train_step,
)

TINY = BiLstmConfig(vocab_size=7, embed_dim=4, hidden=5, dropout_rate=0.0,
                    max_prefix_len=4, batch_size=4, seed=123)


def scalar_lstm_cell(x, h, c, cell):
    """Independent oracle: the cell equations evaluated element by element.
    Unit k of gate i, f, o, g is column k of that gate's block of the
    fused W, U and b."""
    H = len(h)
    h_new = np.zeros(H)
    c_new = np.zeros(H)
    W, U, b = cell["W"], cell["U"], cell["b"]
    for k in range(H):
        i, f, o, g = k, H + k, 2 * H + k, 3 * H + k
        a_i = sum(x[d] * W[d, i] for d in range(len(x)))
        a_f = sum(x[d] * W[d, f] for d in range(len(x)))
        a_o = sum(x[d] * W[d, o] for d in range(len(x)))
        a_g = sum(x[d] * W[d, g] for d in range(len(x)))
        for d in range(H):
            a_i += h[d] * U[d, i]
            a_f += h[d] * U[d, f]
            a_o += h[d] * U[d, o]
            a_g += h[d] * U[d, g]
        a_i += b[i]
        a_f += b[f]
        a_o += b[o]
        a_g += b[g]
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        c_new[k] = sig(a_f) * c[k] + sig(a_i) * math.tanh(a_g)
        h_new[k] = sig(a_o) * math.tanh(c_new[k])
    return h_new, c_new


def run_cell(x, h, c, cell):
    """The cell on one input, from copies of h and c: (h', c')."""
    h, c = h.copy(), c.copy()
    cell_step(x @ cell["W"], h, c, cell)
    return h, c


@contextmanager
def explicit_pads():
    """Let prefixes hold the pad id, which the library refuses as a call:
    explicit left pads build the pad-only leading columns and rows that
    padding alone never does, for the tests of the scans on them. Every
    other id is still checked."""
    refuse = seqmodel._refuse_ids
    with patch.object(seqmodel, "_refuse_ids",
                      lambda ids, cfg, *what: refuse(ids[ids != cfg.pad_id], cfg, *what)):
        yield


@pytest.fixture()
def pads_allowed():
    with explicit_pads():
        yield


def distribution(model, prefix):
    """The next-call distribution of one (possibly left-padded) prefix."""
    with explicit_pads():
        return predict_distributions(model, [(prefix, 0)])[0]


def accuracy(model, samples):
    """The share of samples whose most likely next call is the true one."""
    truths = [y for _, y in samples]
    preds = predict_distributions(model, samples).argmax(axis=1)
    return weighted_metrics(preds, truths, model.config.vocab_size).accuracy


def zero_cell(embed, hidden):
    return {"W": np.zeros((embed, 4 * hidden)), "U": np.zeros((hidden, 4 * hidden)),
            "b": np.zeros(4 * hidden)}


def gate_block(tensor, k, hidden):
    """Gate k's (0=i, 1=f, 2=o, 3=g) columns of a fused W, U or b."""
    return tensor[..., k * hidden:(k + 1) * hidden]


def random_model(cfg, seed, scale=1.0):
    """init_model(cfg) with every parameter redrawn from a normal of the
    given scale."""
    model = init_model(cfg)
    rng = np.random.default_rng(seed)
    for key in model.params:
        model.params[key] = rng.normal(size=model.params[key].shape) * scale
    return model


def tiny_batch():
    return [PrefixSample(prefix=(1, 2), next=3),
            PrefixSample(prefix=(4, 5, 6, 0), next=2),
            PrefixSample(prefix=(2,), next=1)]


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("embed_dim", 0), ("hidden", 0), ("max_prefix_len", 0), ("max_prefix_len", -3),
        ("learning_rate", -0.5), ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("dropout_rate", 1.0), ("dropout_rate", -0.1),
    ])
    def test_nonsense_values_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            BiLstmConfig(vocab_size=5, **{field: value})


class TestInit:
    def test_deterministic(self):
        a = init_model(TINY)
        b = init_model(TINY)
        for key in a.params:
            assert (a.params[key] == b.params[key]).all()

    def test_pad_row_zero(self):
        model = init_model(TINY)
        assert (model.params["emb"][TINY.pad_id] == 0).all()

    def test_forget_bias_one_others_zero(self):
        model = init_model(TINY)
        H = TINY.hidden
        for d in ("fw", "bw"):
            assert model.params[f"{d}.b"].shape == (4 * H,)
            assert (gate_block(model.params[f"{d}.b"], 1, H) == 1.0).all()
            for k in (0, 2, 3):
                assert (gate_block(model.params[f"{d}.b"], k, H) == 0.0).all()
        assert (model.params["dense.b"] == 0.0).all()

    def test_glorot_bounds(self):
        # every gate block has the bound of its own (rows, H) shape
        model = init_model(TINY)
        H = TINY.hidden
        for d in ("fw", "bw"):
            for m, rows in (("W", TINY.embed_dim), ("U", H)):
                bound = math.sqrt(6.0 / (rows + H))
                for k in range(4):
                    w = gate_block(model.params[f"{d}.{m}"], k, H)
                    assert np.abs(w).max() <= bound
                    assert np.abs(w).max() > 0.1 * bound


class TestLstmCell:
    def test_all_zero_parameters_zero_state(self):
        cell = zero_cell(3, 4)
        h, c = run_cell(np.zeros(3), np.zeros(4), np.zeros(4), cell)
        assert (h == 0).all() and (c == 0).all()

    def test_all_zero_parameters_carried_cell(self):
        cell = zero_cell(3, 4)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        h, c = run_cell(np.zeros(3), np.zeros(4), v, cell)
        assert np.allclose(c, 0.5 * v, atol=1e-15)
        assert np.allclose(h, 0.5 * np.tanh(0.5 * v), atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            cell = {"W": rng.normal(size=(3, 16)) * 0.5, "U": rng.normal(size=(4, 16)) * 0.5,
                    "b": rng.normal(size=16) * 0.5}
            x = rng.normal(size=3)
            h = rng.normal(size=4)
            c = rng.normal(size=4)
            got_h, got_c = run_cell(x, h, c, cell)
            want_h, want_c = scalar_lstm_cell(x, h, c, cell)
            assert np.abs(got_h - want_h).max() < 1e-12
            assert np.abs(got_c - want_c).max() < 1e-12


class TestForward:
    def test_softmax_normalized_over_random_models(self):
        rng = np.random.default_rng(22)
        for trial in range(1000):
            cfg = BiLstmConfig(vocab_size=int(rng.integers(2, 9)),
                               embed_dim=int(rng.integers(1, 5)),
                               hidden=int(rng.integers(1, 6)),
                               dropout_rate=0.0, max_prefix_len=6,
                               seed=int(rng.integers(1 << 30)))
            model = init_model(cfg)
            for key in model.params:
                model.params[key] = rng.normal(size=model.params[key].shape) * 3
            length = int(rng.integers(1, 6))
            prefix = rng.integers(0, cfg.vocab_size, size=length)
            probs = distribution(model, prefix)
            assert probs.shape == (cfg.vocab_size,)
            assert (probs >= 0).all()
            assert abs(probs.sum() - 1.0) < 1e-6

    def test_dropout_zero_equals_infer(self):
        model = init_model(TINY)
        ids = np.array([[1, 2, 3]])
        probs_train = seqmodel._forward_batch(model, ids, 5, False)[0][0]
        probs_infer = distribution(model, [1, 2, 3])
        assert np.allclose(probs_train, probs_infer, atol=0)

    def test_zero_dense_gives_uniform(self):
        model = init_model(TINY)
        model.params["dense.W"][:] = 0
        model.params["dense.b"][:] = 0
        probs = distribution(model, [1, 2])
        assert np.allclose(probs, 1.0 / TINY.vocab_size, atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(vocab=st.integers(2, 8), embed=st.integers(1, 4), hidden=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_pad_neutrality(self, vocab, embed, hidden, seed, data):
        cfg = BiLstmConfig(vocab_size=vocab, embed_dim=embed, hidden=hidden,
                           dropout_rate=0.0, max_prefix_len=12)
        model = random_model(cfg, seed)
        prefix = data.draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=6))
        pads = [cfg.pad_id] * data.draw(st.integers(0, 5))
        assert np.array_equal(distribution(model, pads + prefix), distribution(model, prefix))

    def test_direction_symmetry(self):
        rng = np.random.default_rng(23)
        model = init_model(TINY)
        for key in model.params:
            model.params[key] = rng.normal(size=model.params[key].shape) * 0.3
        swapped = init_model(TINY)
        for mat in ("W", "U", "b"):
            swapped.params[f"fw.{mat}"] = model.params[f"bw.{mat}"].copy()
            swapped.params[f"bw.{mat}"] = model.params[f"fw.{mat}"].copy()
        swapped.params["emb"] = model.params["emb"].copy()
        H = TINY.hidden
        swapped.params["dense.W"] = np.vstack([model.params["dense.W"][H:],
                                               model.params["dense.W"][:H]])
        swapped.params["dense.b"] = model.params["dense.b"].copy()
        seq = [1, 5, 2, 6]
        assert np.allclose(distribution(model, seq), distribution(swapped, seq[::-1]), atol=1e-12)


class TestBatchLoss:
    def test_uniform_distribution_loss(self):
        cfg = BiLstmConfig(vocab_size=342, embed_dim=4, hidden=3,
                           dropout_rate=0.0, max_prefix_len=4)
        model = init_model(cfg)
        model.params["dense.W"][:] = 0
        model.params["dense.b"][:] = 0
        loss = batch_loss(model, [PrefixSample(prefix=(5, 6), next=17)])
        assert loss == pytest.approx(math.log(342), abs=1e-12)

    def test_confident_correct_prediction_has_zero_loss(self):
        model = init_model(TINY)
        model.params["dense.W"][:] = 0
        model.params["dense.b"][:] = -50.0
        model.params["dense.b"][3] = 50.0
        loss = batch_loss(model, [PrefixSample(prefix=(1, 2), next=3)])
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_two_sample_batch_is_mean_of_singles(self):
        model = init_model(TINY)
        s1 = PrefixSample(prefix=(1, 2), next=3)
        s2 = PrefixSample(prefix=(4, 5, 6), next=0)
        both = batch_loss(model, [s1, s2])
        singles = 0.5 * (batch_loss(model, [s1]) + batch_loss(model, [s2]))
        assert both == pytest.approx(singles, abs=1e-12)


class TestSampleChecks:
    """Samples become arrays in one place, so every function that takes
    samples refuses the same bad input with the same message."""

    @pytest.mark.parametrize("fn", [batch_loss, loss_and_grads, predict_distributions])
    def test_no_samples_is_refused_alike(self, fn):
        with pytest.raises(ValueError, match="^no samples$"):
            fn(init_model(TINY), iter([]))

    @pytest.mark.parametrize("fn", [batch_loss, loss_and_grads, predict_distributions])
    def test_an_empty_prefix_among_others_is_refused_alike(self, fn):
        samples = tiny_batch() + [PrefixSample(prefix=(), next=1)]
        with pytest.raises(ValueError, match="^empty sequence$"):
            fn(init_model(TINY), samples)

    @pytest.mark.parametrize("target", [-1, TINY.vocab_size])
    def test_out_of_range_next_call_is_refused(self, target):
        model = init_model(TINY)
        samples = tiny_batch() + [PrefixSample(prefix=(1, 2), next=target)]
        refused = rf"^next call id {target} is outside \[0, {TINY.vocab_size}\)$"
        for fn in (batch_loss, loss_and_grads):
            with pytest.raises(ValueError, match=refused):
                fn(model, samples)
        with pytest.raises(ValueError, match=refused):
            train(samples * 2, TINY)


def finite_difference_check(cfg, samples, dropout_seed=None):
    """Central finite differences (eps 1e-4) against analytic gradients;
    returns the worst relative error over every parameter tensor. With a
    dropout seed, the loss is loss_and_grads' under that seed's mask."""
    model = init_model(cfg)
    _, grads = loss_and_grads(model, samples, dropout_seed=dropout_seed)

    def loss():
        if dropout_seed is None:
            return batch_loss(model, samples)
        return loss_and_grads(model, samples, dropout_seed=dropout_seed)[0]

    eps = 1e-4
    worst = 0.0
    for key in model.params:
        tensor = model.params[key]
        flat = tensor.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = loss()
            flat[idx] = keep - eps
            down = loss()
            flat[idx] = keep
            numeric = (up - down) / (2 * eps)
            analytic = grads[key].reshape(-1)[idx]
            scale = max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, abs(numeric - analytic) / scale)
    return worst


class TestGradients:
    def test_finite_differences_no_dropout(self):
        assert finite_difference_check(TINY, tiny_batch()) < 1e-3

    def test_finite_differences_with_dropout(self):
        cfg = BiLstmConfig(vocab_size=7, embed_dim=4, hidden=5, dropout_rate=0.3,
                           max_prefix_len=4, batch_size=4, seed=123)
        assert finite_difference_check(cfg, tiny_batch(), dropout_seed=99) < 1e-3

    def test_a_call_without_a_seed_draws_no_dropout(self):
        model = random_model(replace(TINY, dropout_rate=0.3), seed=14)
        runs = [loss_and_grads(model, tiny_batch()) for _ in range(2)]
        model.config = TINY  # the same weights, dropout rate 0
        runs.append(loss_and_grads(model, tiny_batch()))
        loss, grads = runs[0]
        for other_loss, other_grads in runs[1:]:
            assert other_loss == loss
            assert all(other_grads[k].tobytes() == grads[k].tobytes() for k in grads)

    def test_zero_learning_rate_leaves_parameters(self):
        cfg = BiLstmConfig(vocab_size=7, embed_dim=4, hidden=5, dropout_rate=0.0,
                           learning_rate=0.0, max_prefix_len=4)
        model = init_model(cfg)
        state = init_adam(model)
        before = model.copy_params()
        train_step(model, state, tiny_batch())
        for key in before:
            assert (model.params[key] == before[key]).all()
        assert state.t == 1

    def test_overfit_single_batch(self):
        cfg = BiLstmConfig(vocab_size=7, embed_dim=4, hidden=5, dropout_rate=0.0,
                           learning_rate=0.01, max_prefix_len=4, seed=31)
        model = init_model(cfg)
        state = init_adam(model)
        batch = tiny_batch()
        losses = [train_step(model, state, batch) for _ in range(12)]
        assert all(b < a for a, b in zip(losses, losses[1:]))


def cyclic_samples(n_traces=40, period=5, seed=0, min_len=8, max_len=16):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_traces):
        start = int(rng.integers(0, period))
        length = int(rng.integers(min_len, max_len + 1))
        calls = [(start + i) % period for i in range(length)]
        for n in range(2, len(calls)):
            samples.append(PrefixSample(prefix=tuple(calls[:n]), next=calls[n]))
    return samples


class TestTrain:
    def test_constant_validation_loss_stops_after_patience(self):
        # learning rate 0 freezes the model, so validation loss never
        # improves after epoch 1
        cfg = BiLstmConfig(vocab_size=5, embed_dim=3, hidden=4, dropout_rate=0.0,
                           learning_rate=0.0, max_epochs=10, patience=1,
                           val_fraction=0.25, max_prefix_len=6, batch_size=4)
        model, report = train(cyclic_samples(6), cfg)
        assert len(report.train_loss) == 2
        assert report.val_loss[1] == report.val_loss[0]

    def test_deterministic_report(self):
        cfg = BiLstmConfig(vocab_size=5, embed_dim=4, hidden=6, dropout_rate=0.3,
                           max_epochs=3, patience=3, val_fraction=0.2,
                           max_prefix_len=8, batch_size=16, seed=77)
        _, r1 = train(cyclic_samples(10), cfg)
        _, r2 = train(cyclic_samples(10), cfg)
        assert r1 == r2

    def test_best_epoch_parameters_reproduce_validation_loss(self):
        cfg = BiLstmConfig(vocab_size=5, embed_dim=4, hidden=8, dropout_rate=0.2,
                           max_epochs=6, patience=6, val_fraction=0.2,
                           max_prefix_len=10, batch_size=16, seed=5)
        samples = cyclic_samples(12)
        model, report = train(samples, cfg)
        best = int(np.argmin(report.val_loss))  # the first epoch of least validation loss
        # rebuild the validation set exactly as train() carved it
        pairs = [(tuple(s.prefix), s.next) for s in samples]
        rng = np.random.default_rng(derive_seed(cfg.seed, "val-split"))
        order = rng.permutation(len(pairs))
        n_val = int(math.floor(len(pairs) * cfg.val_fraction + 0.5))
        val = [pairs[i] for i in order[:n_val]]
        assert batch_loss(model, val) == pytest.approx(
            report.val_loss[best], abs=1e-9)

    def test_learns_cycle(self):
        cfg = BiLstmConfig(vocab_size=5, embed_dim=8, hidden=16, dropout_rate=0.0,
                           max_epochs=12, patience=12, val_fraction=0.1,
                           max_prefix_len=15, batch_size=32, seed=42)
        model, _ = train(cyclic_samples(40), cfg)
        assert accuracy(model, cyclic_samples(10, seed=9)) >= 0.99
        assert predict_next_k(model, [1, 2, 3, 1, 2], 1) == [3]
        assert predict_next_k(model, [1, 2], 4) == [3, 4, 0, 1]


class TestInferenceMemory:
    """Only loss_and_grads keeps the per-step BPTT cache; inference holds
    a few steps' arrays, far below one direction's gate activations."""

    B, T, HIDDEN = 32, 64, 16
    CFG = BiLstmConfig(vocab_size=7, embed_dim=4, hidden=HIDDEN, dropout_rate=0.0,
                       max_prefix_len=T, batch_size=B, seed=5)

    def traced_peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_inference_path_builds_the_step_cache(self):
        model = init_model(self.CFG)
        rng = np.random.default_rng(6)
        samples = [(tuple(rng.integers(0, 7, self.T).tolist()), int(rng.integers(0, 7)))
                   for _ in range(self.B)]
        gate_bytes = self.T * 4 * self.HIDDEN * 8  # one direction, one row
        for fn in (lambda: predict_distributions(model, samples),
                   lambda: batch_loss(model, samples)):
            assert self.traced_peak(fn) < self.B * gate_bytes / 4
        assert self.traced_peak(lambda: distribution(model, samples[0][0])) < gate_bytes

    def test_the_step_cache_holds_the_live_rows_alone(self):
        # one long row and many short ones: a cached view of the whole
        # batch's state would pin the short rows' pad steps as well
        cfg = replace(self.CFG, hidden=4, max_prefix_len=40)
        ids = np.full((16, 40), cfg.pad_id, dtype=np.int64)
        ids[0] = np.arange(40) % 7
        ids[1:, -2:] = [3, 5]
        _, _, cache, _ = seqmodel._forward_batch(init_model(cfg), ids, None, True)
        live_cells = int((ids != cfg.pad_id).sum())
        for direction in ("steps_f", "steps_b"):
            held = {}
            for _, h_prev, c_prev, _, _ in cache[direction]:
                for a in (h_prev, c_prev):
                    owner = a if a.base is None else a.base
                    held[id(owner)] = owner.nbytes
            assert sum(held.values()) == 2 * 8 * cfg.hidden * live_cells, direction

    def test_plain_pairs_and_samples_agree(self):
        model = init_model(TINY)
        pairs = [(list(s.prefix), s.next) for s in tiny_batch()]
        assert batch_loss(model, pairs) == batch_loss(model, tiny_batch())
        assert np.array_equal(predict_distributions(model, iter(pairs)),
                              predict_distributions(model, tiny_batch()))


class TestPredict:
    @pytest.mark.usefixtures("pads_allowed")
    def test_no_table_outlives_its_call(self):
        """The x W tables are built from the weights as they are at each
        call: weights changed in place in between must show at once."""
        cfg = replace(TINY, vocab_size=9, max_prefix_len=8)
        model = random_model(cfg, seed=12)
        samples = uneven_samples(cfg, 6, seed=12)
        seq = [1, 5, 2]

        def outputs(m):
            greedy = b"".join(p.tobytes() for _, p in islice(_greedy(m, seq), 6))
            return predict_distributions(m, samples).tobytes(), greedy, predict_next_k(m, seq, 6)

        first = outputs(model)
        rng = np.random.default_rng(13)
        for key in ("emb", "fw.W", "bw.W"):
            model.params[key][...] = rng.normal(size=model.params[key].shape)
        fresh = seqmodel.BiLstmModel(params=model.copy_params(), config=cfg)
        second = outputs(model)
        assert second == outputs(fresh)
        assert second[0] != first[0] and second[1] != first[1]

    def test_uniform_ties_break_to_lowest_id(self):
        model = init_model(TINY)
        model.params["dense.W"][:] = 0
        model.params["dense.b"][:] = 0
        nxt, dist = next(_greedy(model, [2, 3, 4]))
        assert nxt == 0
        assert int(np.argmax(dist)) == nxt

    def test_k_one_equals_predict_next(self):
        model = init_model(TINY)
        assert predict_next_k(model, [1, 2], 1) == [next(_greedy(model, [1, 2]))[0]]

    def test_output_length(self):
        model = init_model(TINY)
        assert len(predict_next_k(model, [1], 7)) == 7

    def test_empty_sequence_rejected(self):
        model = init_model(TINY)
        with pytest.raises(ValueError, match="empty"):
            predict_next_k(model, [], 1)

    def test_an_id_outside_the_vocabulary_is_named(self):
        model = init_model(replace(TINY, vocab_size=25))
        with pytest.raises(ValueError, match=r"^call id 220 is outside \[0, 25\)$"):
            predict_next_k(model, [7, 220, 237], 1)

    @pytest.mark.parametrize("seq", [[25, 7, 8], [7, 25, 8], [7, 8, 25]])
    def test_the_pad_id_is_refused_as_a_call(self, seq):
        model = init_model(replace(TINY, vocab_size=25))
        refused = r"^call id 25 is outside \[0, 25\)$"
        with pytest.raises(ValueError, match=refused):
            predict_next_k(model, seq, 3)
        for fn in (predict_distributions, batch_loss, loss_and_grads):
            with pytest.raises(ValueError, match=refused):
                fn(model, [((1, 2), 3), (tuple(seq), 3)])

    def test_an_id_beyond_64_bits_is_named(self):
        model = init_model(replace(TINY, vocab_size=25))
        with pytest.raises(ValueError, match=rf"^call id {2**70} is outside \[0, 25\)$"):
            predict_next_k(model, [7, 2**70], 1)

    def test_long_input_keeps_tail(self):
        model = init_model(TINY)
        rng = np.random.default_rng(1)
        seq = [int(v) for v in rng.integers(0, 7, size=50)]
        got = predict_next_k(model, seq, 1)
        tail = predict_next_k(model, seq[-TINY.max_prefix_len:], 1)
        assert got == tail

    @staticmethod
    def prefix_length(kind, window, k, draw):
        """A prefix length of the given kind for a window of max_prefix_len
        calls and k decoded calls."""
        if kind == "short":
            return draw(st.integers(1, window - 1))
        if kind == "exact":
            return window
        if kind == "crossing":  # fits at first, slides during decoding
            return draw(st.integers(max(1, window - k + 2), window))
        return draw(st.integers(window + 1, window + 6))

    @pytest.mark.parametrize("kind, pads", [("short", 0), ("exact", 0), ("crossing", 0),
                                            ("long", 0), ("short", 3), ("crossing", 2),
                                            ("long", 4)])
    @settings(max_examples=40, deadline=None)
    @given(vocab=st.integers(2, 8), embed=st.integers(1, 4), hidden=st.integers(1, 5),
           window=st.integers(2, 8), k=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_carried_state_decoding_is_bit_exact(self, kind, pads, vocab, embed, hidden,
                                                 window, k, seed, data):
        cfg = BiLstmConfig(vocab_size=vocab, embed_dim=embed, hidden=hidden,
                           dropout_rate=0.0, max_prefix_len=window)
        model = random_model(cfg, seed)
        length = self.prefix_length(kind, window, k, data.draw)
        seq = [cfg.pad_id] * pads + data.draw(
            st.lists(st.integers(0, vocab - 1), min_size=length, max_size=length))
        with explicit_pads():
            decoded = predict_next_k(model, seq, k)
            carried = [probs for _, probs in islice(_greedy(model, seq), k)]
            for j in range(k):
                grown = seq + decoded[:j]
                nxt, probs = next(_greedy(model, grown))
                assert decoded[j] == nxt
                assert np.array_equal(carried[j], probs)
                assert np.array_equal(carried[j], distribution(model, grown[-window:]))

    @pytest.mark.parametrize("length", [1, 4, 8])
    def test_decoding_carries_the_forward_state(self, length, monkeypatch):
        """A pad-free prefix of L calls that stays inside the window while
        k calls are decoded costs L + k - 1 forward cell steps, and a
        backward scan of L + j calls at step j."""
        k = 5
        model = random_model(BiLstmConfig(vocab_size=7, embed_dim=3, hidden=4,
                                          max_prefix_len=length + k - 1), seed=length)
        steps = {"fw": 0, "bw": 0}

        def counted(x, h, c, cell):
            steps["fw" if cell["W"] is model.params["fw.W"] else "bw"] += 1
            return cell_step(x, h, c, cell)

        monkeypatch.setattr(seqmodel, "_cell_step", counted)
        predict_next_k(model, [j % 7 for j in range(length)], k)
        assert steps == {"fw": length + k - 1, "bw": sum(length + j for j in range(k))}
        assert sum(steps.values()) == 6 * length + 14


@pytest.mark.usefixtures("pads_allowed")
class TestPackedScan:
    """The scans run the cell on the live rows of each step alone."""

    @pytest.mark.parametrize("fn", [predict_distributions, loss_and_grads])
    def test_the_cell_sees_each_non_pad_cell_once_per_direction(self, fn, monkeypatch):
        cfg = BiLstmConfig(vocab_size=7, embed_dim=3, hidden=4, dropout_rate=0.3,
                           max_prefix_len=12, batch_size=16)
        model = random_model(cfg, seed=9)
        rng = np.random.default_rng(9)
        samples = [(tuple([7] * int(rng.integers(0, 3)) + rng.integers(0, 7, n).tolist()),
                    int(rng.integers(0, 7))) for n in (9, 1, 4, 9, 2, 6, 1, 7)]
        rows = []

        def counted(x, h, c, cell):
            rows.append(len(x))
            return cell_step(x, h, c, cell)

        monkeypatch.setattr(seqmodel, "_cell_step", counted)
        fn(model, samples)
        calls = sum(sum(1 for x in p if x != cfg.pad_id) for p, _ in samples)
        assert sum(rows) == 2 * calls
        assert min(rows) >= 1


THREADED = seqmodel._THREADED_ROWS


def uneven_samples(cfg, rows, seed):
    """`rows` samples of 1 to max_prefix_len calls behind 0-2 explicit pads."""
    rng = np.random.default_rng(seed)
    return [(tuple([cfg.pad_id] * int(rng.integers(0, 3))
                   + rng.integers(0, cfg.vocab_size,
                                  int(rng.integers(1, cfg.max_prefix_len + 1))).tolist()),
             int(rng.integers(0, cfg.vocab_size))) for _ in range(rows)]


@pytest.mark.usefixtures("pads_allowed")
class TestTwoThreads:
    """A batch of at least _THREADED_ROWS rows scans its two directions, and
    runs their BPTT, on two threads; what it returns is the one-thread
    pass's, bit for bit, and no thread outlives the call."""

    CFG = BiLstmConfig(vocab_size=9, embed_dim=5, hidden=6, dropout_rate=0.3,
                       max_prefix_len=12, batch_size=64, seed=4)

    @staticmethod
    def joined(fn, *args, **kwargs):
        before = threading.active_count()
        try:
            return fn(*args, **kwargs)
        finally:
            assert threading.active_count() == before

    def outputs(self, model, samples):
        """The raw bytes of loss_and_grads, predict_distributions,
        batch_loss, and the (h, c) of a forward pass with a carried state."""
        [(ids, _)] = seqmodel._batches(samples, model.config, None)
        rng = np.random.default_rng(len(ids))
        state = tuple(rng.normal(size=(len(ids), model.config.hidden)) for _ in "hc")
        loss, grads = self.joined(loss_and_grads, model, samples, dropout_seed=11)
        _, _, _, (h, c) = self.joined(seqmodel._forward_batch, model, ids, 5, False, state)
        got = {"loss": loss, **grads, "h": h, "c": c,
               "probs": self.joined(predict_distributions, model, samples),
               "batch_loss": self.joined(batch_loss, model, samples)}
        return {key: np.asarray(value).tobytes() for key, value in got.items()}

    @pytest.mark.parametrize("rows", [THREADED - 1, THREADED])
    def test_two_threads_give_the_one_thread_bits(self, rows, monkeypatch):
        model = random_model(self.CFG, seed=rows)
        samples = uneven_samples(self.CFG, rows, seed=rows)
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", Counted)
        default = self.outputs(model, samples)
        # two in loss_and_grads, one in each other call
        assert len(started) == (5 if rows >= THREADED else 0)
        monkeypatch.setattr(seqmodel, "_THREADED_ROWS", math.inf)
        assert self.outputs(model, samples) == default
        monkeypatch.setattr(seqmodel, "_THREADED_ROWS", 1)
        started.clear()
        assert self.outputs(model, samples) == default
        assert len(started) == 5

    def test_a_batch_below_the_threshold_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", refuse)
        model = random_model(self.CFG, seed=1)
        samples = uneven_samples(self.CFG, THREADED - 1, seed=1)
        loss_and_grads(model, samples, dropout_seed=3)
        predict_distributions(model, samples)
        batch_loss(model, samples)
        predict_next_k(model, samples[0][0], 4)

    class Failure(Exception):
        pass

    @pytest.mark.parametrize("stage", ["_scan", "_scan_backward"])
    @pytest.mark.parametrize("direction", ["fw", "bw"])  # fw runs on the worker
    def test_an_error_in_either_direction_reaches_the_caller(self, stage, direction,
                                                              monkeypatch):
        inner = getattr(seqmodel, stage)

        def failing(params, name, *rest):
            if name == direction:
                raise self.Failure(name)
            time.sleep(0.05)  # the other direction is still running when it fails
            return inner(params, name, *rest)

        monkeypatch.setattr(seqmodel, stage, failing)
        model = random_model(self.CFG, seed=2)
        with pytest.raises(self.Failure, match=direction):
            self.joined(loss_and_grads, model, uneven_samples(self.CFG, THREADED, seed=2))

    def test_the_worker_keeps_the_callers_errstate(self, monkeypatch):
        seen = set()

        def cell(x, h, c, weights):
            seen.add((threading.get_ident(), np.geterr()["under"]))
            return cell_step(x, h, c, weights)

        monkeypatch.setattr(seqmodel, "_cell_step", cell)
        model = random_model(self.CFG, seed=3)
        with np.errstate(under="raise"):
            predict_distributions(model, uneven_samples(self.CFG, THREADED, seed=3))
        assert len(seen) == 2
        assert {mode for _, mode in seen} == {"raise"}

    def test_concurrent_callers_lose_no_update_to_dX(self, monkeypatch):
        # two-call prefixes: the directions' BPTT add into the same dX
        # columns at about the same time, in adds long enough for numpy to
        # release the GIL. Four callers, each with its own worker, are more
        # threads than cores; without the lock about 5% of calls came out
        # wrong on 2 cores.
        cfg = BiLstmConfig(vocab_size=9, embed_dim=512, hidden=2, dropout_rate=0.0,
                           max_prefix_len=2, batch_size=64)
        model = random_model(cfg, seed=6)
        rng = np.random.default_rng(6)
        samples = [(tuple(rng.integers(0, 9, 2).tolist()), 1) for _ in range(64)]
        monkeypatch.setattr(seqmodel, "_THREADED_ROWS", math.inf)
        _, expect = loss_and_grads(model, samples)
        monkeypatch.setattr(seqmodel, "_THREADED_ROWS", THREADED)
        wrong = []

        def caller():
            for _ in range(50):
                _, grads = loss_and_grads(model, samples)
                wrong.extend(key for key in grads
                             if grads[key].tobytes() != expect[key].tobytes())

        callers = [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert wrong == []


@pytest.mark.usefixtures("pads_allowed")
class TestBpttMemory:
    """BPTT frees each step's activations once it has used them."""

    B, T, E, H = 32, 64, 48, 16
    CFG = BiLstmConfig(vocab_size=7, embed_dim=E, hidden=H, dropout_rate=0.3,
                       max_prefix_len=T, batch_size=B, seed=8)

    def test_bptt_empties_the_step_cache(self):
        model = random_model(self.CFG, seed=8)
        [(ids, _)] = seqmodel._batches(uneven_samples(self.CFG, 5, seed=8), self.CFG, None)
        _, _, cache, _ = seqmodel._forward_batch(model, ids, 1, True)
        grads = {key: np.zeros_like(value) for key, value in model.params.items()}
        dX = np.zeros_like(cache["X"])
        for direction, steps in (("fw", cache["steps_f"]), ("bw", cache["steps_b"])):
            assert steps
            seqmodel._scan_backward(model.params, direction, steps, cache["X"],
                                    np.ones((len(ids), self.H)), dX, grads)
            assert steps == []

    def test_peak_is_the_forward_cache_and_the_gradient_tensors(self):
        model = random_model(self.CFG, seed=9)
        samples = uneven_samples(self.CFG, self.B, seed=9)
        [(ids, _)] = seqmodel._batches(samples, self.CFG, None)
        T, cells = ids.shape[1], int((ids != self.CFG.pad_id).sum())
        # per direction and live cell: the previous h and c, the four gates
        # and tanh(c'); and about 1 KB of objects to hold each step
        cache = 2 * (cells * 7 * self.H * 8 + T * 1024)
        x_bytes = self.B * T * self.E * 8  # each of X and the two dX
        grad_bytes = 8 * sum(v.size for v in model.params.values())
        temporaries = 2 * 8 * self.B * 4 * self.H * 8  # a step's, in each direction
        loss_and_grads(model, samples, dropout_seed=4)  # first-call allocations
        tracemalloc.start()
        try:
            loss_and_grads(model, samples, dropout_seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cache + 3 * x_bytes + grad_bytes + temporaries


# The v1 text of init_model(V1_TINY_CONFIG) and that model's distribution
# for V1_TINY_PREFIX (one left pad, then 1, 3, 0, 2), both written by the
# implementation that kept each gate's W, U and b as separate parameters.
# The v1 file format is no longer read or written; the text stays as the
# oracle of init_model's draw order and of the forward pass.
V1_TINY_CONFIG = BiLstmConfig(vocab_size=4, embed_dim=2, hidden=3, seed=7)
V1_TINY_PREFIX = [4, 1, 3, 0, 2]
V1_TINY_PROBS = [0.3285918489918868, 0.24410931833574678, 0.21930130844290394,
                 0.2079975242294624]
V1_TINY = """\
apisentry-seqmodel v1
vocab_size 4
embed_dim 2
hidden 3
dropout_rate 0.29999999999999999
learning_rate 0.01
adam_beta1 0.90000000000000002
adam_beta2 0.999
adam_eps 1e-08
batch_size 128
max_epochs 50
patience 3
val_fraction 0.10000000000000001
max_prefix_len 99
seed 7
tensor emb 5 2
0.23163179474605333 0.73549704168937358
0.5104707064973395 -0.50881741355938004
-0.37002014008281781 0.69168657617429496
-0.91607065017608491 0.59479945271382317
0 0
tensor fw.W_i 2 3
-0.43153433171244626 -0.48544516167122465 -0.5370538254895153
-0.12033178483835305 0.0099647361145838165 0.11720682599198118
tensor fw.U_i 3 3
0.99100056686878535 0.58532383842750613 0.24435845888232532
0.97792029536376979 -0.5693826035288021 -0.6795759322843109
0.22507920854606156 -0.91211598407723327 -0.92863944245280772
tensor fw.b_i 3
0 0 0
tensor fw.W_f 2 3
0.032619770869078746 -0.074038888948389836 0.91396879856769653
0.28312053842651874 0.03093021400575946 -0.0068499598498998893
tensor fw.U_f 3 3
-0.50497015594533834 -0.97641194891498828 -0.61519571202937873
0.38406424176367837 -0.59878655202600961 -0.26092737879558658
-0.99253151589584809 0.66009545960349114 -0.69107783787712029
tensor fw.b_f 3
1 1 1
tensor fw.W_o 2 3
-0.50916441308121041 0.83326600031931242 0.021450589684718357
0.76056808311224966 0.30610497602054676 0.52969360647793295
tensor fw.U_o 3 3
-0.81700878987390868 0.082287642752977508 0.01554447260069991
0.74267875338576128 -0.27747188197168482 0.19636813441442613
-0.88149671530899276 -0.2247363977785426 -0.3539273074835867
tensor fw.b_o 3
0 0 0
tensor fw.W_g 2 3
-0.76637399603812839 0.69306206104047541 -0.26412020494200761
1.0488840625996079 0.19716192099996488 0.23016672011839212
tensor fw.U_g 3 3
0.27599316157666443 0.35290048762557658 -0.69842396166326259
-0.11937306562362493 -0.52087207634095334 -0.19500340379203673
-0.80659181213650877 0.93565610209764283 -0.56999192528823994
tensor fw.b_g 3
0 0 0
tensor bw.W_i 2 3
0.37631861662297483 -0.43725769359582511 0.81956170186613386
0.35539468539107699 -0.80708931003971585 0.75601995823507373
tensor bw.U_i 3 3
0.88989634228995906 0.8078335763918536 0.13943829571855448
-0.70908009247814618 -0.61507301006333526 0.85581136948904879
0.10465297533452755 -0.63889500310217673 0.76811378839293987
tensor bw.b_i 3
0 0 0
tensor bw.W_f 2 3
0.31016806581929846 0.15269250503304432 -0.27103977115767341
-0.19508720235689092 -0.57075053875033721 -1.0120657774174009
tensor bw.U_f 3 3
0.75243761621854199 -0.064539566371807799 0.095270398427470537
-0.35567338043954977 0.50264983970985577 -0.94960625839647927
-0.2556294548695921 -0.93929941123177674 -0.75421579558998131
tensor bw.b_f 3
1 1 1
tensor bw.W_o 2 3
1.0234705049034862 0.34563644212230882 -0.1572615608985759
0.052011970480707603 0.81678405270630039 -0.34131732761984201
tensor bw.U_o 3 3
0.18058196457942932 0.36736874667908737 -0.28917244595297587
0.038196972991980216 0.53049476655704519 0.81835862798110037
-0.69787544384636901 0.86683878461485708 -0.98964226836913571
tensor bw.b_o 3
0 0 0
tensor bw.W_g 2 3
0.5542459410473366 0.68033019870133704 -0.79581009066764774
-0.17767319890464783 0.69069189941202391 -1.0641785049595471
tensor bw.U_g 3 3
0.25692389573258145 0.5860473161960682 0.026007165644416963
0.45169884110217429 -0.54715303460571185 -0.60295770401465432
-0.2737460988992968 -0.64118794486570696 -0.30787712177504312
tensor bw.b_g 3
0 0 0
tensor dense.W 6 4
0.69423081075156601 0.11360655761600102 -0.24776548456234193 -0.353952536999593
0.70029656773532656 -0.086013987755339971 0.74422434790639347 0.024047615574910308
0.032790426088897151 0.61431793777937527 0.37609366709944769 0.12494687941036642
-0.11363410003128904 0.58588611250593292 -0.13687719599357118 0.65493631918007233
-0.66814330348278417 -0.10844839521562144 0.03023222895647415 0.69859044866293085
-0.38575030834419705 0.47411380825346661 0.27338800747191616 0.33630803679086663
tensor dense.b 4
0 0 0 0
"""


def v1_params(text):
    """The fused parameters of a v1 model text: each gate's W, U and b
    tensor (`fw.W_i`, ...) is its column block of the direction's W, U or b,
    in the gate order i, f, o, g of the text."""
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("tensor "))
    blocks = {}
    while at < len(lines):
        _, name, *shape = lines[at].split()
        shape = tuple(map(int, shape))
        n_rows = math.prod(shape[:-1])
        rows = [line.split() for line in lines[at + 1:at + 1 + n_rows]]
        blocks.setdefault(name.partition("_")[0], []).append(
            np.array(rows, dtype=np.float64).reshape(shape))
        at += 1 + n_rows
    return {key: np.concatenate(parts, axis=-1) for key, parts in blocks.items()}


SMALL = BiLstmConfig(vocab_size=5, embed_dim=2, hidden=2)


def model_file(tmp_path):
    """A model file of init_model(SMALL), its header's lines and its payload."""
    path = tmp_path / "model.seq"
    save_model(init_model(SMALL, seed=0), path)
    *lines, payload = path.read_bytes().split(b"\n", seqmodel._HEADER_LINES)
    return path, [line.decode() for line in lines], payload


def write_model_file(path, lines, payload):
    path.write_bytes("".join(f"{line}\n" for line in lines).encode() + payload)


# -0.0, subnormals, the extremes of the normal range and +-1e+-300
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
               2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300,
               1.7976931348623157e308, -1.7976931348623157e308]


class TestPersistence:
    @settings(max_examples=40, deadline=None)
    @given(vocab=st.integers(1, 9), embed=st.integers(1, 6), hidden=st.integers(1, 7),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-12, 1.0, 1e12]),
           lr=st.floats(0.0, 1.0), dropout=st.floats(0.0, 1.0, exclude_max=True))
    def test_roundtrip_bit_exact(self, tmp_path_factory, vocab, embed, hidden, seed,
                                 scale, lr, dropout):
        cfg = BiLstmConfig(vocab_size=vocab, embed_dim=embed, hidden=hidden,
                           learning_rate=lr, dropout_rate=dropout, seed=seed)
        model = random_model(cfg, seed, scale)
        tmp_path = tmp_path_factory.mktemp("seq")
        p1, p2 = tmp_path / "a.seq", tmp_path / "b.seq"
        save_model(model, p1)
        loaded = load_model(p1)
        save_model(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.config == cfg
        assert loaded.params.keys() == model.params.keys()
        for key in model.params:
            assert np.array_equal(loaded.params[key], model.params[key])
        seq = [0] * 3
        assert np.array_equal(distribution(model, seq), distribution(loaded, seq))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_roundtrip_keeps_every_bit(self, tmp_path_factory, data):
        cfg = BiLstmConfig(vocab_size=data.draw(st.integers(1, 6)),
                           embed_dim=data.draw(st.integers(1, 4)),
                           hidden=data.draw(st.integers(1, 4)))
        model = init_model(cfg)
        values = st.one_of(st.sampled_from(EDGE_FLOATS),
                           st.floats(allow_nan=False, allow_infinity=False))
        for key, value in model.params.items():
            drawn = data.draw(arrays(np.float64, value.shape, elements=values), key)
            # at least one edge value in every tensor
            drawn.flat[data.draw(st.integers(0, drawn.size - 1))] = \
                data.draw(st.sampled_from(EDGE_FLOATS))
            model.params[key] = drawn
        d = tmp_path_factory.mktemp("bits")
        save_model(model, d / "a.seq")
        loaded = load_model(d / "a.seq")
        assert loaded.config == cfg and loaded.params.keys() == model.params.keys()
        for key, value in model.params.items():
            assert loaded.params[key].dtype == np.float64
            assert np.array_equal(loaded.params[key].view(np.int64), value.view(np.int64)), key
        save_model(loaded, d / "b.seq")
        assert (d / "a.seq").read_bytes() == (d / "b.seq").read_bytes()

    def test_init_draws_as_the_pinned_v1_text(self):
        """init_model draws each gate's W and U block on its own, in the v1
        file's order, so trained weights do not move with the file format."""
        config = V1_TINY.splitlines()[1:15]
        assert [ln for ln in config if not ln.startswith("adam_")] == \
            _config_lines(V1_TINY_CONFIG)
        # the Adam settings the v1 and v2 files carried are now one constant
        assert [float(ln.split()[1]) for ln in config if ln.startswith("adam_")] == \
            list(seqmodel._ADAM)
        want = v1_params(V1_TINY)
        got = init_model(V1_TINY_CONFIG).params
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert np.array_equal(got[key].view(np.int64), value.view(np.int64)), key

    def test_roundtrip_keeps_the_pinned_distribution(self, tmp_path):
        path = tmp_path / "tiny.seq"
        save_model(init_model(V1_TINY_CONFIG), path)
        loaded = load_model(path)
        assert loaded.config == V1_TINY_CONFIG
        probs = distribution(loaded, V1_TINY_PREFIX)
        assert np.abs(probs - V1_TINY_PROBS).max() < 1e-12

    def test_header_is_text_and_names_each_fused_tensor(self, tmp_path):
        _, lines, payload = model_file(tmp_path)
        assert lines[0] == "apisentry-seqmodel v3"
        assert lines[12:] == ["tensor emb 6 2", "tensor fw.W 2 8", "tensor fw.U 2 8",
                              "tensor fw.b 8", "tensor bw.W 2 8", "tensor bw.U 2 8",
                              "tensor bw.b 8", "tensor dense.W 4 5", "tensor dense.b 5",
                              "payload 936"]
        assert len(payload) == 936


def _oversized(field, value):
    """The header of SMALL with `field` set to `value`, and tensor shapes and
    a payload size that agree with it."""
    cfg = replace(SMALL, **{field: value})
    shapes = seqmodel._param_shapes(cfg)
    return (["apisentry-seqmodel v3"] + _config_lines(cfg)
            + [f"tensor {key} " + " ".join(map(str, shape)) for key, shape in shapes.items()]
            + [f"payload {8 * sum(math.prod(shape) for shape in shapes.values())}"])


class TestBadModelFile:
    """A model file the tensors do not fit exits predict-next with 1 and a
    message that starts with the file's name."""

    def refused(self, path, capsys) -> str:
        assert cli.main(["predict-next", "--model", str(path), "--seq", "1,2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = f"apisentry: error: {path}: "
        assert captured.err.startswith(prefix), captured.err
        return captured.err[len(prefix):].strip()

    @pytest.mark.parametrize("cut", [1, 8, 936])
    def test_truncated_payload(self, tmp_path, capsys, cut):
        path, lines, payload = model_file(tmp_path)
        write_model_file(path, lines, payload[:-cut])
        assert self.refused(path, capsys) == \
            f"the payload holds {936 - cut} bytes, not 936"

    def test_payload_padded_by_one_byte(self, tmp_path, capsys):
        path, lines, payload = model_file(tmp_path)
        write_model_file(path, lines, payload + b"\0")
        assert self.refused(path, capsys) == "the payload holds 937 bytes, not 936"

    def test_shape_other_than_the_configs(self, tmp_path, capsys):
        path, lines, payload = model_file(tmp_path)
        lines[lines.index("tensor dense.W 4 5")] = "tensor dense.W 400000 5"
        write_model_file(path, lines, payload)
        assert self.refused(path, capsys) == \
            "line 20: tensor 'dense.W' has wrong shape (400000, 5)"

    @pytest.mark.parametrize("field, value", [
        ("vocab_size", 10**11), ("embed_dim", 10**11), ("hidden", 10**7)])
    def test_sizes_too_big_for_the_payload(self, tmp_path, capsys, field, value):
        """The header agrees with itself and claims terabytes: refused for
        the payload's size before a tensor is allocated."""
        path, _, payload = model_file(tmp_path)
        lines = _oversized(field, value)
        write_model_file(path, lines, payload)
        assert self.refused(path, capsys) == \
            f"the payload holds 936 bytes, not {lines[-1].split()[1]}"

    def test_oversized_header_allocates_nothing_of_its_claim(self, tmp_path):
        path, _, payload = model_file(tmp_path)
        write_model_file(path, _oversized("vocab_size", 10**11), payload)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="the payload holds 936 bytes"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", list(seqmodel._param_shapes(SMALL)))
    def test_non_finite_value_is_refused(self, tmp_path, capsys, value, key):
        path, lines, payload = model_file(tmp_path)
        shapes = seqmodel._param_shapes(SMALL)
        keys = list(shapes)
        at = 8 * sum(math.prod(shapes[k]) for k in keys[:keys.index(key)])
        write_model_file(path, lines, payload[:at] + np.float64(value).tobytes()
                         + payload[at + 8:])
        assert self.refused(path, capsys) == f"tensor {key!r} holds a number that is not finite"

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_an_older_file_is_not_read(self, tmp_path, capsys, version):
        """v2 is v3 with the three Adam settings as config lines."""
        path, lines, payload = model_file(tmp_path)
        if version == "v1":
            path.write_text(V1_TINY)
        else:
            at = lines.index("learning_rate 0.01") + 1
            lines[at:at] = ["adam_beta1 0.90000000000000002", "adam_beta2 0.999",
                            "adam_eps 1e-08"]
            write_model_file(path, ["apisentry-seqmodel v2"] + lines[1:], payload)
        assert self.refused(path, capsys) == "line 1: not an 'apisentry-seqmodel v3' file"

    def test_curves_csv(self, tmp_path):
        from apisentry.seqmodel import TrainReport

        report = TrainReport(train_loss=[1.5, 1.0], val_loss=[1.6, 1.2])
        path = tmp_path / "curves.csv"
        save_curves(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1].startswith("1,1.5")
        assert len(lines) == 3
