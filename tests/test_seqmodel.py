import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apisentry import seqmodel
from apisentry.ngrams import PrefixSample
from apisentry.seeding import derive_seed
from apisentry.seqmodel import (
    BiLstmConfig,
    _cell_step as cell_step,
    _greedy,
    batch_loss,
    forward,
    init_adam,
    init_model,
    load_model,
    loss_and_grads,
    lstm_cell,
    next_call_accuracy,
    predict_next,
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
        ("learning_rate", -0.5), ("learning_rate", math.nan), ("adam_beta1", 1.0),
        ("adam_beta2", -0.1), ("adam_eps", 0.0), ("adam_eps", math.nan),
        ("learning_rate", math.inf), ("adam_eps", math.inf),
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
        h, c = lstm_cell(np.zeros(3), np.zeros(4), np.zeros(4), cell)
        assert (h == 0).all() and (c == 0).all()

    def test_all_zero_parameters_carried_cell(self):
        cell = zero_cell(3, 4)
        v = np.array([1.0, -2.0, 0.5, 3.0])
        h, c = lstm_cell(np.zeros(3), np.zeros(4), v, cell)
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
            got_h, got_c = lstm_cell(x, h, c, cell)
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
            probs = forward(model, prefix)
            assert probs.shape == (cfg.vocab_size,)
            assert (probs >= 0).all()
            assert abs(probs.sum() - 1.0) < 1e-6

    def test_dropout_zero_equals_infer(self):
        model = init_model(TINY)
        probs_train = forward(model, [1, 2, 3], train=True, dropout_seed=5)
        probs_infer = forward(model, [1, 2, 3])
        assert np.allclose(probs_train, probs_infer, atol=0)

    def test_zero_dense_gives_uniform(self):
        model = init_model(TINY)
        model.params["dense.W"][:] = 0
        model.params["dense.b"][:] = 0
        probs = forward(model, [1, 2])
        assert np.allclose(probs, 1.0 / TINY.vocab_size, atol=1e-15)

    def test_all_pad_rejected(self):
        model = init_model(TINY)
        with pytest.raises(ValueError, match="all-pad"):
            forward(model, [TINY.pad_id, TINY.pad_id])

    def test_pad_only_as_left_prefix(self):
        model = init_model(TINY)
        with pytest.raises(ValueError, match="left prefix"):
            forward(model, [1, TINY.pad_id, 2])

    @settings(max_examples=60, deadline=None)
    @given(vocab=st.integers(2, 8), embed=st.integers(1, 4), hidden=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_pad_neutrality(self, vocab, embed, hidden, seed, data):
        cfg = BiLstmConfig(vocab_size=vocab, embed_dim=embed, hidden=hidden,
                           dropout_rate=0.0, max_prefix_len=12)
        model = random_model(cfg, seed)
        prefix = data.draw(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=6))
        pads = [cfg.pad_id] * data.draw(st.integers(0, 5))
        assert np.array_equal(forward(model, pads + prefix), forward(model, prefix))

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
        assert np.allclose(forward(model, seq), forward(swapped, seq[::-1]), atol=1e-12)


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

    @pytest.mark.parametrize("fn", [batch_loss, loss_and_grads, next_call_accuracy,
                                    predict_distributions])
    def test_no_samples_is_refused_alike(self, fn):
        with pytest.raises(ValueError, match="^no samples$"):
            fn(init_model(TINY), iter([]))

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
    returns the worst relative error over every parameter tensor."""
    model = init_model(cfg)
    train_mode = cfg.dropout_rate > 0
    _, grads = loss_and_grads(model, samples, train=train_mode,
                              dropout_seed=dropout_seed)
    eps = 1e-4
    worst = 0.0
    for key in model.params:
        tensor = model.params[key]
        flat = tensor.reshape(-1)
        for idx in range(flat.size):
            keep = flat[idx]
            flat[idx] = keep + eps
            up = batch_loss(model, samples, train=train_mode,
                            dropout_seed=dropout_seed)
            flat[idx] = keep - eps
            down = batch_loss(model, samples, train=train_mode,
                              dropout_seed=dropout_seed)
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
        assert report.stopped_epoch == 2
        assert report.best_epoch == 1

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
        assert report.best_epoch == 1 + int(np.argmin(report.val_loss))
        # rebuild the validation set exactly as train() carved it
        pairs = [(tuple(s.prefix), s.next) for s in samples]
        rng = np.random.default_rng(derive_seed(cfg.seed, "val-split"))
        order = rng.permutation(len(pairs))
        n_val = int(math.floor(len(pairs) * cfg.val_fraction + 0.5))
        val = [pairs[i] for i in order[:n_val]]
        assert batch_loss(model, val) == pytest.approx(
            report.val_loss[report.best_epoch - 1], abs=1e-9)

    def test_learns_cycle(self):
        cfg = BiLstmConfig(vocab_size=5, embed_dim=8, hidden=16, dropout_rate=0.0,
                           max_epochs=12, patience=12, val_fraction=0.1,
                           max_prefix_len=15, batch_size=32, seed=42)
        model, _ = train(cyclic_samples(40), cfg)
        assert next_call_accuracy(model, cyclic_samples(10, seed=9)) >= 0.99
        assert predict_next(model, [1, 2, 3, 1, 2])[0] == 3
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
                   lambda: batch_loss(model, samples),
                   lambda: next_call_accuracy(model, samples)):
            assert self.traced_peak(fn) < self.B * gate_bytes / 4
        assert self.traced_peak(lambda: forward(model, samples[0][0])) < gate_bytes

    def test_plain_pairs_and_samples_agree(self):
        model = init_model(TINY)
        pairs = [(list(s.prefix), s.next) for s in tiny_batch()]
        assert batch_loss(model, pairs) == batch_loss(model, tiny_batch())
        assert np.array_equal(predict_distributions(model, iter(pairs)),
                              predict_distributions(model, tiny_batch()))


class TestPredict:
    def test_uniform_ties_break_to_lowest_id(self):
        model = init_model(TINY)
        model.params["dense.W"][:] = 0
        model.params["dense.b"][:] = 0
        nxt, dist = predict_next(model, [2, 3, 4])
        assert nxt == 0
        assert int(np.argmax(dist)) == nxt

    def test_k_one_equals_predict_next(self):
        model = init_model(TINY)
        assert predict_next_k(model, [1, 2], 1) == [predict_next(model, [1, 2])[0]]

    def test_output_length(self):
        model = init_model(TINY)
        assert len(predict_next_k(model, [1], 7)) == 7

    def test_empty_sequence_rejected(self):
        model = init_model(TINY)
        with pytest.raises(ValueError, match="empty"):
            predict_next(model, [])

    def test_long_input_keeps_tail(self):
        model = init_model(TINY)
        rng = np.random.default_rng(1)
        seq = [int(v) for v in rng.integers(0, 7, size=50)]
        got, _ = predict_next(model, seq)
        tail, _ = predict_next(model, seq[-TINY.max_prefix_len:])
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
        decoded = predict_next_k(model, seq, k)
        carried = [probs for _, probs in islice(_greedy(model, seq), k)]
        for j in range(k):
            grown = seq + decoded[:j]
            nxt, probs = predict_next(model, grown)
            assert decoded[j] == nxt
            assert np.array_equal(carried[j], probs)
            assert np.array_equal(carried[j], forward(model, grown[-window:]))

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


# The v1 text of init_model(V1_TINY_CONFIG) and that model's distribution
# for V1_TINY_PREFIX (one left pad, then 1, 3, 0, 2), both written by the
# implementation that kept each gate's W, U and b as separate parameters.
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
        assert np.array_equal(forward(model, seq), forward(loaded, seq))

    def test_v1_text_is_pinned(self, tmp_path):
        path = tmp_path / "tiny.seq"
        save_model(init_model(V1_TINY_CONFIG), path)
        assert path.read_text() == V1_TINY
        again = tmp_path / "again.seq"
        loaded = load_model(path)
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        probs = forward(loaded, V1_TINY_PREFIX)
        assert np.abs(probs - V1_TINY_PROBS).max() < 1e-12

    def test_curves_csv(self, tmp_path):
        from apisentry.seqmodel import TrainReport

        report = TrainReport(train_loss=[1.5, 1.0], val_loss=[1.6, 1.2],
                             stopped_epoch=2, best_epoch=2)
        path = tmp_path / "curves.csv"
        save_curves(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1].startswith("1,1.5")
        assert len(lines) == 3
