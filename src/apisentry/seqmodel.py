"""Bidirectional LSTM next-call predictor.

Architecture: embedding -> dropout -> one forward and one backward LSTM
pass -> concatenation of the two final hidden states -> dense softmax over
the call vocabulary. Training minimizes categorical cross-entropy with Adam
and stops early on stalled validation loss. Everything is plain numpy with
hand-written backpropagation through time, so runs are bit-reproducible
under a fixed seed.

Sequences are left-padded with the reserved id ``vocab_size``; padded
positions are skipped by carrying the recurrent state through them, so
prepending extra padding never changes the output.

One cell function serves ``lstm_cell`` and the scan, and hands the scan the
gate activations BPTT reuses. One batching helper clips, pads and chunks
samples for the loss, the gradients, the accuracy and the distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ngrams import PrefixSample, _fmt, _sigmoid
from .seeding import derive_seed


@dataclass(frozen=True)
class BiLstmConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden: int = 150
    dropout_rate: float = 0.3
    learning_rate: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 128
    max_epochs: int = 50
    patience: int = 3
    val_fraction: float = 0.1
    max_prefix_len: int = 99
    seed: int = 42

    def __post_init__(self) -> None:
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0,1)")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0,1)")
        if self.patience < 1 or self.max_epochs < 1 or self.batch_size < 1:
            raise ValueError("patience, max_epochs and batch_size must be >= 1")

    @property
    def pad_id(self) -> int:
        return self.vocab_size


_GATES = ("i", "f", "o", "g")


def _param_keys(cfg: BiLstmConfig) -> list[str]:
    keys = ["emb"]
    for d in ("fw", "bw"):
        for gate in _GATES:
            keys += [f"{d}.W_{gate}", f"{d}.U_{gate}", f"{d}.b_{gate}"]
    keys += ["dense.W", "dense.b"]
    return keys


def _param_shape(key: str, cfg: BiLstmConfig) -> tuple[int, ...]:
    v, e, h = cfg.vocab_size, cfg.embed_dim, cfg.hidden
    if key == "emb":
        return (v + 1, e)
    if key == "dense.W":
        return (2 * h, v)
    if key == "dense.b":
        return (v,)
    kind = key.split(".")[1][0]
    if kind == "W":
        return (e, h)
    if kind == "U":
        return (h, h)
    return (h,)


@dataclass
class BiLstmModel:
    params: dict[str, np.ndarray]
    config: BiLstmConfig

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


@dataclass
class TrainReport:
    train_loss: list[float]
    val_loss: list[float]
    stopped_epoch: int
    best_epoch: int


def init_model(config: BiLstmConfig, seed: int | None = None) -> BiLstmModel:
    """Glorot-uniform weights, forget-gate biases 1, other biases 0, and a
    zeroed embedding row for the padding id."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    params: dict[str, np.ndarray] = {}
    for key in _param_keys(config):
        shape = _param_shape(key, config)
        if key.endswith(".b") or ".b_" in key:
            fill = 1.0 if key.endswith(".b_f") else 0.0
            params[key] = np.full(shape, fill)
            continue
        bound = math.sqrt(6.0 / (shape[0] + shape[1]))
        params[key] = rng.uniform(-bound, bound, size=shape)
    params["emb"][config.pad_id, :] = 0.0
    return BiLstmModel(params=params, config=config)


def init_adam(model: BiLstmModel) -> AdamState:
    zeros = {k: np.zeros_like(v) for k, v in model.params.items()}
    return AdamState(m=zeros, v={k: np.zeros_like(p) for k, p in model.params.items()})


def _cell_step(x, h, c, cell: dict[str, np.ndarray]):
    """The LSTM cell; returns h', c' and the activations BPTT needs. The
    three sigmoid gates share one call, as at batch size 1 the per-call
    cost outweighs the arithmetic."""
    i, f, o = _sigmoid(np.array([x @ cell["W_i"] + h @ cell["U_i"] + cell["b_i"],
                                 x @ cell["W_f"] + h @ cell["U_f"] + cell["b_f"],
                                 x @ cell["W_o"] + h @ cell["U_o"] + cell["b_o"]]))
    g = np.tanh(x @ cell["W_g"] + h @ cell["U_g"] + cell["b_g"])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, {"i": i, "f": f, "o": o, "g": g, "tanh_c": tanh_c}


def lstm_cell(x, h, c, cell: dict[str, np.ndarray]):
    """One step of the standard LSTM cell.

    Gates i, f, o are sigmoid(x W + h U + b); the candidate g is the same
    pre-activation through tanh; then c' = f*c + i*g and h' = o*tanh(c').
    Accepts single vectors or batches (leading batch axis).
    """
    h_new, c_new, _ = _cell_step(x, h, c, cell)
    return h_new, c_new


def _cell_params(params: dict[str, np.ndarray], direction: str) -> dict[str, np.ndarray]:
    return {f"{m}_{gate}": params[f"{direction}.{m}_{gate}"]
            for m in ("W", "U", "b") for gate in _GATES}


def _validate_ids(ids: np.ndarray, cfg: BiLstmConfig) -> np.ndarray:
    if ids.size == 0:
        raise ValueError("empty sequence")
    if ids.min() < 0 or ids.max() > cfg.pad_id:
        raise ValueError("call id out of range")
    mask = ids != cfg.pad_id
    if not mask.any(axis=1).all():
        raise ValueError("all-pad input")
    # pads are only allowed as a left prefix
    started = np.maximum.accumulate(mask, axis=1)
    if np.any(started & ~mask):
        raise ValueError("padding may only appear as a left prefix")
    return mask


def _scan(params, direction, X, mask, reverse: bool):
    """Run one direction over the batch, carrying state through padded
    positions; returns the final state and the per-step cache for BPTT."""
    B, T, _ = X.shape
    H = params[f"{direction}.b_i"].shape[0]
    cell = _cell_params(params, direction)
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    times = range(T - 1, -1, -1) if reverse else range(T)
    steps = []
    for t in times:
        h_new, c_new, acts = _cell_step(X[:, t], h, c, cell)
        m = mask[:, t][:, None]
        steps.append({"t": t, "h_prev": h, "c_prev": c, "m": m, **acts})
        h = np.where(m, h_new, h)
        c = np.where(m, c_new, c)
    return h, steps


def _scan_backward(params, direction, steps, X, d_final_h, dX, grads):
    """Backpropagate one direction; accumulates into grads and dX."""
    cell = _cell_params(params, direction)
    dh = d_final_h
    dc = np.zeros_like(dh)
    for step in reversed(steps):
        m = step["m"]
        t = step["t"]
        dh_new = dh * m
        dc_new = dc * m
        dh_pass = dh * (1.0 - m)
        dc_pass = dc * (1.0 - m)
        o, i, f, g = step["o"], step["i"], step["f"], step["g"]
        tanh_c = step["tanh_c"]
        do = dh_new * tanh_c
        dc_new = dc_new + dh_new * o * (1.0 - tanh_c ** 2)
        df = dc_new * step["c_prev"]
        di = dc_new * g
        dg = dc_new * i
        dc_prev = dc_new * f
        da = {
            "i": di * i * (1.0 - i),
            "f": df * f * (1.0 - f),
            "o": do * o * (1.0 - o),
            "g": dg * (1.0 - g ** 2),
        }
        x = X[:, t]
        h_prev = step["h_prev"]
        dx = np.zeros_like(x)
        dh_prev = dh_pass
        for gate in _GATES:
            a = da[gate]
            grads[f"{direction}.W_{gate}"] += x.T @ a
            grads[f"{direction}.U_{gate}"] += h_prev.T @ a
            grads[f"{direction}.b_{gate}"] += a.sum(axis=0)
            dx += a @ cell[f"W_{gate}"].T
            dh_prev = dh_prev + a @ cell[f"U_{gate}"].T
        dX[:, t] += dx
        dh = dh_prev
        dc = dc_prev + dc_pass


def _forward_batch(model: BiLstmModel, ids: np.ndarray, train: bool,
                   dropout_seed: int | None, want_cache: bool):
    cfg = model.config
    mask = _validate_ids(ids, cfg)
    params = model.params
    X = params["emb"][ids]
    drop = None
    if train and cfg.dropout_rate > 0.0:
        rng = np.random.default_rng(dropout_seed)
        keep = 1.0 - cfg.dropout_rate
        drop = (rng.random(X.shape) < keep).astype(np.float64) / keep
        X = X * drop
    h_f, steps_f = _scan(params, "fw", X, mask, reverse=False)
    h_b, steps_b = _scan(params, "bw", X, mask, reverse=True)
    feat = np.concatenate([h_f, h_b], axis=1)
    logits = feat @ params["dense.W"] + params["dense.b"]
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    norm = exp.sum(axis=1, keepdims=True)
    probs = exp / norm
    if not want_cache:
        return probs, None
    log_probs = shift - np.log(norm)
    cache = {"ids": ids, "X": X, "drop": drop, "steps_f": steps_f,
             "steps_b": steps_b, "feat": feat, "probs": probs,
             "log_probs": log_probs}
    return probs, cache


def forward(model: BiLstmModel, prefix, train: bool = False,
            dropout_seed: int | None = None) -> np.ndarray:
    """Probability distribution over the next call for one (possibly
    left-padded) prefix."""
    ids = np.asarray(list(prefix), dtype=np.int64).reshape(1, -1)
    probs, _ = _forward_batch(model, ids, train, dropout_seed, want_cache=False)
    return probs[0]


def _as_pairs(samples) -> list[tuple[tuple[int, ...], int]]:
    pairs = []
    for s in samples:
        if isinstance(s, PrefixSample):
            pairs.append((tuple(s.prefix), int(s.next)))
        else:
            prefix, nxt = s
            pairs.append((tuple(prefix), int(nxt)))
    return pairs


def _batches(pairs, cfg: BiLstmConfig, size: int):
    """Yield (ids, targets) per `size` pairs, each prefix clipped to its last
    max_prefix_len calls and left-padded to the batch's longest."""
    for start in range(0, len(pairs), size):
        part = pairs[start:start + size]
        prefixes = [p[-cfg.max_prefix_len:] for p, _ in part]
        ids = np.full((len(part), max(map(len, prefixes))), cfg.pad_id, dtype=np.int64)
        for r, p in enumerate(prefixes):
            ids[r, ids.shape[1] - len(p):] = p
        yield ids, np.array([y for _, y in part], dtype=np.int64)


def batch_loss(model: BiLstmModel, samples, train: bool = False,
               dropout_seed: int | None = None) -> float:
    """Mean categorical cross-entropy of the true next call over a batch."""
    pairs = _as_pairs(samples)
    if not pairs:
        raise ValueError("empty batch")
    total = 0.0
    for ids, targets in _batches(pairs, model.config, model.config.batch_size):
        _, cache = _forward_batch(model, ids, train, dropout_seed, want_cache=True)
        total += float(-cache["log_probs"][np.arange(len(targets)), targets].sum())
    return total / len(pairs)


def loss_and_grads(model: BiLstmModel, samples, train: bool = True,
                   dropout_seed: int | None = None):
    """Exact loss and gradients for one batch via backpropagation through
    time across both directions, the embedding, dropout and the softmax."""
    pairs = _as_pairs(samples)
    cfg = model.config
    [(ids, targets)] = _batches(pairs, cfg, max(1, len(pairs)))
    _, cache = _forward_batch(model, ids, train, dropout_seed, want_cache=True)
    B = len(pairs)
    loss = float(-cache["log_probs"][np.arange(B), targets].sum() / B)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss}")

    params = model.params
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dlogits = cache["probs"].copy()
    dlogits[np.arange(B), targets] -= 1.0
    dlogits /= B
    grads["dense.W"] += cache["feat"].T @ dlogits
    grads["dense.b"] += dlogits.sum(axis=0)
    dfeat = dlogits @ params["dense.W"].T
    H = cfg.hidden
    X = cache["X"]
    dX = np.zeros_like(X)
    _scan_backward(params, "fw", cache["steps_f"], X, dfeat[:, :H], dX, grads)
    _scan_backward(params, "bw", cache["steps_b"], X, dfeat[:, H:], dX, grads)
    if cache["drop"] is not None:
        dX = dX * cache["drop"]
    np.add.at(grads["emb"], ids, dX)
    return loss, grads


def apply_adam(model: BiLstmModel, state: AdamState, grads) -> None:
    cfg = model.config
    state.t += 1
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    corr1 = 1.0 - b1 ** state.t
    corr2 = 1.0 - b2 ** state.t
    for key in _param_keys(cfg):
        g = grads[key]
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * g * g
        m_hat = state.m[key] / corr1
        v_hat = state.v[key] / corr2
        model.params[key] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)


def train_step(model: BiLstmModel, state: AdamState, samples,
               dropout_seed: int | None = None) -> float:
    """One Adam step on a batch; mutates the model and optimizer state."""
    loss, grads = loss_and_grads(model, samples, train=True,
                                 dropout_seed=dropout_seed)
    apply_adam(model, state, grads)
    return loss


def train(samples, config: BiLstmConfig) -> tuple[BiLstmModel, TrainReport]:
    """Train with per-epoch shuffling and early stopping.

    Stops once validation loss has failed to improve for ``patience``
    consecutive epochs (or at max_epochs) and returns the parameters from
    the best epoch.
    """
    pairs = _as_pairs(samples)
    if len(pairs) < 2:
        raise ValueError("need at least 2 samples to train")
    n_val = int(math.floor(len(pairs) * config.val_fraction + 0.5))
    if n_val < 1 or n_val >= len(pairs):
        raise ValueError(
            f"val_fraction={config.val_fraction} gives a degenerate validation "
            f"split for {len(pairs)} samples")
    split_rng = np.random.default_rng(derive_seed(config.seed, "val-split"))
    order = split_rng.permutation(len(pairs))
    val = [pairs[i] for i in order[:n_val]]
    train_set = [pairs[i] for i in order[n_val:]]

    model = init_model(config, seed=derive_seed(config.seed, "init"))
    state = init_adam(model)
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(config.seed, "dropout"))

    train_curve: list[float] = []
    val_curve: list[float] = []
    best_loss = math.inf
    best_epoch = 0
    best_params = model.copy_params()
    stale = 0
    stopped = 0
    for epoch in range(1, config.max_epochs + 1):
        perm = shuffle_rng.permutation(len(train_set))
        total = 0.0
        for start in range(0, len(train_set), config.batch_size):
            batch = [train_set[i] for i in perm[start:start + config.batch_size]]
            seed = int(dropout_rng.integers(0, 1 << 63))
            total += train_step(model, state, batch, dropout_seed=seed) * len(batch)
        train_curve.append(total / len(train_set))
        val_curve.append(batch_loss(model, val))
        stopped = epoch
        if val_curve[-1] < best_loss:
            best_loss = val_curve[-1]
            best_epoch = epoch
            best_params = model.copy_params()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.params = best_params
    report = TrainReport(train_loss=train_curve, val_loss=val_curve,
                         stopped_epoch=stopped, best_epoch=best_epoch)
    return model, report


def predict_next(model: BiLstmModel, sequence) -> tuple[int, np.ndarray]:
    """Most likely next call id and the full distribution; ties go to the
    lowest id. Sequences longer than max_prefix_len keep their tail."""
    seq = [int(c) for c in sequence]
    if not seq:
        raise ValueError("empty sequence")
    seq = seq[-model.config.max_prefix_len:]
    probs = forward(model, seq)
    return int(np.argmax(probs)), probs


def predict_next_k(model: BiLstmModel, sequence, k: int) -> list[int]:
    """Greedy autoregressive decoding: each prediction is appended to the
    input before predicting the next one."""
    if k < 1:
        raise ValueError("k must be >= 1")
    seq = [int(c) for c in sequence]
    out: list[int] = []
    for _ in range(k):
        nxt, _ = predict_next(model, seq)
        out.append(nxt)
        seq.append(nxt)
    return out


def next_call_accuracy(model: BiLstmModel, samples) -> float:
    """Fraction of samples whose argmax prediction matches the true next call."""
    pairs = _as_pairs(samples)
    if not pairs:
        raise ValueError("empty sample set")
    hits = 0
    for ids, targets in _batches(pairs, model.config, model.config.batch_size):
        probs, _ = _forward_batch(model, ids, False, None, want_cache=False)
        hits += int((probs.argmax(axis=1) == targets).sum())
    return hits / len(pairs)


def predict_distributions(model: BiLstmModel, samples) -> np.ndarray:
    """Per-sample next-call distributions, one row per sample."""
    pairs = _as_pairs(samples)
    return np.concatenate([
        _forward_batch(model, ids, False, None, want_cache=False)[0]
        for ids, _ in _batches(pairs, model.config, model.config.batch_size)])


# --- persistence -------------------------------------------------------------

_FORMAT_TAG = "apisentry-seqmodel v1"

_CONFIG_FIELDS = [
    ("vocab_size", int), ("embed_dim", int), ("hidden", int),
    ("dropout_rate", float), ("learning_rate", float),
    ("adam_beta1", float), ("adam_beta2", float), ("adam_eps", float),
    ("batch_size", int), ("max_epochs", int), ("patience", int),
    ("val_fraction", float), ("max_prefix_len", int), ("seed", int),
]


def save_model(model: BiLstmModel, path: str | Path) -> None:
    cfg = model.config
    lines = [_FORMAT_TAG]
    for name, kind in _CONFIG_FIELDS:
        value = getattr(cfg, name)
        lines.append(f"{name} {value if kind is int else _fmt(value)}")
    for key in _param_keys(cfg):
        tensor = model.params[key]
        dims = " ".join(str(d) for d in tensor.shape)
        lines.append(f"tensor {key} {dims}")
        for row in tensor.reshape(1, -1) if tensor.ndim == 1 else tensor:
            lines.append(" ".join(_fmt(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> BiLstmModel:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != _FORMAT_TAG:
        raise ValueError(f"{path}: not a sequence model file")
    pos = 1
    kwargs = {}
    for name, kind in _CONFIG_FIELDS:
        key, value = lines[pos].split(" ", 1)
        if key != name:
            raise ValueError(f"{path}: expected config field {name!r}, got {key!r}")
        kwargs[name] = kind(value)
        pos += 1
    cfg = BiLstmConfig(**kwargs)
    params: dict[str, np.ndarray] = {}
    for key in _param_keys(cfg):
        header = lines[pos].split()
        if header[0] != "tensor" or header[1] != key:
            raise ValueError(f"{path}: expected tensor {key!r}, got {lines[pos]!r}")
        shape = tuple(int(d) for d in header[2:])
        pos += 1
        n_rows = shape[0] if len(shape) > 1 else 1
        rows = []
        for _ in range(n_rows):
            rows.append(np.array(lines[pos].split(), dtype=np.float64))
            pos += 1
        params[key] = np.vstack(rows).reshape(shape)
        if params[key].shape != _param_shape(key, cfg):
            raise ValueError(f"{path}: tensor {key!r} has wrong shape {shape}")
    return BiLstmModel(params=params, config=cfg)


def save_curves(report: TrainReport, path: str | Path) -> None:
    lines = ["epoch,train_loss,val_loss"]
    for i, (tr, vl) in enumerate(zip(report.train_loss, report.val_loss), start=1):
        lines.append(f"{i},{_fmt(tr)},{_fmt(vl)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
