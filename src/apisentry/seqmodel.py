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

Each direction holds three tensors, with the blocks of the gates i, f, o
and g side by side in that order: ``W`` (E,4H), ``U`` (H,4H) and ``b``
(4H,). A cell step is then two matmuls, and BPTT builds one (B,4H)
gradient per step. The v1 model file stores each gate's W, U and b as a
separate tensor; each is a column block of a fused tensor, which
``save_model`` writes out and ``load_model`` fills in. One key list,
``_v1_tensors``, drives initialisation, saving and loading.

One cell function serves ``lstm_cell`` and the scan, and hands the scan the
gate activations BPTT reuses. ``_forward_batch`` is the one forward pass:
validation, embedding, both scans and the softmax. ``_batches`` alone turns
samples into arrays and refuses bad ones; ``_evaluate`` is the one loop over
it, which the loss, the accuracy and the distributions reduce. Greedy
decoding hands the pass the forward (h, c) of the previous step, so each
decoded call costs one forward cell step until the window slides past
max_prefix_len; the backward direction is rescanned each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .corpus import _LineReader
from .ngrams import _config_lines, _fmt, _read_config, _sigmoid
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
        for name in ("vocab_size", "embed_dim", "hidden", "batch_size", "max_epochs",
                     "patience", "max_prefix_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("dropout_rate", "adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0,1)")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0,1)")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be >= 0 and finite")
        if not 0.0 < self.adam_eps < math.inf:
            raise ValueError("adam_eps must be > 0 and finite")

    @property
    def pad_id(self) -> int:
        return self.vocab_size


_GATES = ("i", "f", "o", "g")


def _param_shapes(cfg: BiLstmConfig) -> dict[str, tuple[int, ...]]:
    v, e, h = cfg.vocab_size, cfg.embed_dim, cfg.hidden
    shapes = {"emb": (v + 1, e)}
    for d in ("fw", "bw"):
        shapes |= {f"{d}.W": (e, 4 * h), f"{d}.U": (h, 4 * h), f"{d}.b": (4 * h,)}
    return shapes | {"dense.W": (2 * h, v), "dense.b": (v,)}


def _v1_tensors(cfg: BiLstmConfig) -> list[tuple[str, str, slice]]:
    """The tensors of the v1 file in file order, as (file key, parameter
    key, columns): a gate's W, U and b are its column block of the fused
    parameter, and the other tensors are whole."""
    h = cfg.hidden
    whole = slice(None)
    out = [("emb", "emb", whole)]
    for d in ("fw", "bw"):
        for k, gate in enumerate(_GATES):
            out += [(f"{d}.{m}_{gate}", f"{d}.{m}", slice(k * h, (k + 1) * h)) for m in "WUb"]
    return out + [("dense.W", "dense.W", whole), ("dense.b", "dense.b", whole)]


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
    zeroed embedding row for the padding id. Each gate block is drawn on
    its own with its own bound, in v1 file order."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    params = {key: np.zeros(shape) for key, shape in _param_shapes(config).items()}
    for name, key, cols in _v1_tensors(config):
        block = params[key][..., cols]
        if block.ndim == 2:
            bound = math.sqrt(6.0 / (block.shape[0] + block.shape[1]))
            block[...] = rng.uniform(-bound, bound, size=block.shape)
        elif name.endswith(".b_f"):
            block[...] = 1.0
    params["emb"][config.pad_id, :] = 0.0
    return BiLstmModel(params=params, config=config)


def init_adam(model: BiLstmModel) -> AdamState:
    zeros = {k: np.zeros_like(v) for k, v in model.params.items()}
    return AdamState(m=zeros, v={k: np.zeros_like(p) for k, p in model.params.items()})


def _gates(acts: np.ndarray, h: int) -> list[np.ndarray]:
    """Views of the i, f, o and g blocks of (..., 4H) gate activations."""
    return [acts[..., k * h:(k + 1) * h] for k in range(4)]


def _cell_step(x, h, c, cell: dict[str, np.ndarray]):
    """The LSTM cell; returns h', c', the (..., 4H) gate activations and
    tanh(c'), which BPTT reuses. The pre-activation is summed and activated
    in place in one array: each further (B,4H) temporary raises the
    process's peak memory at paper shapes."""
    acts = x @ cell["W"]
    acts += h @ cell["U"]
    acts += cell["b"]
    n = 3 * h.shape[-1]
    acts[..., :n] = _sigmoid(acts[..., :n])
    np.tanh(acts[..., n:], out=acts[..., n:])
    i, f, o, g = _gates(acts, h.shape[-1])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, acts, tanh_c


def lstm_cell(x, h, c, cell: dict[str, np.ndarray]):
    """One step of the standard LSTM cell.

    ``cell`` holds one direction's fused weights: ``W`` (E,4H), ``U``
    (H,4H) and ``b`` (4H,), each with the gate blocks i, f, o, g side by
    side. With a = x W + h U + b cut into those blocks, gates i, f, o are
    sigmoid(a) and the candidate g is tanh(a); then c' = f*c + i*g and
    h' = o*tanh(c'). Accepts single vectors or batches (leading batch axis).
    """
    h_new, c_new, _, _ = _cell_step(x, h, c, cell)
    return h_new, c_new


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


def _scan(params, direction, X, mask, reverse: bool, keep_steps: bool, state=None):
    """Run one direction over the batch from `state`, an (h, c) pair or zeros,
    carrying state through padded positions; returns the final (h, c) and,
    if keep_steps, the per-step cache for BPTT (else an empty list)."""
    B, T, _ = X.shape
    cell = {m: params[f"{direction}.{m}"] for m in "WUb"}
    h, c = state or (np.zeros((B, cell["U"].shape[0])),) * 2
    times = range(T - 1, -1, -1) if reverse else range(T)
    steps = []
    for t in times:
        h_new, c_new, acts, tanh_c = _cell_step(X[:, t], h, c, cell)
        m = mask[:, t][:, None]
        if keep_steps:
            steps.append((t, h, c, m, acts, tanh_c))
        h = np.where(m, h_new, h)
        c = np.where(m, c_new, c)
    return (h, c), steps


def _scan_backward(params, direction, steps, X, d_final_h, dX, grads):
    """Backpropagate one direction; accumulates into grads and dX. Each
    step builds da, the (B,4H) gradient of the gate pre-activations, in
    the gate order of the fused weights."""
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
        x = X[:, t]
        gW += x.T @ da
        gU += h_prev.T @ da
        gb += da.sum(axis=0)
        dX[:, t] += da @ W.T
        dh = dh * (1.0 - m) + da @ U.T
        dc = dc_new * f + dc * (1.0 - m)


def _forward_batch(model: BiLstmModel, ids: np.ndarray, train: bool,
                   dropout_seed: int | None, want_cache: bool, state=None):
    """Next-call probabilities and log-probabilities of a batch, the BPTT
    cache if want_cache (else None; only the cache holds every step) and the
    forward direction's final (h, c). A carried `state`, that (h, c) after
    every column but the last, is extended over the last column alone."""
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
    new = slice(None) if state is None else slice(-1, None)
    state, steps_f = _scan(params, "fw", X[:, new], mask[:, new], False, want_cache, state)
    (h_b, _), steps_b = _scan(params, "bw", X, mask, reverse=True, keep_steps=want_cache)
    feat = np.concatenate([state[0], h_b], axis=1)
    logits = feat @ params["dense.W"] + params["dense.b"]
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    norm = exp.sum(axis=1, keepdims=True)
    cache = {"X": X, "drop": drop, "steps_f": steps_f, "steps_b": steps_b, "feat": feat}
    return exp / norm, shift - np.log(norm), cache if want_cache else None, state


def forward(model: BiLstmModel, prefix, train: bool = False,
            dropout_seed: int | None = None) -> np.ndarray:
    """Probability distribution over the next call for one (possibly
    left-padded) prefix."""
    ids = np.asarray(list(prefix), dtype=np.int64).reshape(1, -1)
    return _forward_batch(model, ids, train, dropout_seed, want_cache=False)[0][0]


def _batches(samples, cfg: BiLstmConfig, size: int | None):
    """Yield (ids, targets) per `size` (prefix, next) pairs, such as
    PrefixSample, or one batch of all if size is None, each prefix clipped
    to its last max_prefix_len calls and left-padded to the batch's longest."""
    pairs = list(samples)
    if not pairs:
        raise ValueError("no samples")
    size = size or len(pairs)
    for start in range(0, len(pairs), size):
        part = pairs[start:start + size]
        targets = np.array([y for _, y in part], dtype=np.int64)
        bad = (targets < 0) | (targets >= cfg.vocab_size)
        if bad.any():
            raise ValueError(f"next call id {targets[bad][0]} is outside [0, {cfg.vocab_size})")
        prefixes = [p[-cfg.max_prefix_len:] for p, _ in part]
        ids = np.full((len(part), max(map(len, prefixes))), cfg.pad_id, dtype=np.int64)
        for r, p in enumerate(prefixes):
            ids[r, ids.shape[1] - len(p):] = p
        yield ids, targets


def _evaluate(model: BiLstmModel, samples, train: bool = False,
              dropout_seed: int | None = None):
    """The one evaluation loop: (probs, log_probs, targets) per batch."""
    for ids, targets in _batches(samples, model.config, model.config.batch_size):
        yield *_forward_batch(model, ids, train, dropout_seed, want_cache=False)[:2], targets


def batch_loss(model: BiLstmModel, samples, train: bool = False,
               dropout_seed: int | None = None) -> float:
    """Mean categorical cross-entropy of the true next call over a batch."""
    total, count = 0.0, 0
    for _, log_probs, targets in _evaluate(model, samples, train, dropout_seed):
        total += float(-log_probs[np.arange(len(targets)), targets].sum())
        count += len(targets)
    return total / count


def loss_and_grads(model: BiLstmModel, samples, train: bool = True,
                   dropout_seed: int | None = None):
    """Exact loss and gradients for one batch via backpropagation through
    time across both directions, the embedding, dropout and the softmax."""
    cfg = model.config
    [(ids, targets)] = _batches(samples, cfg, None)
    probs, log_probs, cache, _ = _forward_batch(model, ids, train, dropout_seed, True)
    B = len(targets)
    loss = float(-log_probs[np.arange(B), targets].sum() / B)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss}")

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
    for key in model.params:
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
    pairs = list(samples)
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


def _greedy(model: BiLstmModel, sequence):
    """Yield each greedy step's id and distribution; see predict_next_k."""
    window = model.config.max_prefix_len
    seq = [int(c) for c in sequence]
    state = None
    while True:
        ids = np.asarray(seq[-window:], dtype=np.int64).reshape(1, -1)
        if len(seq) > window:
            state = None  # the window slid
        probs, _, _, state = _forward_batch(model, ids, False, None, False, state)
        seq.append(int(np.argmax(probs[0])))
        yield seq[-1], probs[0]


def predict_next(model: BiLstmModel, sequence) -> tuple[int, np.ndarray]:
    """Most likely next call id and the full distribution; ties go to the
    lowest id. Sequences longer than max_prefix_len keep their tail."""
    return next(_greedy(model, sequence))


def predict_next_k(model: BiLstmModel, sequence, k: int) -> list[int]:
    """Greedy autoregressive decoding: each prediction is appended to the
    input before predicting the next one. The forward direction's final
    (h, c) is carried: one cell step on the appended call extends it, until
    the input outgrows max_prefix_len and the window slides, when it is
    rescanned. The backward direction is rescanned every step."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [nxt for nxt, _ in islice(_greedy(model, sequence), k)]


def next_call_accuracy(model: BiLstmModel, samples) -> float:
    """Fraction of samples whose argmax prediction matches the true next call."""
    hits, count = 0, 0
    for probs, _, targets in _evaluate(model, samples):
        hits += int((probs.argmax(axis=1) == targets).sum())
        count += len(targets)
    return hits / count


def predict_distributions(model: BiLstmModel, samples) -> np.ndarray:
    """Per-sample next-call distributions, one row per sample."""
    return np.concatenate([probs for probs, _, _ in _evaluate(model, samples)])


# --- persistence -------------------------------------------------------------

_FORMAT_TAG = "apisentry-seqmodel v1"


def save_model(model: BiLstmModel, path: str | Path) -> None:
    cfg = model.config
    lines = [_FORMAT_TAG] + _config_lines(cfg)
    for name, key, cols in _v1_tensors(cfg):
        tensor = model.params[key][..., cols]
        lines.append(f"tensor {name} " + " ".join(map(str, tensor.shape)))
        lines += [" ".join(map(_fmt, row)) for row in np.atleast_2d(tensor)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _finite_row(reader: _LineReader) -> np.ndarray:
    row = np.array(reader.next().split(), dtype=np.float64)
    if not np.isfinite(row).all():
        raise ValueError("a tensor row holds a number that is not finite")
    return row


def load_model(path: str | Path) -> BiLstmModel:
    with _LineReader(path) as reader:
        if reader.next() != _FORMAT_TAG:
            raise ValueError("not a sequence model file")
        cfg = _read_config(reader, BiLstmConfig)
        params = {key: np.empty(shape) for key, shape in _param_shapes(cfg).items()}
        for name, key, cols in _v1_tensors(cfg):
            block = params[key][..., cols]
            shape = tuple(int(d) for d in reader.field(f"tensor {name}").split())
            if shape != block.shape:
                raise ValueError(f"tensor {name!r} has wrong shape {shape}")
            rows = [_finite_row(reader) for _ in np.atleast_2d(block)]
            block[...] = np.vstack(rows).reshape(shape)
    return BiLstmModel(params=params, config=cfg)


def save_curves(report: TrainReport, path: str | Path) -> None:
    lines = ["epoch,train_loss,val_loss"]
    for i, (tr, vl) in enumerate(zip(report.train_loss, report.val_loss), start=1):
        lines.append(f"{i},{_fmt(tr)},{_fmt(vl)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
