"""Bidirectional LSTM next-call predictor.

Architecture: embedding -> dropout -> one forward and one backward LSTM
pass -> concatenation of the two final hidden states -> dense softmax over
the call vocabulary. Training minimizes categorical cross-entropy with Adam
and stops early on stalled validation loss. Everything is plain numpy with
hand-written backpropagation through time, so runs are bit-reproducible
under a fixed seed.

Sequences are left-padded with the reserved id ``vocab_size``, which no
caller's call may be. The scans see a batch's rows sorted by real length,
longest first, so the rows live at any step are a prefix of them: the cell,
and BPTT, run on that prefix alone and write its new state in place, while
the other rows keep theirs (zeros not yet started going forward, finished
rows going backward). Pad cells cost no work, extra padding never changes
the output, and results come back in the caller's row order.

Each direction holds three tensors, with the blocks of the gates i, f, o
and g side by side in that order: ``W`` (E,4H), ``U`` (H,4H) and ``b``
(4H,). A cell step is then two matmuls, and BPTT builds one (n,4H)
gradient per step for its n live rows. The model file (v3) is a text
header, the config and one shape line per fused tensor, then the tensors
as one raw little-endian float64 payload, sized before it is read.

One cell function, ``_cell_step``, serves every scan: it activates a step's
inputs times W in place, writes the live rows' new state and hands the scan
the gate activations BPTT reuses. Training computes X[:, t] @ W as before; a
pass without dropout or cache gathers it from per-call tables of emb @ W.
``_forward_batch`` is the one forward pass: embedding, both scans and the
softmax; it draws dropout from a ``dropout_seed`` or not at all, so every
pass is reproducible. ``_batches`` alone turns samples into arrays and
refuses bad ones; ``_evaluate`` is the one loop over it, which the loss and
the distributions reduce. Greedy decoding carries the forward
(h, c) from step to step, one forward cell step per decoded call until the
window slides past max_prefix_len; the backward direction is rescanned.

The two directions are independent until the dense layer joins their final
states. A batch of at least ``_THREADED_ROWS`` rows scans them, and runs
their BPTT, on two threads: numpy releases the GIL in its calls, so a
second core takes half the work. Each direction writes only its own arrays,
its own ``dX`` too; the two are summed once both finish, so the results
equal the one-thread pass's bit for bit. Greedy decoding sends one row at a
time and stays on one thread.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass, fields
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .corpus import _LineReader, _int, _round_half_up
from .ngrams import _config_lines, _format_rows, _read_config, _sigmoid
from .seeding import derive_seed


@dataclass(frozen=True)
class BiLstmConfig:
    vocab_size: int
    embed_dim: int = 64
    hidden: int = 150
    dropout_rate: float = 0.3
    learning_rate: float = 0.01
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
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0,1)")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0,1)")
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be >= 0 and finite")

    @property
    def pad_id(self) -> int:
        return self.vocab_size


def _param_shapes(cfg: BiLstmConfig) -> dict[str, tuple[int, ...]]:
    v, e, h = cfg.vocab_size, cfg.embed_dim, cfg.hidden
    shapes = {"emb": (v + 1, e)}
    for d in ("fw", "bw"):
        shapes |= {f"{d}.W": (e, 4 * h), f"{d}.U": (h, 4 * h), f"{d}.b": (4 * h,)}
    return shapes | {"dense.W": (2 * h, v), "dense.b": (v,)}


@dataclass
class BiLstmModel:
    params: dict[str, np.ndarray]
    config: BiLstmConfig

    def copy_params(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params.items()}


_ADAM = (0.9, 0.999, 1e-8)  # beta1, beta2 and eps: Kingma and Ba's defaults


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


@dataclass
class TrainReport:
    train_loss: list[float]
    val_loss: list[float]


def init_model(config: BiLstmConfig, seed: int | None = None) -> BiLstmModel:
    """Glorot-uniform weights, forget-gate biases 1, other biases 0, and a
    zeroed embedding row for the padding id. Each gate's W and U blocks are
    drawn on their own with their own bound, in the order emb, then per
    direction and gate (i, f, o, g) W and U, then dense.W."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    params = {key: np.zeros(shape) for key, shape in _param_shapes(config).items()}
    h, blocks = config.hidden, [params["emb"]]
    for d in ("fw", "bw"):
        blocks += chain(*zip(_gates(params[f"{d}.W"], h), _gates(params[f"{d}.U"], h)))
        _gates(params[f"{d}.b"], h)[1][...] = 1.0
    for block in blocks + [params["dense.W"]]:
        bound = math.sqrt(6.0 / (block.shape[0] + block.shape[1]))
        block[...] = rng.uniform(-bound, bound, size=block.shape)
    params["emb"][config.pad_id, :] = 0.0
    return BiLstmModel(params=params, config=config)


def init_adam(model: BiLstmModel) -> AdamState:
    zeros = {k: np.zeros_like(v) for k, v in model.params.items()}
    return AdamState(m=zeros, v={k: np.zeros_like(p) for k, p in model.params.items()})


def _gates(acts: np.ndarray, h: int) -> list[np.ndarray]:
    """Views of the i, f, o and g blocks of (..., 4H) gate activations."""
    return [acts[..., k * h:(k + 1) * h] for k in range(4)]


def _cell_step(xw, h, c, cell: dict[str, np.ndarray]):
    """The LSTM cell on xw, the live rows' inputs times W, an (n,4H) array it
    owns and activates in place. Writes h' and c' into h and c, the live rows'
    state; returns the gate activations and tanh(c'), which BPTT reuses."""
    xw += h @ cell["U"]
    xw += cell["b"]
    n = 3 * h.shape[-1]
    _sigmoid(xw[..., :n], out=xw[..., :n])
    np.tanh(xw[..., n:], out=xw[..., n:])
    i, f, o, g = _gates(xw, h.shape[-1])
    c *= f
    c += i * g
    tanh_c = np.tanh(c)
    np.multiply(o, tanh_c, out=h)
    return xw, tanh_c


# Rows at which a batch's two directions run on two threads. Full
# two-direction scans on triage prefixes, threaded against sequential, on a
# 2-core machine with one BLAS thread (time ratios):
#   rows                    1     2     4     8     16    32
#   threaded / sequential   1.03  1.03  1.08  1.08  0.76  0.61
_THREADED_ROWS = 16


def _directions(fn, fw_args, bw_args, rows: int):
    """fn(*fw_args) and fn(*bw_args) for a batch of `rows` rows. From
    _THREADED_ROWS rows on, the first runs on a worker thread under a copy of
    the caller's context (where numpy 2 keeps np.errstate) while the caller
    runs the second; the worker's exception is raised here."""
    if rows < _THREADED_ROWS:
        return fn(*fw_args), fn(*bw_args)
    # imported here: start-up never needs it, and greedy decoding never threads
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as pool:
        fw = pool.submit(contextvars.copy_context().run, fn, *fw_args)
        bw = fn(*bw_args)
    return fw.result(), bw


def _scan(params, direction, X, active, keep_steps: bool, state=None, table=None):
    """Run one direction ("bw" from the last step back) over a batch whose
    rows are sorted longest first, from `state`, an (h, c) pair it
    overwrites, or zeros. Step t's inputs are X[:n, t] @ W, or with a
    `table` (see _tables) its rows X[:n, t], X being the ids. The cell
    runs on the first n = active[t] rows alone and writes their (h, c) in
    place; the other rows keep theirs: zeros not yet started going forward,
    finished rows going backward. Returns the final (h, c) and, if
    keep_steps, the per-step BPTT cache (else an empty list), which holds
    copies of the live rows' previous (h, c) alone."""
    B, T = X.shape[:2]
    cell = {m: params[f"{direction}.{m}"] for m in "WUb"}
    h, c = state or [np.zeros((B, cell["U"].shape[0])) for _ in "hc"]  # each written in place
    first = active.count(0)  # the steps before hold pads alone
    times = range(T - 1, first - 1, -1) if direction == "bw" else range(first, T)
    steps = []
    for t in times:
        n = active[t]
        xw = X[:n, t] @ cell["W"] if table is None else table.take(X[:n, t], axis=0)
        prev = (h[:n].copy(), c[:n].copy()) if keep_steps else ()  # the cell overwrites them
        acts, tanh_c = _cell_step(xw, h[:n], c[:n], cell)
        if keep_steps:
            steps.append((t, *prev, acts, tanh_c))
    return (h, c), steps


def _scan_backward(params, direction, steps, X, d_final_h, dX, grads):
    """Backpropagate one direction over the live rows of each step;
    accumulates into its own grads and its own dX. Each step builds da, the
    (n,4H) gradient of the live rows' gate pre-activations, in the gate order
    of the fused weights, and writes the live rows' dh and dc in place; the
    other rows keep theirs. Consumes steps, last first, so each step's
    activations are freed once they are used."""
    W, U = params[f"{direction}.W"], params[f"{direction}.U"]
    gW, gU, gb = (grads[f"{direction}.{m}"] for m in "WUb")
    H = d_final_h.shape[1]
    dh = d_final_h.copy()
    dc = np.zeros_like(dh)
    while steps:
        t, h_prev, c_prev, acts, tanh_c = steps.pop()
        n = len(acts)
        i, f, o, g = _gates(acts, H)
        dh_live = dh[:n]
        dc_new = dc[:n] + dh_live * o * (1.0 - tanh_c ** 2)
        da = np.concatenate([dc_new * g, dc_new * c_prev, dh_live * tanh_c, dc_new * i],
                            axis=1)
        sig = acts[:, :3 * H]
        da[:, :3 * H] *= sig
        da[:, :3 * H] *= 1.0 - sig
        da[:, 3 * H:] *= 1.0 - g ** 2
        x = X[:n, t]
        gW += x.T @ da
        gU += h_prev.T @ da
        gb += da.sum(axis=0)
        dX[:n, t] += da @ W.T
        dh[:n], dc[:n] = da @ U.T, dc_new * f


def _length_order(mask: np.ndarray):
    """The batch's rows by real length, longest first (a stable sort); and
    active, where active[t] is the number of rows live at step t. Pads are a
    left prefix, so the live rows of every step are a prefix of the sorted
    rows. active is a list, which the scans index once per step."""
    return np.argsort(-mask.sum(axis=1), kind="stable"), mask.sum(axis=0).tolist()


def _tables(params) -> dict[str, np.ndarray]:
    """Each direction's x W for every id, (V+1,4H), built per public call and
    never kept (training changes the weights), in one allocation: as two,
    malloc gave them back and refaulted them every call (+1.7 ms, paper shapes)."""
    emb, out = params["emb"], np.empty((2, len(params["emb"]), params["fw.W"].shape[1]))
    return {d: np.matmul(emb, params[f"{d}.W"], out=t) for d, t in zip(("fw", "bw"), out)}


def _forward_batch(model: BiLstmModel, ids: np.ndarray, dropout_seed: int | None,
                   want_cache: bool, state=None, tables=None):
    """Next-call probabilities and log-probabilities of a batch, the BPTT
    cache if want_cache (else None; only the cache holds every step) and the
    forward direction's final (h, c). A carried `state`, that (h, c) after
    every column but the last, is extended over the last column alone. A pass
    without dropout or cache reads its step inputs from `tables`, or its own.

    The scans see the rows sorted by length, longest first; everything
    returned is in the caller's row order but the cache, whose `order`
    maps sorted rows back to the caller's."""
    cfg = model.config
    params = model.params
    order, active = _length_order(ids != cfg.pad_id)
    X, drop = ids[order], None
    dropout = dropout_seed is not None and cfg.dropout_rate > 0.0
    if dropout or want_cache:  # the step inputs are X[:, t] @ W
        X, tables = params["emb"][X], {}
    else:  # they are rows of the x W tables
        tables = tables or _tables(params)
    if dropout:
        rng = np.random.default_rng(dropout_seed)
        keep = 1.0 - cfg.dropout_rate
        # drawn in the caller's row order, so each sample keeps its mask
        drop = (rng.random(X.shape) < keep)[order]
        X = X * (drop / keep)
    if state is not None:  # the scan's own copy, in its row order
        state = tuple(a[order] for a in state)
    new = slice(None) if state is None else slice(-1, None)
    (state, steps_f), ((h_b, _), steps_b) = _directions(
        _scan, (params, "fw", X[:, new], active[new], want_cache, state, tables.get("fw")),
        (params, "bw", X, active, want_cache, None, tables.get("bw")), len(ids))
    back = np.argsort(order)
    feat = np.concatenate([state[0], h_b], axis=1)[back]
    state = tuple(a[back] for a in state)
    logits = feat @ params["dense.W"] + params["dense.b"]
    shift = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shift)
    norm = exp.sum(axis=1, keepdims=True)
    cache = {"X": X, "drop": drop, "order": order, "steps_f": steps_f, "steps_b": steps_b,
             "feat": feat}
    return exp / norm, shift - np.log(norm), cache if want_cache else None, state


def _refuse_ids(ids: np.ndarray, cfg: BiLstmConfig, what: str = "call id") -> None:
    """Refuse a caller's id outside [0, vocab_size); vocab_size is the pad id."""
    bad = (ids < 0) | (ids >= cfg.vocab_size)
    if bad.any():
        raise ValueError(f"{what} {ids[bad][0]} is outside [0, {cfg.vocab_size})")


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
        _refuse_ids(targets, cfg, "next call id")
        prefixes = [p[-cfg.max_prefix_len:] for p, _ in part]
        if 0 in map(len, prefixes):
            raise ValueError("empty sequence")
        ids = np.full((len(part), max(map(len, prefixes))), cfg.pad_id, dtype=np.int64)
        for r, p in enumerate(prefixes):
            ids[r, ids.shape[1] - len(p):] = p
        _refuse_ids(np.fromiter(chain.from_iterable(prefixes), np.int64), cfg)  # not the pads
        yield ids, targets


def _evaluate(model: BiLstmModel, samples):
    """The one evaluation loop, no dropout: (probs, log_probs, targets) per batch."""
    tables = _tables(model.params)
    for ids, targets in _batches(samples, model.config, model.config.batch_size):
        yield *_forward_batch(model, ids, None, False, None, tables)[:2], targets


def batch_loss(model: BiLstmModel, samples) -> float:
    """Mean categorical cross-entropy of the true next call over a batch."""
    total, count = 0.0, 0
    for _, log_probs, targets in _evaluate(model, samples):
        total += float(-log_probs[np.arange(len(targets)), targets].sum())
        count += len(targets)
    return total / count


def loss_and_grads(model: BiLstmModel, samples, dropout_seed: int | None = None):
    """Exact loss and gradients for one batch via backpropagation through time
    across both directions, the embedding, dropout (if given a `dropout_seed`)
    and the softmax."""
    cfg = model.config
    [(ids, targets)] = _batches(samples, cfg, None)
    probs, log_probs, cache, _ = _forward_batch(model, ids, dropout_seed, True)
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
    order = cache["order"]  # into the scans' row order
    dfeat, ids = dfeat[order], ids[order]
    H = cfg.hidden
    X = cache["X"]
    dX, dX_b = np.zeros_like(X), np.zeros_like(X)
    _directions(_scan_backward, (params, "fw", cache["steps_f"], X, dfeat[:, :H], dX, grads),
                (params, "bw", cache["steps_b"], X, dfeat[:, H:], dX_b, grads), B)
    dX += dX_b
    del dX_b
    if cache["drop"] is not None:
        dX *= cache["drop"] / (1.0 - cfg.dropout_rate)
    np.add.at(grads["emb"], ids, dX)
    return loss, grads


def apply_adam(model: BiLstmModel, state: AdamState, grads) -> None:
    cfg = model.config
    state.t += 1
    b1, b2, eps = _ADAM
    corr1 = 1.0 - b1 ** state.t
    corr2 = 1.0 - b2 ** state.t
    for key in model.params:
        g = grads[key]
        state.m[key] = b1 * state.m[key] + (1.0 - b1) * g
        state.v[key] = b2 * state.v[key] + (1.0 - b2) * g * g
        m_hat = state.m[key] / corr1
        v_hat = state.v[key] / corr2
        model.params[key] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)


def train_step(model: BiLstmModel, state: AdamState, samples,
               dropout_seed: int | None = None) -> float:
    """One Adam step on a batch; mutates the model and optimizer state."""
    loss, grads = loss_and_grads(model, samples, dropout_seed=dropout_seed)
    apply_adam(model, state, grads)
    return loss


def train(samples, config: BiLstmConfig) -> tuple[BiLstmModel, TrainReport]:
    """Train with per-epoch shuffling and early stopping.

    Stops once validation loss has failed to improve for ``patience``
    consecutive epochs (or at max_epochs) and returns the parameters from
    the first epoch of least validation loss, 1 + argmin(report.val_loss).
    """
    pairs = list(samples)
    if len(pairs) < 2:
        raise ValueError("need at least 2 samples to train")
    n_val = _round_half_up(len(pairs) * config.val_fraction)
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
    best_loss, best_params = math.inf, model.copy_params()
    stale = 0
    for _ in range(config.max_epochs):
        perm = shuffle_rng.permutation(len(train_set))
        total = 0.0
        for start in range(0, len(train_set), config.batch_size):
            batch = [train_set[i] for i in perm[start:start + config.batch_size]]
            seed = int(dropout_rng.integers(0, 1 << 63))
            total += train_step(model, state, batch, dropout_seed=seed) * len(batch)
        train_curve.append(total / len(train_set))
        val_curve.append(batch_loss(model, val))
        if val_curve[-1] < best_loss:
            best_loss, stale = val_curve[-1], 0
            best_params = model.copy_params()
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.params = best_params
    return model, TrainReport(train_curve, val_curve)


def _greedy(model: BiLstmModel, sequence):
    """Yield each greedy step's id and distribution; see predict_next_k."""
    window = model.config.max_prefix_len
    seq = [int(c) for c in sequence]
    if not seq:
        raise ValueError("empty sequence")
    _refuse_ids(np.array(seq), model.config)  # ids past int64 go in as objects, refused alike
    state, tables = None, _tables(model.params)
    while True:
        ids = np.asarray(seq[-window:], dtype=np.int64).reshape(1, -1)
        if len(seq) > window:
            state = None  # the window slid
        probs, _, _, state = _forward_batch(model, ids, None, False, state, tables)
        seq.append(int(np.argmax(probs[0])))
        yield seq[-1], probs[0]


def predict_next_k(model: BiLstmModel, sequence, k: int) -> list[int]:
    """Greedy autoregressive decoding: each prediction, the most likely next
    call id (ties go to the lowest), is appended to the input before predicting
    the next one; inputs keep their last max_prefix_len calls. The forward
    direction's final (h, c) is carried: one cell step on the appended call
    extends it, until the input outgrows max_prefix_len and the window slides,
    when it is rescanned. The backward direction is rescanned every step."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return [nxt for nxt, _ in islice(_greedy(model, sequence), k)]


def predict_distributions(model: BiLstmModel, samples) -> np.ndarray:
    """Per-sample next-call distributions, one row per sample."""
    return np.concatenate([probs for probs, _, _ in _evaluate(model, samples)])


# --- persistence -------------------------------------------------------------

_FORMAT_TAG = "apisentry-seqmodel v3"
# the header: the tag, the config, one line per tensor and the payload's size
_HEADER_LINES = 2 + len(fields(BiLstmConfig)) + len(_param_shapes(BiLstmConfig(1)))


def save_model(model: BiLstmModel, path: str | Path) -> None:
    tensors = {key: np.ascontiguousarray(model.params[key], "<f8")
               for key in _param_shapes(model.config)}
    lines = [_FORMAT_TAG] + _config_lines(model.config)
    lines += [f"tensor {key} " + " ".join(map(str, t.shape)) for key, t in tensors.items()]
    lines.append(f"payload {sum(t.nbytes for t in tensors.values())}")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))
        for t in tensors.values():
            f.write(t.data)


def load_model(path: str | Path) -> BiLstmModel:
    """A v3 model file. Its payload is read only once the header's shapes are
    the config's and its size theirs; it must be that size, all finite."""
    with open(path, "rb") as f, _LineReader(path, b"".join(islice(f, _HEADER_LINES))) as reader:
        if reader.next() != _FORMAT_TAG:
            raise ValueError(f"not an {_FORMAT_TAG!r} file")
        cfg = _read_config(reader, BiLstmConfig)
        shapes = _param_shapes(cfg)
        for key, want in shapes.items():
            shape = tuple(map(_int, reader.field(f"tensor {key}").split()))
            if shape != want:
                raise ValueError(f"tensor {key!r} has wrong shape {shape}")
        sizes = [math.prod(shape) for shape in shapes.values()]
        size = 8 * sum(sizes)
        claimed = _int(reader.field("payload"))
        if claimed != size:
            raise ValueError(f"the tensors take {size} bytes, not {claimed}")
        payload = f.read()
        reader.pos = 0  # what follows is about the payload as a whole
        if len(payload) != size:
            raise ValueError(f"the payload holds {len(payload)} bytes, not {size}")
        flat = np.frombuffer(payload, "<f8")
        params, start = {}, 0
        for (key, shape), n in zip(shapes.items(), sizes):
            params[key] = flat[start:start + n].reshape(shape).astype(np.float64)
            start += n
            if not np.isfinite(params[key]).all():
                raise ValueError(f"tensor {key!r} holds a number that is not finite")
    return BiLstmModel(params=params, config=cfg)


def save_curves(report: TrainReport, path: str | Path) -> None:
    epochs = range(1, len(report.train_loss) + 1)
    lines = ["epoch,train_loss,val_loss"] + _format_rows(
        "%d,%.17g,%.17g", zip(epochs, report.train_loss, report.val_loss))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
