"""Loss-driven optimization: Adam, the accuracy-driven learning-rate rule,
the training loop and binary checkpoints.

Checkpoint format (little-endian):

    magic "FRCK" | version u32 = 1
    iteration u64 | adam step u64 | learning rate f64
    beta1 f64 | beta2 f64 | eps f64
    network: num_classes u32 | input_channels u32 | kernel u32 | input_h u32
             | input_w u32 | use_lrn u8 | conv_maps u32 x 4 | fc_sizes u32 x 2
    labels: count u32, then per name: byte length u32 + UTF-8 bytes
    tensors: count u32, then per tensor: name length u32 + UTF-8 name
             | rank u32 | dims u32 each | float32 payload

Training state (parameters and optimizer moments) is float32, so a
save/load/save cycle is byte-identical and a resumed run continues the
uninterrupted one bit for bit: augmentation and dropout streams are derived
from (seed, iteration) and the shuffled batch stream is replayed up to the
checkpoint's iteration counter.
"""

import csv
import math
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augmentation import AugmentConfig, Scenario, preprocess_batch
from .errors import ConfigurationError, FormatError, ShapeError, TrainingDivergedError
from .layers import Tensor, cross_entropy_loss
from .network import NetworkConfig, Params, backward, forward, init_params, param_shapes
from .records import LabelMap, ShardSet, ShuffleParams, cycle_records, shuffle_batches
from .seeding import STREAM_AUGMENT, STREAM_DROPOUT, STREAM_INIT, make_rng

CHECKPOINT_MAGIC = b"FRCK"
CHECKPOINT_VERSION = 1
CHECKPOINT_NAME = "checkpoint.frck"
METRICS_NAME = "metrics.csv"


@dataclass(frozen=True)
class TrainConfig:
    net: NetworkConfig
    scenario: Scenario
    iterations: int = 75000
    batch_size: int = 60
    keep_prob: float = 0.8
    lr_initial: float = 0.001
    lr_final: float = 0.00001
    display_interval: int = 50
    seed: int = 0
    shuffle_capacity: int | None = None  # defaults to 35000 + batch_size
    shuffle_min_fill: int = 5000
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr_final <= self.lr_initial:
            raise ConfigurationError(
                f"need 0 < lr_final <= lr_initial, got {self.lr_final}, {self.lr_initial}"
            )
        if self.iterations < 0 or self.display_interval < 1 or self.seed < 0:
            raise ConfigurationError("iterations, display_interval and seed must be sensible")

    @property
    def effective_shuffle_capacity(self) -> int:
        if self.shuffle_capacity is not None:
            return self.shuffle_capacity
        return 35000 + self.batch_size


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step counter."""

    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros_like(cls, params: Params) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


@dataclass
class Checkpoint:
    config: NetworkConfig
    params: Params
    adam: AdamState
    iteration: int
    learning_rate: float
    labels: LabelMap


def update_learning_rate(acc: float, lr_initial: float = 0.001, lr_final: float = 0.00001) -> float:
    """Rescale the rate from its initial value by the current batch accuracy.

    Fully accurate batches decay the rate by 90 percent; the rate never drops
    below lr_final.  The rule always starts from lr_initial, so the rate is a
    function of the latest accuracy alone, not of its history.
    """
    return max(lr_initial - acc * lr_initial * 0.9, lr_final)


def adam_step(params: Params, grads: Params, state: AdamState, lr: float) -> tuple:
    """One bias-corrected Adam update; returns new params and state."""
    if params.keys() != grads.keys():
        raise ShapeError(f"param/grad keys differ: {sorted(params)} vs {sorted(grads)}")
    t = state.t + 1
    corr1 = 1.0 - state.beta1**t
    corr2 = 1.0 - state.beta2**t
    new_p, new_m, new_v = {}, {}, {}
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ShapeError(f"grad {key} has shape {g.shape}, param has {p.shape}")
        dt = p.dtype.type
        m = dt(state.beta1) * state.m[key] + dt(1.0 - state.beta1) * g
        v = dt(state.beta2) * state.v[key] + dt(1.0 - state.beta2) * (g * g)
        m_hat = m / dt(corr1)
        v_hat = v / dt(corr2)
        new_p[key] = p - dt(lr) * m_hat / (np.sqrt(v_hat) + dt(state.eps))
        new_m[key] = m
        new_v[key] = v
    return new_p, AdamState(m=new_m, v=new_v, t=t, beta1=state.beta1, beta2=state.beta2, eps=state.eps)


def batch_accuracy(logits: Tensor, labels: Tensor) -> float:
    """Fraction of rows whose argmax (lowest index on ties) equals the label."""
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def _tensor_items(ckpt: Checkpoint):
    for key in ckpt.params:
        yield f"param/{key}", ckpt.params[key]
    for key in ckpt.params:
        yield f"adam_m/{key}", ckpt.adam.m[key]
    for key in ckpt.params:
        yield f"adam_v/{key}", ckpt.adam.v[key]


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the full training state; the write is atomic (tmp + rename)."""
    path = Path(path)
    cfg = ckpt.config
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    parts.append(struct.pack("<QQd", ckpt.iteration, ckpt.adam.t, ckpt.learning_rate))
    parts.append(struct.pack("<ddd", ckpt.adam.beta1, ckpt.adam.beta2, ckpt.adam.eps))
    parts.append(
        struct.pack(
            "<IIIIIB",
            cfg.num_classes,
            cfg.input_channels,
            cfg.kernel_size,
            cfg.input_height,
            cfg.input_width,
            1 if cfg.use_lrn else 0,
        )
    )
    parts.append(struct.pack("<4I", *cfg.conv_maps))
    parts.append(struct.pack("<2I", *cfg.fc_sizes))

    names = ckpt.labels.names
    parts.append(struct.pack("<I", len(names)))
    for name in names:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)) + raw)

    tensors = list(_tensor_items(ckpt))
    parts.append(struct.pack("<I", len(tensors)))
    for name, arr in tensors:
        raw = name.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)) + raw)
        parts.append(struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(b"".join(parts))
    os.replace(tmp, path)


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.path = path
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(
                f"truncated checkpoint: wanted {n} bytes", path=self.path, offset=self.pos
            )
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        st = struct.Struct(fmt)
        return st.unpack(self.take(st.size))


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint back to a bit-identical training state."""
    path = Path(path)
    rd = _Reader(path.read_bytes(), path)
    magic = rd.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}", path=path, offset=0)
    (version,) = rd.unpack("<I")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported version {version}", path=path, offset=4)
    iteration, adam_t, lr = rd.unpack("<QQd")
    beta1, beta2, eps = rd.unpack("<ddd")
    num_classes, input_channels, kernel, in_h, in_w, use_lrn = rd.unpack("<IIIIIB")
    conv_maps = rd.unpack("<4I")
    fc_sizes = rd.unpack("<2I")
    cfg = NetworkConfig(
        num_classes=num_classes,
        input_channels=input_channels,
        conv_maps=conv_maps,
        fc_sizes=fc_sizes,
        kernel_size=kernel,
        input_height=in_h,
        input_width=in_w,
        use_lrn=bool(use_lrn),
    )

    labels_at = rd.pos
    (n_names,) = rd.unpack("<I")
    if n_names != num_classes:
        raise FormatError(f"{n_names} label names for {num_classes} classes", path=path, offset=labels_at)
    names = []
    for _ in range(n_names):
        (ln,) = rd.unpack("<I")
        names.append(rd.take(ln).decode("utf-8"))
    labels = LabelMap(tuple(names))

    (n_tensors,) = rd.unpack("<I")
    tensors = {}
    for _ in range(n_tensors):
        (ln,) = rd.unpack("<I")
        name = rd.take(ln).decode("utf-8")
        (rank,) = rd.unpack("<I")
        dims = rd.unpack(f"<{rank}I") if rank else ()
        payload = rd.take(4 * math.prod(dims))  # exact int product; take() checks it against the bytes left
        tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
    if rd.pos != len(rd.data):
        raise FormatError("trailing bytes after final tensor", path=path, offset=rd.pos)

    expected = param_shapes(cfg)
    for group in ("param", "adam_m", "adam_v"):
        for key, shape in expected.items():
            name = f"{group}/{key}"
            if name not in tensors or tensors[name].shape != shape:
                raise FormatError(f"missing or misshaped tensor {name!r}", path=path, offset=rd.pos)
    params = {key: tensors[f"param/{key}"] for key in expected}
    adam = AdamState(
        m={key: tensors[f"adam_m/{key}"] for key in expected},
        v={key: tensors[f"adam_v/{key}"] for key in expected},
        t=adam_t,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )
    return Checkpoint(
        config=cfg, params=params, adam=adam, iteration=iteration, learning_rate=lr, labels=labels
    )


def check_channels(scenario: Scenario, net: NetworkConfig, owner: str = "network") -> None:
    """Raise ConfigurationError unless the scenario feeds the network's input depth."""
    if scenario.input_channels != net.input_channels:
        raise ConfigurationError(
            f"scenario {scenario.value} feeds {scenario.input_channels} channels, "
            f"{owner} expects {net.input_channels}"
        )


def _append_metrics(path, rows, fresh: bool):
    mode = "w" if fresh else "a"
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(["iteration", "loss", "batch_accuracy", "learning_rate"])
        writer.writerows(rows)


def train(
    cfg: TrainConfig,
    shards: ShardSet,
    out_dir,
    labels: LabelMap,
    resume_from: Checkpoint | None = None,
    log=print,
) -> Checkpoint:
    """Run the training protocol and return the final checkpoint.

    Each iteration draws a shuffled batch, preprocesses it in train mode,
    runs forward/backward at the configured keep_prob and applies one Adam
    step.  Every display_interval iterations the current batch is re-scored
    at keep_prob 1, the learning rate is re-derived from that accuracy, a
    checkpoint is persisted and a metrics row is appended.
    """
    check_channels(cfg.scenario, cfg.net)
    if labels.num_classes != cfg.net.num_classes:
        raise ConfigurationError(
            f"label map has {labels.num_classes} classes, network has {cfg.net.num_classes}"
        )
    if shards.count < 1:
        raise ConfigurationError(f"shard set {shards.split!r} is empty")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / CHECKPOINT_NAME
    metrics_path = out_dir / METRICS_NAME

    stream = shuffle_batches(
        cycle_records(shards),
        cfg.batch_size,
        ShuffleParams(
            capacity=cfg.effective_shuffle_capacity,
            min_fill=min(cfg.shuffle_min_fill, cfg.effective_shuffle_capacity),
            seed=cfg.seed,
        ),
    )

    if resume_from is not None:
        if resume_from.config != cfg.net:
            raise ConfigurationError("checkpoint network config differs from the training config")
        if resume_from.iteration > cfg.iterations:
            raise ConfigurationError(
                f"checkpoint is at iteration {resume_from.iteration}, past the configured {cfg.iterations}"
            )
        params = resume_from.params
        adam = resume_from.adam
        lr = resume_from.learning_rate
        start = resume_from.iteration
        for _ in range(start):  # replay the batch stream to the saved position
            next(stream)
        _append_metrics(metrics_path, [], fresh=not metrics_path.exists())
    else:
        params = init_params(cfg.net, make_rng(cfg.seed, STREAM_INIT))
        adam = AdamState.zeros_like(params)
        lr = cfg.lr_initial
        start = 0
        _append_metrics(metrics_path, [], fresh=True)

    tick = time.time()
    for i in range(start + 1, cfg.iterations + 1):
        images, batch_labels = next(stream)
        x = preprocess_batch(
            images, cfg.scenario, "train", make_rng(cfg.seed, STREAM_AUGMENT, i), cfg.augment
        )
        logits, caches = forward(cfg.net, params, x, cfg.keep_prob, make_rng(cfg.seed, STREAM_DROPOUT, i))
        loss, grad_logits = cross_entropy_loss(logits, batch_labels)
        if not math.isfinite(loss):
            raise TrainingDivergedError(iteration=i, loss=loss)
        grads = backward(cfg.net, caches, grad_logits)
        params, adam = adam_step(params, grads, adam, lr)

        if i % cfg.display_interval == 0:
            eval_logits, _ = forward(cfg.net, params, x, keep_prob=1.0)
            eval_loss, _ = cross_entropy_loss(eval_logits, batch_labels)
            acc = batch_accuracy(eval_logits, batch_labels)
            lr = update_learning_rate(acc, cfg.lr_initial, cfg.lr_final)
            ckpt = Checkpoint(cfg.net, params, adam, i, lr, labels)
            save_checkpoint(ckpt, ckpt_path)
            _append_metrics(metrics_path, [[i, f"{eval_loss:.6f}", f"{acc:.6f}", f"{lr:.8f}"]], fresh=False)
            if log is not None:
                dt = time.time() - tick
                log(f"iteration {i}: loss {eval_loss:.4f}, batch accuracy {acc:.4f}, lr {lr:.6f} ({dt:.1f}s)")
                tick = time.time()

    final = Checkpoint(cfg.net, params, adam, cfg.iterations, lr, labels)
    save_checkpoint(final, ckpt_path)
    return final
