"""Loss-driven optimization: Adam, the accuracy-driven learning-rate rule,
the training loop and binary checkpoints.

The rule's bounds LR_INITIAL and LR_FINAL and the shuffle buffer's size,
SHUFFLE_RESERVE + batch_size, are the protocol's, not settings; TrainConfig
holds the run's settings, and its field defaults are the published protocol.
A split fits a network when it has records, their images have the network's
input dims and each label has an output; check_split, which train and
evaluate call before any work, is where that rule lives.

Checkpoint format v4 (little-endian):

    header:  magic "FRCK" | version u32 = 4
             | iteration u64 | adam step u64 | learning rate f64
             | num_classes u32 | input_channels u32 | kernel u32 | input_h u32
             | input_w u32 | conv_maps u32 x 4 | fc_sizes u32 x 2
             | scenario u32, its index in tuple(Scenario)
    labels:  count u32 = num_classes, then per name: byte length u32 + UTF-8 bytes
    padding: zero bytes up to the next multiple of 4096
    tensors: float32, params then Adam m then Adam v, each in param_shapes order

The network config fixes every tensor's name, order and shape, so the file
stores none of them, and the header plus the labels fix the file size.  The
tensor block starts on a 4096-byte boundary: load_checkpoint maps it
copy-on-write with every tensor aligned, so inference faults in the params'
pages alone, and a resume's first Adam step turns each moment page private
once.  save_checkpoint renames a new file over the old one, so a live map
keeps the bytes it was loaded from.  Checkpoints written before version 4
are not read.  A checkpoint's scenario is the one its network learned, and
check_scenario refuses any other.  Training state is float32, so a
save/load/save cycle is byte-identical.  train advances one Checkpoint in place, the loaded one
itself on a resume, and a resumed run continues the uninterrupted one bit
for bit: augmentation and dropout streams are derived from (seed,
iteration), and the shuffled batch stream starts at the checkpoint's
iteration by redrawing the skipped batches' buffer slots, without building
those batches.
"""

import csv
import fcntl
import math
import os
import struct
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np

from ._parallel import batch_slices, slice_workers
from .augmentation import Scenario, augment_draws, preprocess_batch
from .errors import ConfigurationError, FormatError, InvalidInputError, ShapeError, TrainingDivergedError
from .layers import Tensor, cross_entropy_loss
from .network import NetworkConfig, Params, backward, dropout_masks, forward, init_params, param_shapes
from .records import LabelMap, ShardSet, _check_size, _read_header, _read_shard, _replaced_on_success
from .records import shuffle_batches
from .seeding import STREAM_AUGMENT, STREAM_DROPOUT, STREAM_INIT, make_rng

CHECKPOINT_MAGIC = b"FRCK"
CHECKPOINT_VERSION = 4
# magic, version, iteration, adam step, learning rate, then the network block:
# num_classes, input channels, kernel, input height and width, 4 conv maps, 2 fc sizes;
# then the scenario's index in tuple(Scenario), whose order augmentation.py never changes
_HEADER = struct.Struct("<4sIQQd5I4I2II")
_NETWORK_AT, _SCENARIO_AT = 32, 76
_TENSOR_ALIGN = 4096  # the tensor block starts at a multiple of this many bytes
CHECKPOINT_NAME = "checkpoint.frck"
METRICS_NAME = "metrics.csv"
_METRICS_HEADER = b"iteration,loss,batch_accuracy,learning_rate\r\n"  # csv.writer's line end, as the rows
_ADAM_BLOCK = 1 << 15  # elements per block of the in-place Adam update
LR_INITIAL, LR_FINAL = 0.001, 0.00001
SHUFFLE_RESERVE = 35000  # train shuffles through SHUFFLE_RESERVE + batch_size record numbers


@dataclass(frozen=True)
class TrainConfig:
    net: NetworkConfig
    scenario: Scenario
    iterations: int = 75000
    batch_size: int = 60
    keep_prob: float = 0.8
    display_interval: int = 50
    seed: int = 0

    def __post_init__(self):
        lows = (("batch_size", 1), ("iterations", 0), ("display_interval", 1), ("seed", 0))
        for name, low in lows:
            if getattr(self, name) < low:
                raise ConfigurationError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not 0.0 < self.keep_prob <= 1.0:
            raise ConfigurationError(f"keep_prob must be in (0, 1], got {self.keep_prob}")


@dataclass
class AdamState:
    """First/second moment estimates per parameter plus the step counter;
    the decay rates and eps are the same for every run."""

    m: dict
    v: dict
    t: int = 0
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

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
    scenario: Scenario = Scenario.HSV_GRAY_AUG  # the published protocol's


def update_learning_rate(acc: float, lr_initial: float = LR_INITIAL, lr_final: float = LR_FINAL) -> float:
    """Rescale the rate from its initial value by the current batch accuracy.

    Fully accurate batches decay the rate by 90 percent; the rate never drops
    below lr_final.  The rule always starts from lr_initial, so the rate is a
    function of the latest accuracy alone, not of its history.
    """
    return max(lr_initial - acc * lr_initial * 0.9, lr_final)


def adam_step(params: Params, grads: Params, state: AdamState, lr: float) -> tuple:
    """One bias-corrected Adam update, made in place: the params and the
    state's moments are overwritten and returned (params, state).  Every
    shape is checked before anything is written."""
    if params.keys() != grads.keys():
        raise ShapeError(f"param/grad keys differ: {sorted(params)} vs {sorted(grads)}")
    for key, p in params.items():
        if grads[key].shape != p.shape:
            raise ShapeError(f"grad {key} has shape {grads[key].shape}, param has {p.shape}")
    state.t += 1
    corr1 = 1.0 - state.beta1**state.t
    corr2 = 1.0 - state.beta2**state.t
    for key, param in params.items():
        dt = param.dtype.type
        b1, b2, c1, c2 = dt(state.beta1), dt(state.beta2), dt(1.0 - state.beta1), dt(1.0 - state.beta2)
        # blocks of leading-axis rows, so the temporaries stay in cache
        rows = max(1, _ADAM_BLOCK * len(param) // max(1, param.size))
        for at in range(0, len(param), rows):
            block = slice(at, at + rows)
            p, g, m, v = param[block], grads[key][block], state.m[key][block], state.v[key][block]
            # the operations, in the order, of
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
            # p = p - lr (m / corr1) / (sqrt(v / corr2) + eps)
            step = np.multiply(g, c1)
            m *= b1
            m += step
            np.multiply(g, g, out=step)
            step *= c2
            v *= b2
            v += step
            denom = np.divide(v, dt(corr2))
            np.sqrt(denom, out=denom)
            denom += dt(state.eps)
            np.divide(m, dt(corr1), out=step)
            step *= dt(lr)
            step /= denom
            p -= step
    return params, state


def batch_accuracy(logits: Tensor, labels: Tensor) -> float:
    """Fraction of rows whose argmax (lowest index on ties) equals the label."""
    return float(np.mean(np.argmax(logits, axis=1) == labels))


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write the full training state; the write is atomic (tmp + rename).
    The file holds no shapes, so each tensor must have its config's shape,
    and one label name per class, as load_checkpoint requires."""
    cfg, shapes = ckpt.config, param_shapes(ckpt.config)
    groups = (ckpt.params, ckpt.adam.m, ckpt.adam.v)
    if any(group[key].shape != shape for group in groups for key, shape in shapes.items()):
        raise ShapeError("checkpoint tensors do not have the shapes of the network config")
    check_label_count(ckpt.labels, cfg)
    head = _HEADER.pack(
        CHECKPOINT_MAGIC, CHECKPOINT_VERSION, ckpt.iteration, ckpt.adam.t, ckpt.learning_rate,
        cfg.num_classes, cfg.input_channels, cfg.kernel_size, cfg.input_height, cfg.input_width,
        *cfg.conv_maps, *cfg.fc_sizes, tuple(Scenario).index(ckpt.scenario),
    )
    names = [name.encode("utf-8") for name in ckpt.labels.names]
    head += struct.pack("<I", len(names)) + b"".join(struct.pack("<I", len(raw)) + raw for raw in names)
    head += bytes(-len(head) % _TENSOR_ALIGN)
    with _replaced_on_success(Path(path)) as tmp, open(tmp, "wb") as f:
        f.write(head)
        for group in groups:
            for key in shapes:
                # straight from the tensor's buffer: no bytes copy of the payload
                f.write(memoryview(np.ascontiguousarray(group[key], dtype="<f4")))


def _read_labels(fh, num_classes: int, end: int, size: int, path) -> LabelMap:
    """The label block, a field at a time.  `end` is where the tensor block
    must start; a field that runs past it leaves the file too short for the
    tensors, a FormatError at the file's end."""

    def take(n: int) -> bytes:
        if fh.tell() + n > end:
            raise FormatError(f"truncated checkpoint: wanted {n} bytes", path=path, offset=size)
        return fh.read(n)

    labels_at = fh.tell()
    count = int.from_bytes(take(4), "little")
    if count != num_classes:
        raise FormatError(f"{count} label names for {num_classes} classes", path=path, offset=labels_at)
    names = []
    for _ in range(count):
        n = int.from_bytes(take(4), "little")
        at = fh.tell()
        try:
            names.append(take(n).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError(f"name is not UTF-8: {exc.reason}", path=path, offset=at + exc.start) from None
    try:
        return LabelMap(tuple(names))
    except InvalidInputError as exc:
        raise FormatError(f"invalid label names: {exc}", path=path, offset=labels_at + 4) from None


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint back to a bit-identical training state.  The file
    size and the zero padding are checked before the tensor block is mapped
    copy-on-write; the params and both Adam moments are writable, aligned
    views of that one map, so no tensor is read until it is used, and a write
    to one never reaches the file."""
    path = Path(path)
    with open(path, "rb") as fh:
        hint = "checkpoints written before version 4 cannot be loaded"
        fields, size = _read_header(fh, path, _HEADER, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint", hint)
        _, _, iteration, adam_t, lr, num_classes, channels, kernel, in_h, in_w, *maps, scenario = fields
        try:
            cfg = NetworkConfig(
                num_classes, input_channels=channels, conv_maps=maps[:4], fc_sizes=maps[4:],
                kernel_size=kernel, input_height=in_h, input_width=in_w,
            )
        except InvalidInputError as exc:
            raise FormatError(f"invalid network config: {exc}", path=path, offset=_NETWORK_AT) from None
        if scenario >= len(Scenario):
            raise FormatError(f"no scenario has index {scenario}", path=path, offset=_SCENARIO_AT)
        shapes = param_shapes(cfg)
        sizes = [math.prod(shape) for shape in shapes.values()]  # exact ints, however large the dims
        tensor_bytes = 3 * 4 * sum(sizes)
        labels = _read_labels(fh, num_classes, size - tensor_bytes, size, path)
        labels_end = fh.tell()
        tensors_at = labels_end + -labels_end % _TENSOR_ALIGN
        _check_size(path, size, tensors_at + tensor_bytes, "checkpoint", "the header and labels describe")
        padding = fh.read(tensors_at - labels_end)
        if any(padding):
            at = labels_end + len(padding) - len(padding.lstrip(b"\0"))
            raise FormatError("checkpoint padding byte is not zero", path=path, offset=at)
        block = np.memmap(fh, dtype="<f4", mode="c", offset=tensors_at, shape=tensor_bytes // 4).view(np.ndarray)

    ends = np.cumsum(sizes)[:-1]
    params, m, v = (
        {key: part.reshape(shape) for (key, shape), part in zip(shapes.items(), np.split(group, ends))}
        for group in block.reshape(3, -1)
    )
    adam = AdamState(m=m, v=v, t=adam_t)
    return Checkpoint(cfg, params, adam, iteration, lr, labels, tuple(Scenario)[scenario])


def check_channels(scenario: Scenario, net: NetworkConfig, owner: str = "network") -> None:
    """Raise ConfigurationError unless the scenario feeds the network's input depth."""
    if scenario.input_channels != net.input_channels:
        raise ConfigurationError(
            f"scenario {scenario.value} feeds {scenario.input_channels} channels, "
            f"{owner} expects {net.input_channels}"
        )


def check_scenario(scenario: Scenario, ckpt: Checkpoint) -> None:
    """Raise ConfigurationError unless the scenario is the one the checkpoint was trained on."""
    if scenario is not ckpt.scenario:
        raise ConfigurationError(f"checkpoint was trained on scenario {ckpt.scenario.value}, not {scenario.value}")


def check_split(shards: ShardSet, net: NetworkConfig, owner: str = "network") -> None:
    """Raise ConfigurationError unless the split has records, they have the
    network's input dims, and the network has an output for each label."""
    ids, pixels = _read_shard(shards.path)
    if not ids.size:
        raise ConfigurationError(f"shard set {shards.split!r} is empty")
    (h, w), (net_h, net_w) = pixels.shape[1:3], (net.input_height, net.input_width)
    if (h, w) != (net_h, net_w):
        raise ConfigurationError(f"shards hold {h}x{w} images, {owner} expects {net_h}x{net_w}")
    if ids.max() >= net.num_classes:
        raise ConfigurationError(f"shard label {ids.max()} is out of range for a {net.num_classes}-class {owner}")


def check_label_count(labels: LabelMap, net: NetworkConfig) -> None:
    """Raise ConfigurationError unless the label map names one class per network output."""
    if labels.num_classes != net.num_classes:
        raise ConfigurationError(f"label map has {labels.num_classes} classes, network has {net.num_classes}")


def _append_metrics(path, rows):
    with open(path, "a", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _keep_metrics_up_to(path: Path, iteration: int):
    """Rewrite the metrics file atomically as its header and the complete rows
    of iterations <= iteration; at 0 no earlier file is read.  A complete row
    not starting with a decimal iteration is a FormatError at its offset."""
    kept, at = [], 0
    lines = path.read_bytes().splitlines(keepends=True) if iteration and path.exists() else []
    for n, line in enumerate(lines):
        if n and line.endswith(b"\n"):  # not the header, nor a row torn by an interrupt
            first = line.split(b",", 1)[0]
            if not first.isdigit():
                raise FormatError(f"metrics row {line!r} does not start with an iteration", path=path, offset=at)
            if int(first) <= iteration:
                kept.append(line)
        at += len(line)
    with _replaced_on_success(path) as tmp, open(tmp, "wb") as fh:
        fh.writelines([_METRICS_HEADER, *kept])


@contextmanager
def _sole_writer(directory: Path):
    """Hold an exclusive flock on the directory itself for the body, or raise
    ConfigurationError if another open of it holds one.  The kernel drops the
    lock when the descriptor is closed or its process dies, so a killed run
    leaves no stale lock, and no lock file is written."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigurationError(f"run directory {directory} is in use by another training run") from None
        yield
    finally:
        os.close(fd)


def _step(cfg: TrainConfig, state: Checkpoint, run, images: np.ndarray, labels: np.ndarray, i: int) -> tuple:
    """Iteration i on a drawn batch: augment and dropout draws from (seed, i),
    then, as two fixed slices on run's workers, train-mode preprocessing and a
    forward pass at keep_prob; one loss over the joined logits, one backward
    pass per slice, gradients summed in slice order, one Adam step on state in
    place.  Returns the preprocessed slices, which the re-score reads; the
    caches and gradients are freed on return."""
    draws = augment_draws(cfg.scenario, make_rng(cfg.seed, STREAM_AUGMENT, i), len(images))
    masks = dropout_masks(cfg.net, len(images), cfg.keep_prob, make_rng(cfg.seed, STREAM_DROPOUT, i))

    def forward_slice(rows):
        x = preprocess_batch(images[rows], cfg.scenario, None if draws is None else draws[rows])
        slice_masks = tuple(None if m is None else m[rows] for m in masks)
        logits, caches = forward(cfg.net, state.params, x, cfg.keep_prob, slice_masks)
        return x, logits, caches

    slices = batch_slices(len(images))
    xs, logits, caches = zip(*run(forward_slice, slices))
    loss, grad_logits = cross_entropy_loss(np.concatenate(logits), labels)
    if not math.isfinite(loss):
        raise TrainingDivergedError(iteration=i, loss=loss)
    grads, *rest = run(lambda rows, cache: backward(cache, grad_logits[rows]), slices, caches)
    for more in rest:  # in slice order, so the sum does not depend on the workers
        for key in grads:
            grads[key] += more[key]
    adam_step(state.params, grads, state.adam, state.learning_rate)
    return xs


def train(
    cfg: TrainConfig,
    shards: ShardSet,
    out_dir,
    labels: LabelMap,
    resume_from: Checkpoint | None = None,
    log=print,
) -> Checkpoint:
    """Run the training protocol on one Checkpoint, advanced in place, and
    return it: a fresh run builds it at iteration 0, a resume continues
    `resume_from` itself, whose arrays must be writable (load_checkpoint's
    writable arrays are copy-on-write views of the file it read).  A resume of
    another scenario, network or labels, or past cfg.iterations, and a split
    check_split refuses, are refused before anything is written or changed.
    If train raises, the object's tensors may be past its iteration: resume
    from the saved file.

    Each iteration draws a shuffled batch and runs _step on it, with BLAS at
    one thread until train returns.  Every display_interval iterations the
    batch is re-scored at keep_prob 1, the learning rate is re-derived from
    that accuracy, a metrics row is appended and the checkpoint is saved, as
    it is at the end unless the last iteration saved it.  Metrics rows past
    the start are dropped first.  One train at a time writes to out_dir: a
    second is refused with a ConfigurationError before it writes anything, as
    is a fresh run into a directory that holds a checkpoint.
    """
    check_channels(cfg.scenario, cfg.net)
    check_label_count(labels, cfg.net)
    check_split(shards, cfg.net)

    state = resume_from
    if state is None:
        params = init_params(cfg.net, make_rng(cfg.seed, STREAM_INIT))
        state = Checkpoint(cfg.net, params, AdamState.zeros_like(params), 0, LR_INITIAL, labels, cfg.scenario)
    check_scenario(cfg.scenario, state)
    if state.config != cfg.net:
        raise ConfigurationError("checkpoint network config differs from the training config")
    if state.labels != labels:
        raise ConfigurationError(
            f"checkpoint labels {list(state.labels.names)} differ from the run's {list(labels.names)}"
        )
    if state.iteration > cfg.iterations:
        raise ConfigurationError(f"checkpoint is at iteration {state.iteration}, past the configured {cfg.iterations}")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / CHECKPOINT_NAME
    metrics_path = out_dir / METRICS_NAME
    with _sole_writer(out_dir), slice_workers() as run:
        if resume_from is None and ckpt_path.exists():
            raise ConfigurationError(f"run directory {out_dir} holds a checkpoint: resume from it, or train elsewhere")
        _keep_metrics_up_to(metrics_path, state.iteration)
        stream = shuffle_batches(shards, cfg.batch_size, SHUFFLE_RESERVE + cfg.batch_size, cfg.seed, state.iteration)
        tick, first = time.perf_counter(), state.iteration + 1
        for i in range(first, cfg.iterations + 1):
            images, batch_labels = next(stream)
            xs = _step(cfg, state, run, images, batch_labels, i)
            if i % cfg.display_interval == 0:
                eval_logits = np.concatenate(run(lambda x: forward(cfg.net, state.params, x, keep_prob=1.0)[0], xs))
                eval_loss, _ = cross_entropy_loss(eval_logits, batch_labels)
                acc = batch_accuracy(eval_logits, batch_labels)
                lr = update_learning_rate(acc)
                state.iteration, state.learning_rate = i, lr
                # the row goes first: a Ctrl-C before the save completes leaves a
                # row past the checkpoint, which a resume drops and writes again
                _append_metrics(metrics_path, [[i, f"{eval_loss:.6f}", f"{acc:.6f}", f"{lr:.8f}"]])
                save_checkpoint(state, ckpt_path)
                if log is not None:
                    dt = time.perf_counter() - tick
                    log(f"iteration {i}: loss {eval_loss:.4f}, batch accuracy {acc:.4f}, lr {lr:.6f} ({dt:.1f}s)")
                    tick = time.perf_counter()
            del xs  # only the re-score reads the step's inputs

        if first > cfg.iterations or cfg.iterations % cfg.display_interval:  # else the last iteration saved it
            state.iteration = cfg.iterations
            save_checkpoint(state, ckpt_path)
    return state
