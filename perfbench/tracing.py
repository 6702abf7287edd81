"""Spans recorded around calls into fruitnet, and the per-layer metrics
derived from them.

Nothing here edits the program.  Tracing replaces public functions in the
namespace of the module that calls them (for example
``fruitnet.network.conv2d_forward``, the name ``network.forward`` looks up)
with a wrapper that records one span per call, and puts the originals back
afterwards.  Spans stay in memory as (id, name, start, end, parent id, work)
and are written out when the run ends.
"""

import functools
import itertools
import json
import statistics
import threading
import time

# forward passes whose direct children are forward layer calls at batch > 1
FORWARD_PASSES = ("network.forward", "training.rescore")
BACKWARD_PASSES = ("network.backward",)


class Tracer:
    """In-memory span recorder; each thread keeps its own stack of open spans."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1, work)
        self.peaks = {}  # name -> largest value seen, for sizes computed from shapes
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        token = (next(self._ids), name, stack[-1] if stack else -1, time.perf_counter())
        stack.append(token[0])
        return token

    def close(self, token, work=0):
        end = time.perf_counter()
        self._stack().pop()
        span_id, name, parent, start = token
        self.spans.append((span_id, name, start, end, parent, work))

    def span(self, name, work=0):
        return _Span(self, name, work)

    def peak(self, name, value):
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def wrap(self, module, attr, namer, work_of_result=None):
        """Record a span around every call of ``module.attr``.

        ``namer(*args, **kwargs)`` gives (span name, work); ``work_of_result``
        may replace the work with a count read from the return value.  A name
        the module no longer has is skipped, so its metrics read zero.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            name, work = namer(*args, **kwargs)
            token = self.open(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self.close(token, work)
                raise
            self.close(token, work if work_of_result is None else work_of_result(result))
            return result

        self._patch(module, attr, orig, traced)

    def wrap_iter(self, module, attr, name, first_name=None):
        """Record a span around every ``next()`` on the iterator that
        ``module.attr`` returns; the first pull may carry its own name."""
        orig = getattr(module, attr, None)
        if orig is None:
            return

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            return self._traced_iter(orig(*args, **kwargs), name, first_name or name)

        self._patch(module, attr, orig, traced)

    def _traced_iter(self, it, name, label):
        it = iter(it)
        while True:
            token = self.open(label)
            try:
                item = next(it)
            except StopIteration:
                self.close(token)
                return
            except BaseException:
                self.close(token)
                raise
            self.close(token, 1)
            label = name
            yield item

    def _patch(self, module, attr, orig, replacement):
        setattr(module, attr, replacement)
        self._patches.append((module, attr, orig))

    def restore(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start_s", "end_s", "parent", "work"],
                    "spans": sorted(self.spans),
                },
                fh,
            )


class _Span:
    __slots__ = ("tracer", "name", "work", "token")

    def __init__(self, tracer, name, work):
        self.tracer, self.name, self.work = tracer, name, work

    def __enter__(self):
        self.token = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.token, self.work)
        return False


class NullTracer:
    """Stand-in for untraced runs: a span is a shared no-op context manager."""

    def span(self, name, work=0):
        return _NULL_SPAN

    def restore(self):
        pass


class _NullSpan:
    work = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


def instrument(tracer, fruitnet, conv_maps, input_channels, kernel):
    """Wrap the fruitnet functions the workloads reach, where their callers
    look them up.  Layer indices come from channel counts, which are distinct
    at preset 1."""
    network, training, evaluation, records = (
        fruitnet.network,
        fruitnet.training,
        fruitnet.evaluation,
        fruitnet.records,
    )
    index_of = {maps: i + 1 for i, maps in enumerate(conv_maps)}
    depths = (input_channels,) + tuple(conv_maps)

    def conv_fwd(x, w, bias):
        n, h, wd, ci = x.shape
        co = w.shape[3]
        i = index_of[co]
        patch = n * h * wd * kernel * kernel * ci
        tracer.peak(f"layers.conv{i}.im2col_bytes", patch * x.dtype.itemsize)
        return f"layers.conv{i}.fwd", 2 * patch * co

    def conv_bwd(grad_y, cache, input_grad=True):
        n, h, wd, co = grad_y.shape
        i = index_of[co]
        gemm = 2 * n * h * wd * kernel * kernel * depths[i - 1] * co
        return f"layers.conv{i}.bwd", gemm * (2 if input_grad else 1)

    def pool_fwd(x):
        return f"layers.pool{index_of[x.shape[3]]}.fwd", 0

    def pool_bwd(grad_y, cache):
        return f"layers.pool{index_of[grad_y.shape[3]]}.bwd", 0

    def named(name):
        return lambda *args, **kwargs: (name, 0)

    tracer.wrap(network, "conv2d_forward", conv_fwd)
    tracer.wrap(network, "conv2d_backward", conv_bwd)
    tracer.wrap(network, "maxpool_forward", pool_fwd)
    tracer.wrap(network, "maxpool_backward", pool_bwd)
    tracer.wrap(network, "relu", named("layers.relu.fwd"))
    tracer.wrap(network, "relu_backward", named("layers.relu.bwd"))
    tracer.wrap(network, "fc_forward", named("layers.fc.fwd"))
    tracer.wrap(network, "fc_backward", named("layers.fc.bwd"))
    tracer.wrap(network, "dropout", named("layers.dropout"))

    def train_forward(net, params, x, keep_prob=1.0, rng=None):
        return ("training.rescore" if keep_prob == 1.0 else "network.forward"), x.shape[0]

    def eval_forward(net, params, x, keep_prob=1.0, rng=None):
        return ("network.forward.b1" if x.shape[0] == 1 else "network.forward"), x.shape[0]

    def batch_named(name):
        return lambda images, *args, **kwargs: (name, len(images))

    tracer.wrap_iter(training, "cycle_records", "records.read")
    tracer.wrap_iter(training, "shuffle_batches", "records.batch_wait", first_name="records.buffer_fill")
    tracer.wrap(training, "preprocess_batch", batch_named("augmentation.preprocess_batch_train"))
    tracer.wrap(training, "forward", train_forward)
    tracer.wrap(training, "backward", named("network.backward"))
    tracer.wrap(training, "adam_step", named("training.adam_step"))
    tracer.wrap(training, "save_checkpoint", named("training.save_checkpoint"))

    tracer.wrap_iter(evaluation, "read_examples", "records.read")
    tracer.wrap_iter(evaluation, "sequential_batches", "records.sequential_batch")
    tracer.wrap(evaluation, "preprocess_batch", batch_named("augmentation.preprocess_batch_test"))
    tracer.wrap(evaluation, "preprocess", named("augmentation.preprocess"))
    tracer.wrap(evaluation, "forward", eval_forward)
    tracer.wrap(evaluation, "resize_bilinear", named("evaluation.predict_resize"))

    tracer.wrap(records, "write_shard", named("records.write_shard"), work_of_result=int)
    tracer.wrap(records, "read_ppm", named("records.decode.read_ppm"))
    tracer.wrap(records, "resize_bilinear", named("records.decode.resize"))
    tracer.wrap(records, "to_u8", named("records.decode.to_u8"))


# name, unit: every per-layer metric a traced run reports, in print order
PER_LAYER = [
    ("records.buffer_fill_s", "s"),
    ("records.batch_wait_ms", "ms"),
    ("records.read_images_per_s", "images/s"),
    ("records.write_shard_ms", "ms"),
    ("records.decode_ms", "ms"),
    ("records.images_read", "count"),
    ("records.images_written", "count"),
    ("augmentation.preprocess_batch_train_ms", "ms"),
    ("augmentation.preprocess_batch_test_ms", "ms"),
    ("augmentation.preprocess_ms", "ms"),
    ("augmentation.images", "count"),
]
for _i in (1, 2, 3, 4):
    PER_LAYER += [
        (f"layers.conv{_i}.fwd_ms", "ms"),
        (f"layers.conv{_i}.bwd_ms", "ms"),
        (f"layers.conv{_i}.fwd_gflop_per_s", "GFLOP/s"),
        (f"layers.conv{_i}.bwd_gflop_per_s", "GFLOP/s"),
        (f"layers.conv{_i}.im2col_mb", "MB"),
    ]
for _i in (1, 2, 3, 4):
    PER_LAYER += [(f"layers.pool{_i}.fwd_ms", "ms"), (f"layers.pool{_i}.bwd_ms", "ms")]
PER_LAYER += [
    ("layers.relu.fwd_ms", "ms"),
    ("layers.relu.bwd_ms", "ms"),
    ("layers.fc.fwd_ms", "ms"),
    ("layers.fc.bwd_ms", "ms"),
    ("layers.dropout_ms", "ms"),
    ("network.forward_ms", "ms"),
    ("network.forward_self_ms", "ms"),
    ("network.forward_b1_ms", "ms"),
    ("network.backward_ms", "ms"),
    ("network.forward_calls", "count"),
    ("network.backward_calls", "count"),
    ("training.adam_step_ms", "ms"),
    ("training.rescore_ms", "ms"),
    ("training.save_checkpoint_ms", "ms"),
    ("training.load_checkpoint_ms", "ms"),
    ("training.iterations", "count"),
    ("evaluation.evaluate_self_ms", "ms"),
    ("evaluation.predict_resize_ms", "ms"),
    ("evaluation.images", "count"),
    ("imaging.read_ppm_ms", "ms"),
    ("imaging.flood_fill_ms", "ms"),
    ("imaging.remove_background_ms", "ms"),
    ("imaging.resize_ms", "ms"),
    ("imaging.write_ppm_ms", "ms"),
    ("imaging.images", "count"),
]


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer):
    """Reduce the spans to the PER_LAYER figures.  A layer this workload never
    reached reads 0.  Each ``_ms`` is a median per call; for a layer called
    more than once per network pass (relu, fc, dropout) it is the median per
    pass of their summed time, taken over batched passes only."""
    spans = tracer.spans
    dur, work = {}, {}
    for _, name, start, end, _, w in spans:
        dur.setdefault(name, []).append(end - start)
        work.setdefault(name, []).append(w)

    passes = {sid: name for sid, name, *_ in spans if name in FORWARD_PASSES + BACKWARD_PASSES}
    per_pass = {}  # (pass id, child name) -> summed seconds
    child_sum = {}  # parent id -> summed seconds of direct children
    rates = {}  # conv span name -> list of work per second
    for _, name, start, end, parent, w in spans:
        child_sum[parent] = child_sum.get(parent, 0.0) + (end - start)
        if parent in passes:
            key = (parent, name)
            per_pass[key] = per_pass.get(key, 0.0) + (end - start)
            if name.startswith("layers.conv") and end > start:
                rates.setdefault(name, []).append(w / (end - start))

    def ms(name):
        return 1e3 * _median(dur.get(name, []))

    def layer_ms(name):
        return 1e3 * _median([s for (p, n), s in per_pass.items() if n == name])

    def self_ms(name):
        return 1e3 * _median(
            [(end - start) - child_sum.get(sid, 0.0) for sid, n, start, end, _, _ in spans if n == name]
        )

    def count(*names):
        return sum(len(dur.get(n, [])) for n in names)

    def total_work(*names):
        return sum(sum(work.get(n, [])) for n in names)

    read_names = ("records.read", "records.read_pass")
    read_time = sum(sum(dur.get(n, [])) for n in read_names)
    out = {
        "records.buffer_fill_s": _median(dur.get("records.buffer_fill", [])),
        "records.batch_wait_ms": ms("records.batch_wait"),
        "records.read_images_per_s": total_work(*read_names) / read_time if read_time else 0.0,
        "records.write_shard_ms": ms("records.write_shard"),
        "records.decode_ms": ms("records.decode.read_ppm") + ms("records.decode.resize") + ms("records.decode.to_u8"),
        "records.images_read": total_work(*read_names),
        "records.images_written": total_work("records.write_shard"),
        "augmentation.preprocess_batch_train_ms": ms("augmentation.preprocess_batch_train"),
        "augmentation.preprocess_batch_test_ms": ms("augmentation.preprocess_batch_test"),
        "augmentation.preprocess_ms": ms("augmentation.preprocess"),
        "augmentation.images": total_work(
            "augmentation.preprocess_batch_train", "augmentation.preprocess_batch_test"
        )
        + count("augmentation.preprocess"),
    }
    for i in (1, 2, 3, 4):
        conv = f"layers.conv{i}"
        out[f"{conv}.fwd_ms"] = layer_ms(f"{conv}.fwd")
        out[f"{conv}.bwd_ms"] = layer_ms(f"{conv}.bwd")
        out[f"{conv}.fwd_gflop_per_s"] = _median(rates.get(f"{conv}.fwd", [])) / 1e9
        out[f"{conv}.bwd_gflop_per_s"] = _median(rates.get(f"{conv}.bwd", [])) / 1e9
        out[f"{conv}.im2col_mb"] = tracer.peaks.get(f"{conv}.im2col_bytes", 0) / 1e6
    for i in (1, 2, 3, 4):
        out[f"layers.pool{i}.fwd_ms"] = layer_ms(f"layers.pool{i}.fwd")
        out[f"layers.pool{i}.bwd_ms"] = layer_ms(f"layers.pool{i}.bwd")
    out.update(
        {
            "layers.relu.fwd_ms": layer_ms("layers.relu.fwd"),
            "layers.relu.bwd_ms": layer_ms("layers.relu.bwd"),
            "layers.fc.fwd_ms": layer_ms("layers.fc.fwd"),
            "layers.fc.bwd_ms": layer_ms("layers.fc.bwd"),
            "layers.dropout_ms": layer_ms("layers.dropout"),
            "network.forward_ms": ms("network.forward"),
            "network.forward_self_ms": self_ms("network.forward"),
            "network.forward_b1_ms": ms("network.forward.b1"),
            "network.backward_ms": ms("network.backward"),
            "network.forward_calls": count("network.forward", "network.forward.b1", "training.rescore"),
            "network.backward_calls": count("network.backward"),
            "training.adam_step_ms": ms("training.adam_step"),
            "training.rescore_ms": ms("training.rescore"),
            "training.save_checkpoint_ms": ms("training.save_checkpoint"),
            "training.load_checkpoint_ms": ms("training.load_checkpoint"),
            "training.iterations": count("training.adam_step"),
            "evaluation.evaluate_self_ms": self_ms("evaluation.evaluate"),
            "evaluation.predict_resize_ms": ms("evaluation.predict_resize"),
            "evaluation.images": total_work("evaluation.evaluate") + count("evaluation.predict_image"),
            "imaging.read_ppm_ms": ms("imaging.read_ppm"),
            "imaging.flood_fill_ms": ms("imaging.flood_fill"),
            "imaging.remove_background_ms": ms("imaging.remove_background"),
            "imaging.resize_ms": ms("imaging.resize"),
            "imaging.write_ppm_ms": ms("imaging.write_ppm"),
            "imaging.images": count("imaging.write_ppm"),
        }
    )
    return out
