"""The three workloads.  Each is one closed loop in this process: the next
call into fruitnet starts only after the previous one returned.

Every workload builds its inputs from the seed with ``generate_corpus``, sets
up several times (the median set-up time is reported), then runs its timed
phase for ``ctx.seconds`` and checks the program's outputs as it goes.
"""

import csv
import hashlib
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SETUP_REPS = 3
BATCH = 60
PRESET = 1
NUM_CLASSES = 4


@dataclass
class Context:
    fn: object  # the fruitnet package
    seed: int
    seconds: float
    work: Path
    threads: int
    tracer: object


@dataclass
class Outcome:
    setup_s: float
    images_per_s: float
    p50_ms: float
    named: dict  # metric name -> (value, unit, note) as the workload's own terms
    checks: dict = field(default_factory=dict)  # check name -> [attempted, failed]
    notes: list = field(default_factory=list)

    def record(self, check, ok, count=1):
        tally = self.checks.setdefault(check, [0, 0])
        tally[0] += count
        tally[1] += 0 if ok else count

    @property
    def attempted(self):
        return sum(a for a, _ in self.checks.values())

    @property
    def failed(self):
        return sum(f for _, f in self.checks.values())


def _build(ctx, split_dirs, labels_file, out):
    """build_shards over a two-split tree; returns the (train, test) shard sets."""
    with ctx.tracer.span("records.build_shards"):
        return ctx.fn.build_shards(*split_dirs, labels_file, out, num_threads=ctx.threads)


def _quantile_ms(samples, q):
    return 1e3 * float(np.percentile(samples, q))


class _StopTraining(Exception):
    pass


class _IntervalClock:
    """``train``'s log callback: stamps each display interval and ends the
    run after the first one, or once the timed phase has lasted ``seconds``."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.stamps = []

    def __call__(self, *_event):
        self.stamps.append(time.perf_counter())
        if self.seconds is None or self.stamps[-1] - self.stamps[0] >= self.seconds:
            raise _StopTraining


def _metrics_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _row_ok(row):
    try:
        loss, acc, lr = (float(v) for v in row[1:])
    except ValueError:
        return False
    return len(row) == 4 and math.isfinite(loss) and 0.0 <= acc <= 1.0 and 0.0 < lr <= 1.0


def train_hsv_gray_aug(ctx):
    """Preset 1, batch 60, hsv_gray_aug, keep_prob 0.8, default shuffle
    buffer, display interval 1.  Set-up is shard build plus ``train`` up to
    the end of its first (cold) interval, repeated; the last repetition keeps
    training for the timed phase."""
    fn = ctx.fn
    corpus = fn.generate_corpus(
        ctx.work / "corpus", num_classes=NUM_CLASSES, train_per_class=50, test_per_class=5, seed=ctx.seed
    )
    labels = corpus["label_map"]
    cfg = fn.TrainConfig(
        net=fn.preset_configuration(PRESET, labels.num_classes),
        scenario=fn.Scenario.HSV_GRAY_AUG,
        iterations=10**6,  # the clock below ends the run
        batch_size=BATCH,
        keep_prob=0.8,
        display_interval=1,
        seed=ctx.seed,
    )
    setups, first_rows = [], []
    out = Outcome(0, 0, 0, {})
    for rep in range(SETUP_REPS):
        timed = rep == SETUP_REPS - 1
        clock = _IntervalClock(ctx.seconds if timed else None)
        rep_dir = ctx.work / f"train{rep}"
        start = time.perf_counter()
        shards, _ = _build(ctx, (corpus["train_dir"], corpus["test_dir"]), corpus["labels_file"], rep_dir / "records")
        try:
            with ctx.tracer.span("training.train"):
                fn.train(cfg, shards, rep_dir / "model", labels, log=clock)
        except _StopTraining:
            pass
        setups.append(clock.stamps[0] - start)
        rows = _metrics_rows(rep_dir / "model" / "metrics.csv")
        for row in rows:
            out.record("metrics row is complete and finite", _row_ok(row))
        out.record("one metrics row per display interval", len(rows) == len(clock.stamps))
        first_rows.append(rows[0] if rows else None)
        out.record("first metrics row repeats across runs of the seed", first_rows[-1] == first_rows[0])
        shutil.rmtree(rep_dir)

    stamps = clock.stamps
    intervals = np.diff(stamps)
    rate = (len(stamps) - 1) * BATCH / (stamps[-1] - stamps[0])
    out.setup_s = statistics.median(setups)
    out.images_per_s = rate
    out.p50_ms = 1e3 * float(np.median(intervals))
    out.named = {
        "train_images_per_s": (rate, "images/s", f"{len(intervals)} intervals of 1 iteration after the first"),
        "iteration_p50_ms": (out.p50_ms, "ms", "step + re-score + checkpoint"),
    }
    row = ",".join(first_rows[0] or [])
    out.notes.append(f"first metrics row: {row} (sha256 {hashlib.sha256(row.encode()).hexdigest()[:16]})")
    return out


def _interleave(seconds, ops, more=lambda: False):
    """Run units of several operations in one closed loop for ``seconds``
    (and while ``more()``).  ``ops`` is a list of (share of time, unit); the
    next unit belongs to the op furthest below its share, so every op samples
    the whole phase, not one slice of it, and slow spells of a shared machine
    hit all of them alike."""
    spent = [0.0] * len(ops)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or more():
        i = min(range(len(ops)), key=lambda j: spent[j] / ops[j][0])
        t0 = time.perf_counter()
        ops[i][1]()
        spent[i] += time.perf_counter() - t0


def _prediction_ok(pred, labels):
    return (
        0 <= pred.class_id < labels.num_classes
        and pred.class_name == labels.name_of(pred.class_id)
        and 0.0 < pred.probability <= 1.0
    )


EVAL_SHARE = 0.6  # of the timed phase; predict_image gets the rest
MIN_PREDICTIONS = 200  # so that at least 10 samples lie beyond p95


def infer_hsv_gray(ctx):
    """load_checkpoint, then evaluate at batch 60 in test mode alternating
    with predict_image on PPM files one after another.  The checkpoint is an
    untrained preset-1 network drawn from the seed: inference cost does not
    depend on the weights."""
    fn = ctx.fn
    corpus = fn.generate_corpus(
        ctx.work / "corpus", num_classes=NUM_CLASSES, train_per_class=15, test_per_class=60, seed=ctx.seed
    )
    labels = corpus["label_map"]
    net = fn.preset_configuration(PRESET, labels.num_classes)
    params = fn.init_params(net, np.random.default_rng([ctx.seed, 1]))
    model = ctx.work / "model.frck"
    fn.save_checkpoint(fn.Checkpoint(net, params, fn.AdamState.zeros_like(params), 0, 0.001, labels), model)
    images = sorted(corpus["test_dir"].rglob("*.ppm"))
    scenario = fn.Scenario.HSV_GRAY_AUG
    out = Outcome(0, 0, 0, {})

    def predict(ckpt, k):
        img = fn.read_ppm(images[k % len(images)])
        t0 = time.perf_counter()
        with ctx.tracer.span("evaluation.predict_image"):
            pred = fn.predict_image(ckpt, img, scenario)
        elapsed = time.perf_counter() - t0
        out.record("prediction is a valid class with probability in (0, 1]", _prediction_ok(pred, labels))
        return pred, elapsed

    def evaluate(ckpt, shards):
        with ctx.tracer.span("evaluation.evaluate") as span:
            report = fn.evaluate(ckpt, shards, scenario, batch_size=BATCH, log=None)
            span.work = report.total_images
        out.record("evaluate total equals the split's record count", report.total_images == shards.count)
        return report

    setups = []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        warm_set, test_set = _build(
            ctx, (corpus["train_dir"], corpus["test_dir"]), corpus["labels_file"], ctx.work / f"records{rep}"
        )
        with ctx.tracer.span("training.load_checkpoint"):
            ckpt = fn.load_checkpoint(model)
        evaluate(ckpt, warm_set)
        predict(ckpt, 0)
        setups.append(time.perf_counter() - start)

    eval_times, tallies, latencies, seen = [], [], [], {}

    def eval_unit():
        t0 = time.perf_counter()
        report = evaluate(ckpt, test_set)
        eval_times.append(time.perf_counter() - t0)
        tallies.append((report.correct, report.mislabeled))
        out.record("evaluate repeats its tally", tallies[-1] == tallies[0])

    def predict_unit():
        k = len(latencies) % len(images)
        pred, elapsed = predict(ckpt, k)
        latencies.append(elapsed)
        out.record("prediction repeats for the same image", seen.setdefault(k, pred) == pred)

    _interleave(
        ctx.seconds,
        [(EVAL_SHARE, eval_unit), (1 - EVAL_SHARE, predict_unit)],
        more=lambda: len(latencies) < MIN_PREDICTIONS or not eval_times,
    )

    eval_rate = len(eval_times) * test_set.count / sum(eval_times)
    p95 = _quantile_ms(latencies, 95)
    beyond = sum(1 for v in latencies if 1e3 * v > p95)
    out.setup_s = statistics.median(setups)
    out.images_per_s = eval_rate
    out.p50_ms = _quantile_ms(latencies, 50)
    out.named = {
        "eval_images_per_s": (eval_rate, "images/s", f"{len(eval_times)} calls over {test_set.count} images, batch {BATCH}"),
        "predict_p50_ms": (out.p50_ms, "ms", f"{len(latencies)} calls"),
        "predict_p95_ms": (p95, "ms", f"{beyond} samples beyond"),
    }
    return out


RAW_SIDE = 200
RAW_PER_CLASS = 30  # per split, so both shards of a build hold the same count
THRESHOLD = 0.1  # extract-background's default; the raw backdrop varies far less between neighbours
EXTRACT_SHARE, BUILD_SHARE, READ_SHARE = 0.5, 0.25, 0.25  # of the timed phase


def _extract(ctx, src, dst):
    """extract-background on one image: read, flood fill, white fill,
    resize to 100 x 100, write."""
    fn, span = ctx.fn, ctx.tracer.span
    with span("imaging.read_ppm"):
        img = fn.read_ppm(src)
    with span("imaging.flood_fill"):
        mask = fn.flood_fill_background(img, fn.FloodFillParams(threshold=THRESHOLD))
    with span("imaging.remove_background"):
        clean = fn.remove_background(img, mask)
    with span("imaging.resize"):
        small = fn.resize_bilinear(clean, 100, 100)
    with span("imaging.write_ppm"):
        fn.write_ppm(small, dst)


def _tree_digest(root, files):
    h = hashlib.sha256()
    for rel in files:
        h.update(str(rel).encode())
        h.update((root / rel).read_bytes())
    return h.hexdigest()


def _expected_records(root, split_dir, labels):
    """(label, raw pixel bytes) per cleaned image in shard order, parsed here
    rather than through fruitnet."""
    expected = []
    for class_dir in sorted(p for p in (root / split_dir).iterdir() if p.is_dir()):
        for path in sorted(class_dir.glob("*.ppm")):
            magic, dims, maxval, raster = path.read_bytes().split(b"\n", 3)
            if (magic, dims, maxval) != (b"P6", b"100 100", b"255") or len(raster) != 100 * 100 * 3:
                raise ValueError(f"unexpected PPM layout in {path}")
            expected.append((labels.id_of(class_dir.name), raster))
    return expected


def _read_pass(ctx, shard_sets):
    with ctx.tracer.span("records.read_pass") as span:
        n = sum(1 for s in shard_sets for _ in ctx.fn.read_examples(s))
        span.work = n
    return n


def prepare_raw(ctx):
    """Extract-background over raw 200 x 200 images, build_shards on the
    cleaned tree, and full read_examples passes over the shards.  After the
    first full extraction round the three alternate through the timed phase;
    every later round re-extracts into a fresh tree that must match the first."""
    fn = ctx.fn
    raw = fn.generate_corpus(
        ctx.work / "raw",
        num_classes=NUM_CLASSES,
        train_per_class=RAW_PER_CLASS,
        test_per_class=RAW_PER_CLASS,
        seed=ctx.seed,
        image_size=RAW_SIDE,
        style="raw",
    )
    root, labels_file, labels = ctx.work / "raw", raw["labels_file"], raw["label_map"]
    files = sorted(p.relative_to(root) for split in ("Training", "Test") for p in (root / split).rglob("*.ppm"))
    out = Outcome(0, 0, 0, {})

    def extract_tree(rels, tree, latencies):
        for rel in rels:
            dst = tree / rel
            dst.parent.mkdir(parents=True, exist_ok=True)
            t0 = time.perf_counter()
            _extract(ctx, root / rel, dst)
            latencies.append(time.perf_counter() - t0)

    def build(tree, records):
        return _build(ctx, (tree / "Training", tree / "Test"), labels_file, records)

    setups = []
    warm_files = [rel for rel in files if rel.name == "000.ppm"]  # one per class and split
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        warm = ctx.work / f"warm{rep}"
        extract_tree(warm_files, warm, [])
        warm_shards = build(warm, warm / "records")
        out.record("read pass returns every record", _read_pass(ctx, warm_shards) == len(warm_files))
        setups.append(time.perf_counter() - start)

    start = time.perf_counter()
    clean = ctx.work / "clean"
    latencies = []
    extract_tree(files, clean, latencies)
    digest = _tree_digest(clean, files)
    rounds = [1]

    def extract_unit():
        k = len(latencies) % len(files)
        tree = ctx.work / f"round{rounds[0]}"
        extract_tree(files[k : k + 1], tree, latencies)
        if k == len(files) - 1:
            out.record("extracted images repeat per seed", _tree_digest(tree, files) == digest, count=len(files))
            shutil.rmtree(tree)
            rounds[0] += 1

    build_times, read_rates = [], []
    records = ctx.work / "records"

    def build_unit():
        t0 = time.perf_counter()
        train_set, test_set = build(clean, records)
        build_times.append(time.perf_counter() - t0)
        out.record("build_shards writes every image", train_set.count + test_set.count == len(files))
        return train_set, test_set

    def read_unit():
        t0 = time.perf_counter()
        n = _read_pass(ctx, shards)
        read_rates.append(n / (time.perf_counter() - t0))
        out.record("read pass returns every record", n == len(files))

    shards = build_unit()
    expected = _expected_records(clean, "Training", labels) + _expected_records(clean, "Test", labels)
    got = [(rec.label, rec.pixels.tobytes()) for s in shards for rec in fn.read_examples(s)]
    out.record("shards read back bit-exact", got == expected)
    _interleave(
        ctx.seconds - (time.perf_counter() - start),
        [(EXTRACT_SHARE, extract_unit), (BUILD_SHARE, build_unit), (READ_SHARE, read_unit)],
        more=lambda: not read_rates,
    )

    out.setup_s = statistics.median(setups)
    out.images_per_s = len(latencies) / sum(latencies)
    out.p50_ms = _quantile_ms(build_times, 50)
    p95 = _quantile_ms(latencies, 95)
    out.named = {
        "extract_images_per_s": (out.images_per_s, "images/s", f"{len(latencies)} images"),
        "extract_p50_ms": (_quantile_ms(latencies, 50), "ms", "per image"),
        "extract_p95_ms": (p95, "ms", f"{sum(1 for v in latencies if 1e3 * v > p95)} samples beyond"),
        "build_p50_ms": (out.p50_ms, "ms", f"{len(build_times)} build_shards calls of {len(files)} images"),
        "build_records_images_per_s": (len(files) / statistics.median(build_times), "images/s", "from the median build"),
        "shard_read_images_per_s": (statistics.median(read_rates), "images/s", f"median of {len(read_rates)} passes"),
    }
    out.notes.append(f"extracted-image digest: {digest[:16]}")
    return out


WORKLOADS = {
    "train_hsv_gray_aug": train_hsv_gray_aug,
    "infer_hsv_gray": infer_hsv_gray,
    "prepare_raw": prepare_raw,
}
