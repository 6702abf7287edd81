"""Batch slices on worker threads: results depend on the fixed slicing, not
on the worker count; BLAS goes back to its thread count however train and
evaluate end; the in-place Adam step gives the same bits as the formulas it
replaces."""

import threading

import numpy as np
import pytest

from fruitnet import _parallel, training
from fruitnet.augmentation import Scenario
from fruitnet.errors import ConfigurationError, ShapeError
from fruitnet.evaluation import evaluate
from fruitnet.network import NetworkConfig, init_params
from fruitnet.records import LabelMap
from fruitnet.seeding import make_rng
from fruitnet.training import AdamState, adam_step, load_checkpoint, save_checkpoint, train

from test_evaluation import random_checkpoint, random_records, shard_records
from test_training import tiny_cfg, tiny_corpus

AUG_NET = NetworkConfig(num_classes=3, input_channels=4, conv_maps=(2, 2, 2, 2), fc_sizes=(8, 6))


def aug_cfg(iterations):
    # an odd batch, so the two slices differ in size
    return tiny_cfg(iterations, net=AUG_NET, scenario=Scenario.HSV_GRAY_AUG, batch_size=5)


def workers(monkeypatch, n):
    monkeypatch.setattr(_parallel, "_worker_count", lambda: n)


@pytest.fixture
def blas():
    """numpy's BLAS thread functions, at 2 threads for the test."""
    funcs = _parallel._blas_threads()
    if funcs is None:
        pytest.skip("numpy's BLAS exposes no thread control here")
    get, put = funcs
    before = get()
    put(2)
    yield get
    put(before)


@pytest.mark.parametrize("n, want", [(1, [(0, 1)]), (2, [(0, 1), (1, 2)]), (5, [(0, 3), (3, 5)]), (60, [(0, 30), (30, 60)])])
def test_batches_split_in_two_fixed_slices(n, want):
    assert [(s.start, s.stop) for s in _parallel.batch_slices(n)] == want


def test_one_worker_reproduces_two_workers_bit_for_bit(tmp_path, monkeypatch):
    shards, labels = tiny_corpus(tmp_path)
    runs = {}
    for n in (1, 2):
        workers(monkeypatch, n)
        out = tmp_path / f"workers{n}"
        train(aug_cfg(4), shards, out, labels, log=None)
        runs[n] = ((out / "checkpoint.frck").read_bytes(), (out / "metrics.csv").read_bytes())
    assert runs[1] == runs[2]


def test_evaluate_reports_agree_for_one_and_two_workers(tmp_path, monkeypatch):
    shards = shard_records(tmp_path, random_records(7, seed=3))  # batches of 5 and 2
    reports = []
    for n in (1, 2):
        workers(monkeypatch, n)
        reports.append(evaluate(random_checkpoint(1), shards, Scenario.RGB, batch_size=5, log=None))
    assert reports[0] == reports[1]
    assert reports[0].total_images == 7


def test_one_adam_step_per_iteration_on_the_calling_thread(tmp_path, monkeypatch):
    shards, labels = tiny_corpus(tmp_path)
    threads = []

    def counted(*args):
        threads.append(threading.current_thread())
        return adam_step(*args)

    monkeypatch.setattr(training, "adam_step", counted)
    train(aug_cfg(3), shards, tmp_path / "run", labels, log=None)
    assert threads == [threading.main_thread()] * 3


class _Stop(Exception):
    pass


def stop_with(exc):
    def log(_line):
        raise exc

    return log


@pytest.mark.parametrize("n", [1, 2])
def test_train_pins_blas_to_one_thread_and_restores_it(tmp_path, monkeypatch, blas, n):
    shards, labels = tiny_corpus(tmp_path)
    workers(monkeypatch, n)
    seen = []
    train(aug_cfg(4), shards, tmp_path / "run", labels, log=lambda _line: seen.append(blas()))
    assert seen == [1, 1]
    assert blas() == 2


@pytest.mark.parametrize("exc", [_Stop(), KeyboardInterrupt()])
def test_train_restores_blas_when_it_raises(tmp_path, blas, exc):
    shards, labels = tiny_corpus(tmp_path)
    with pytest.raises(type(exc)):
        train(aug_cfg(4), shards, tmp_path / "run", labels, log=stop_with(exc))
    assert blas() == 2


def test_an_error_on_a_worker_reaches_the_caller_and_blas_is_restored(tmp_path, monkeypatch, blas):
    shards, labels = tiny_corpus(tmp_path)
    workers(monkeypatch, 2)

    def failing_backward(*args):
        raise _Stop

    monkeypatch.setattr(training, "backward", failing_backward)
    with pytest.raises(_Stop):
        train(aug_cfg(2), shards, tmp_path / "run", labels, log=None)
    assert blas() == 2


@pytest.mark.parametrize("exc", [None, _Stop(), KeyboardInterrupt()])
def test_evaluate_restores_blas_on_return_and_when_it_raises(tmp_path, blas, exc):
    shards = shard_records(tmp_path, random_records(4))
    seen = []

    def log(_line):
        seen.append(blas())
        if exc is not None:
            raise exc

    if exc is None:
        evaluate(random_checkpoint(), shards, Scenario.RGB, batch_size=2, log=log)
        assert seen == [1, 1]
    else:
        with pytest.raises(type(exc)):
            evaluate(random_checkpoint(), shards, Scenario.RGB, batch_size=2, log=log)
    assert blas() == 2


def out_of_place_adam(params, grads, state, lr):
    """The Adam update as plain expressions that build new arrays."""
    t = state.t + 1
    corr1, corr2 = 1.0 - state.beta1**t, 1.0 - state.beta2**t
    new_p, new_m, new_v = {}, {}, {}
    for key, p in params.items():
        g, dt = grads[key], p.dtype.type
        m = dt(state.beta1) * state.m[key] + dt(1.0 - state.beta1) * g
        v = dt(state.beta2) * state.v[key] + dt(1.0 - state.beta2) * (g * g)
        new_p[key] = p - dt(lr) * (m / dt(corr1)) / (np.sqrt(v / dt(corr2)) + dt(state.eps))
        new_m[key], new_v[key] = m, v
    return new_p, AdamState(m=new_m, v=new_v, t=t)


def test_in_place_adam_is_bit_identical_to_the_out_of_place_formula():
    rng = np.random.default_rng(4)
    params = init_params(AUG_NET, make_rng(4))
    ref_p, ref_s = {k: p.copy() for k, p in params.items()}, AdamState.zeros_like(params)
    state = AdamState.zeros_like(params)
    arrays = [id(a) for a in (*params.values(), *state.m.values(), *state.v.values())]
    for lr in (1e-3, 7.3e-4, 1e-5, 2.5e-4):
        grads = {k: rng.normal(scale=0.1, size=p.shape).astype(np.float32) for k, p in params.items()}
        params, state = adam_step(params, grads, state, lr)
        ref_p, ref_s = out_of_place_adam(ref_p, grads, ref_s, lr)
        assert state.t == ref_s.t
        for key in params:
            assert np.array_equal(params[key], ref_p[key]), key
            assert np.array_equal(state.m[key], ref_s.m[key]), key
            assert np.array_equal(state.v[key], ref_s.v[key]), key
    assert [id(a) for a in (*params.values(), *state.m.values(), *state.v.values())] == arrays


def test_adam_checks_every_shape_before_writing_any():
    params = {"a": np.ones(3, dtype=np.float32), "b": np.ones(2, dtype=np.float32)}
    grads = {"a": np.ones(3, dtype=np.float32), "b": np.ones(4, dtype=np.float32)}
    state = AdamState.zeros_like(params)
    with pytest.raises(ShapeError):
        adam_step(params, grads, state, 0.1)
    assert state.t == 0 and (params["a"] == 1).all() and (state.m["a"] == 0).all()


def test_a_resume_continues_the_callers_checkpoint_and_returns_it(tmp_path):
    shards, labels = tiny_corpus(tmp_path)
    train(aug_cfg(2), shards, tmp_path / "run", labels, log=None)
    mid = load_checkpoint(tmp_path / "run" / "checkpoint.frck")
    arrays = [id(a) for a in (*mid.params.values(), *mid.adam.m.values(), *mid.adam.v.values())]
    back = train(aug_cfg(4), shards, tmp_path / "run", labels, resume_from=mid, log=None)
    assert back is mid
    assert (mid.iteration, mid.adam.t) == (4, 4)
    assert [id(a) for a in (*mid.params.values(), *mid.adam.m.values(), *mid.adam.v.values())] == arrays
    save_checkpoint(mid, tmp_path / "returned.frck")
    assert (tmp_path / "returned.frck").read_bytes() == (tmp_path / "run" / "checkpoint.frck").read_bytes()


OTHER_NET = NetworkConfig(num_classes=3, input_channels=4, conv_maps=(2, 2, 2, 3), fc_sizes=(8, 6))


@pytest.mark.parametrize(
    "refused",
    [
        lambda labels: (tiny_cfg(4, net=OTHER_NET, scenario=Scenario.HSV_GRAY_AUG, batch_size=5), labels),
        lambda labels: (aug_cfg(4), LabelMap.from_names(reversed(labels.names[1:]))),
        lambda labels: (aug_cfg(1), labels),
    ],
    ids=["network", "labels", "iteration"],
)
def test_a_refused_resume_leaves_the_checkpoint_untouched_and_writes_nothing(tmp_path, refused):
    shards, labels = tiny_corpus(tmp_path)
    run = tmp_path / "run"
    train(aug_cfg(2), shards, run, labels, log=None)
    files = {path.name: path.read_bytes() for path in run.iterdir()}
    mid = load_checkpoint(run / "checkpoint.frck")
    cfg, run_labels = refused(labels)
    with pytest.raises(ConfigurationError):
        train(cfg, shards, run, run_labels, resume_from=mid, log=None)
    assert {path.name: path.read_bytes() for path in run.iterdir()} == files
    save_checkpoint(mid, tmp_path / "after.frck")  # every field and tensor, bit for bit
    assert (tmp_path / "after.frck").read_bytes() == files["checkpoint.frck"]
