import concurrent.futures
import itertools
import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import cgnp.training as training
from cgnp.autodiff import Parameter, backward, nll_terms
from cgnp.gp import (
    EpisodeBatch,
    EqKernelSpec,
    ProtocolConfig,
    bucket_episodes,
    make_test_set,
    make_train_batch,
)
from cgnp.models import ModelConfig, init_params
from cgnp.training import (
    COMPARE_VARIANTS,
    Metrics,
    TrainConfig,
    TrainingDivergedError,
    batch_loss,
    compare_models,
    evaluate,
    loss_drop,
    train,
)
from autodiff_oracle import reference_backward, topo_order
from compare_oracle import sequential_compare
from helpers import episode, predict
from metrics_oracle import prediction_metrics, sequential_evaluate

KERNEL = EqKernelSpec()
FIELDS = ("x_c", "y_c", "x_t", "y_t", "index")


def tiny_config(kind="cnp", batches=30, **kw):
    return TrainConfig(
        model=ModelConfig(kind=kind, latent_dim=8, radius=0.7, init_seed=kw.pop("init_seed", 0)),
        kernel=KERNEL,
        protocol=ProtocolConfig(
            train_batches=batches,
            batch_size=kw.pop("batch_size", 8),
            test_episodes=4,
            master_seed=kw.pop("master_seed", 0),
        ),
        eval_every=kw.pop("eval_every", 0),
        heldout_episodes=kw.pop("heldout_episodes", 0),
        **kw,
    )


# ---------------------------------------------------------------------------
# batch loss
# ---------------------------------------------------------------------------


def test_perfect_predictor_loss_value():
    # mu = y and sigma at the 0.1 floor: 0.5*ln(2*pi*0.01) per point
    from cgnp.autodiff import gaussian_nll

    y = np.linspace(-1, 1, 12)[:, None]
    loss = gaussian_nll(y, np.column_stack([y, np.full_like(y, -1e6)]))  # softplus(-1e6) is 0
    np.testing.assert_allclose(loss.value[0, 0], 0.5 * math.log(2 * math.pi * 0.01), rtol=1e-12)
    np.testing.assert_allclose(loss.value[0, 0], -1.38365, atol=1e-5)


def test_duplicating_episodes_leaves_loss_unchanged():
    batch = make_train_batch(ProtocolConfig(batch_size=4), KERNEL, 0)
    cfg = ModelConfig(kind="cnp")
    store = init_params(cfg)
    base = float(batch_loss(batch, store).value[0, 0])
    doubled = EpisodeBatch(*(np.concatenate([a, a]) for a in (batch.x_c, batch.y_c, batch.x_t, batch.y_t)))
    dup = float(batch_loss(doubled, store).value[0, 0])
    assert abs(dup - base) <= 1e-12


def test_loss_finite_at_initialization_for_100_batches():
    proto = ProtocolConfig(batch_size=8)
    for kind in ("cnp", "cgnp"):
        cfg = ModelConfig(kind=kind, init_seed=1)
        store = init_params(cfg)
        for b in range(100):
            loss = batch_loss(make_train_batch(proto, KERNEL, b), store)
            assert np.isfinite(loss.value[0, 0])


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def test_training_is_deterministic():
    stores, reports = [], []
    for _ in range(2):
        store, report = train(tiny_config(batches=25))
        stores.append(store)
        reports.append(report)
    assert np.array_equal(reports[0].losses, reports[1].losses)
    for name, p in stores[0].params.items():
        assert np.array_equal(p.value, stores[1].params[name].value)


def test_trained_parameters_stay_in_the_packed_buffers():
    # a parameter rebound to a fresh array would silently stop being updated
    store, _ = train(tiny_config("cgnp", batches=3))
    params = store.parameters()
    assert store.value.size == store.grad.size == sum(p.value.size for p in params)
    for p in params:
        assert p.value.base is store.value and p.grad.base is store.grad, p.name


@pytest.mark.parametrize(
    "cfg, nodes, ops",
    [(ModelConfig(kind="cnp"), 27, 9), (ModelConfig(kind="cgnp", radius=0.7), 29, 11)],
    ids=["cnp", "cgnp"],
)
def test_training_step_tape_size_budget(cfg, nodes, ops):
    # pinned: a change to the tape size re-pins these, with a note in CHANGES.md
    order = topo_order(batch_loss(make_train_batch(ProtocolConfig(), KERNEL, 0), init_params(cfg)))
    assert (len(order), sum(node._vjp is not None for node in order)) == (nodes, ops)


@pytest.mark.parametrize(
    "cfg", [ModelConfig(kind="cnp"), ModelConfig(kind="cgnp", radius=0.7)], ids=["cnp", "cgnp"]
)
def test_no_data_leaf_of_a_training_step_holds_a_gradient(cfg):
    # the episode data enter the tape as raw arrays, constants that take no gradient
    store = init_params(cfg)
    loss = batch_loss(make_train_batch(ProtocolConfig(), KERNEL, 0), store)
    backward(loss)
    order = topo_order(loss)
    leaves = [node for node in order if node._vjp is None]
    assert {id(p) for p in leaves if isinstance(p, Parameter)} == {id(p) for p in store.parameters()}
    assert [node.shape for node in leaves if not isinstance(node, Parameter) and node.grad is not None] == []
    # an op of constants alone is a constant too, no op node without Tensor parents
    assert [node.shape for node in order if node._vjp is not None and not node._parents] == []


@pytest.mark.parametrize(
    "cfg", [ModelConfig(kind="cnp"), ModelConfig(kind="cgnp", radius=0.7)], ids=["cnp", "cgnp"]
)
def test_backward_gradients_equal_the_depth_first_oracle_on_a_training_batch(cfg):
    batch = make_train_batch(ProtocolConfig(), KERNEL, 0)
    store, ref_store = init_params(cfg), init_params(cfg)
    backward(batch_loss(batch, store))
    reference_backward(batch_loss(batch, ref_store))
    for p, q in zip(store.parameters(), ref_store.parameters()):
        assert p.name == q.name and np.array_equal(p.grad, q.grad), p.name


def test_training_decreases_loss_on_short_run():
    _, report = train(tiny_config(batches=800, batch_size=16))
    first, last = report.losses[:100].mean(), report.losses[-100:].mean()
    assert last < first


def test_training_logs_and_heldout(capsys):
    seen = []
    _, report = train(
        tiny_config(batches=12, eval_every=5, heldout_episodes=3),
        log=lambda b, loss, metrics: seen.append((b, loss, metrics)),
    )
    assert [s[0] for s in seen] == [0, 5, 10, 11]
    assert all(isinstance(s[2], Metrics) for s in seen)
    assert report.final_metrics is not None
    assert [b for b, _ in report.heldout] == [0, 5, 10, 11]


def test_nan_loss_aborts_with_diagnostics(monkeypatch):
    # finite values (episodes reject NaN) large enough that the loss
    # overflows; numpy reports no warning on the way to the error
    poisoned = episode([0.0, 1.0], [0.0, 1e200], [0.5, 1.5], [0.0, 1e200])

    def bad_batch(cfg, spec, index):
        return bucket_episodes((poisoned, poisoned))[0]

    monkeypatch.setattr(training, "make_train_batch", bad_batch)
    with pytest.raises(TrainingDivergedError, match=r"batch 0; .*; train\.lr=0\.001$"):
        train(tiny_config(batches=5))


def test_final_metrics_reuse_the_last_heldout_evaluation(monkeypatch):
    calls = []
    real_evaluate = training.evaluate

    def counting_evaluate(*args, **kwargs):
        calls.append(1)
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(training, "evaluate", counting_evaluate)
    _, report = train(tiny_config(batches=12, eval_every=5, heldout_episodes=3))
    assert [b for b, _ in report.heldout] == [0, 5, 10, 11]
    assert len(calls) == 4
    assert report.final_metrics == report.heldout[-1][1]

    calls.clear()
    _, report = train(tiny_config(batches=12, eval_every=0, heldout_episodes=3))
    assert len(calls) == 1 and report.heldout == []
    assert isinstance(report.final_metrics, Metrics)


def test_train_config_validation():
    with pytest.raises(ValueError, match="learning rate"):
        tiny_config(lr=0.0)
    with pytest.raises(ValueError, match="batch_size"):
        tiny_config(batch_size=1)
    for lr in (math.nan, math.inf):
        with pytest.raises(ValueError, match="learning rate"):
            tiny_config(lr=lr)
    with pytest.raises(ValueError, match="eval_every"):
        tiny_config(eval_every=-5)
    # exact types, as ModelConfig checks them, so a bool is rejected too
    for name, value, message in [
        ("heldout_episodes", -5, "heldout_episodes must be non-negative, got -5"),
        ("heldout_episodes", 2.5, "heldout_episodes must be an int, got 2.5"),
        ("heldout_episodes", True, "heldout_episodes must be an int, got True"),
        ("eval_every", 2.0, "eval_every must be an int, got 2.0"),
        ("eval_every", False, "eval_every must be an int, got False"),
        ("lr", True, "lr must be an int or float, got True"),
        ("lr", "0.1", "lr must be an int or float, got '0.1'"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            tiny_config(**{name: value})


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def grid_episodes(count, seed=0):
    rng = np.random.default_rng(seed)
    grid = np.linspace(-2, 2, 50)
    episodes = []
    for _ in range(count):
        y = rng.standard_normal(50)
        episodes.append(episode(grid[:5], y[:5], grid[5:], y[5:]))
    return episodes


def test_trivial_predictor_matches_prior_baseline():
    # a zero head weight and bias [0, ln(e - 1)] give mu = 0 and
    # sigma = 0.1 + 0.9 * softplus(ln(e - 1)) = 1 on GP-protocol episodes:
    # mse near the prior variance, nll near 0.5*ln(2*pi) + 0.5
    episodes = training.make_heldout_set(ProtocolConfig(), KERNEL, 300)
    cfg = ModelConfig(kind="cgnp", init_seed=1)
    store = init_params(cfg)
    store["dec2.w"].value[...] = 0.0
    store["dec2.b"].value[...] = [[0.0, math.log(math.e - 1.0)]]
    m = evaluate(store, episodes)
    np.testing.assert_allclose(m.mse, 1.0, atol=0.05)
    np.testing.assert_allclose(m.nll_per_point, 0.5 * math.log(2 * math.pi) + 0.5, atol=0.05)
    assert m.episode_count == 300


def test_metrics_invariant_to_episode_order():
    episodes = grid_episodes(20)
    cfg = ModelConfig(kind="cnp", init_seed=2)
    store = init_params(cfg)
    a = evaluate(store, bucket_episodes(episodes))
    b = evaluate(store, bucket_episodes(episodes[::-1]))
    np.testing.assert_allclose(a.nll_per_point, b.nll_per_point, rtol=1e-9)
    np.testing.assert_allclose(a.mse, b.mse, rtol=1e-9)
    assert a.episode_count == b.episode_count == 20


def test_evaluate_on_a_ragged_set_matches_per_episode_forwards(monkeypatch):
    # episodes of several (N_c, N_t) shapes, interleaved, with chunks small
    # enough that one shape group spans several stacked forwards
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 20)
    rng = np.random.default_rng(11)
    episodes = []
    for k in range(23):
        n_c, n_t = 3 + k % 3, (2, 9, 25)[k % 4 % 3]
        xs = rng.uniform(-2, 2, n_c + n_t)
        ys = rng.standard_normal(n_c + n_t)
        episodes.append(episode(xs[:n_c], ys[:n_c], xs[n_c:], ys[n_c:]))
    for kind in ("cnp", "cgnp"):
        cfg = ModelConfig(kind=kind, init_seed=4)
        store = init_params(cfg)
        for state in store.bn.values():
            state.running_mean[...] = rng.standard_normal(state.running_mean.shape) * 0.1
            state.running_var[...] = rng.uniform(0.5, 2.0, state.running_var.shape)
        got = evaluate(store, bucket_episodes(episodes))
        want = prediction_metrics([predict(ep, store) for ep in episodes], episodes)
        assert got.episode_count == want.episode_count == 23
        for name in ("nll_per_point", "nll_per_episode", "mse"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, err_msg=name)


def test_nll_normalizations_are_consistent():
    episodes = grid_episodes(15)
    cfg = ModelConfig(kind="cnp", init_seed=2)
    store = init_params(cfg)
    m = evaluate(store, bucket_episodes(episodes))
    mean_targets = np.mean([ep.n_target for ep in episodes])
    np.testing.assert_allclose(m.nll_per_episode, m.nll_per_point * mean_targets, rtol=1e-12)


def test_nll_terms_formula():
    val = nll_terms(np.array([1.0]), np.array([0.0]), np.array([1.0]))[0]
    np.testing.assert_allclose(val, 0.5 * math.log(2 * math.pi) + 0.5, rtol=1e-14)


def test_evaluate_rejects_an_empty_episode_set():
    cfg = ModelConfig(kind="cnp")
    with pytest.raises(ValueError, match="at least one episode"):
        evaluate(init_params(cfg), [])


@pytest.mark.parametrize("kind", ["cnp", "cgnp"])
def test_evaluate_builds_no_tape_and_leaves_taping_on_when_it_returns_or_raises(monkeypatch, kind):
    cfg = ModelConfig(kind=kind, init_seed=3)
    train_batch = make_train_batch(ProtocolConfig(batch_size=8), KERNEL, 0)

    def step_grads(store):
        backward(batch_loss(train_batch, store))
        return store.grad.copy()

    fresh = step_grads(init_params(cfg))
    assert np.count_nonzero(fresh)
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 90)  # 15 episodes of 45 targets: 8 chunks
    outputs = []

    def recording(half):
        def call(*args, **kwargs):
            out = half(*args, **kwargs)
            outputs.extend(out if isinstance(out, tuple) else [out])
            return out
        return call

    # evaluate's own bindings: batch_loss runs models.forward_tensors, which calls the originals
    monkeypatch.setattr(training, "encode", recording(training.encode))
    decode = recording(training.decode)
    monkeypatch.setattr(training, "decode", decode)
    store = init_params(cfg)
    evaluate(store, bucket_episodes(grid_episodes(15)))
    assert len(outputs) == 2 + 8  # one bucket's features and latents, then one head per chunk
    assert all(t._parents == () and t._vjp is None for t in outputs)
    assert np.array_equal(step_grads(store), fresh)

    def failing(*args, **kwargs):
        if len(outputs) == 3:
            raise RuntimeError("second chunk fails")
        return decode(*args, **kwargs)

    outputs.clear()
    monkeypatch.setattr(training, "decode", failing)
    store = init_params(cfg)
    with pytest.raises(RuntimeError, match="second chunk fails"):
        evaluate(store, bucket_episodes(grid_episodes(15)))
    assert len(outputs) == 3
    assert np.array_equal(step_grads(store), fresh)


def test_evaluate_encodes_once_per_bucket_and_decodes_once_per_chunk(monkeypatch):
    # 20 target rows per chunk: 5 episodes of 9 targets go 2 to a chunk (3
    # chunks), 4 of 25 one to a chunk (4), 3 of 2 all in one (1). Buckets
    # may be scored on several threads, so the order holds within a bucket.
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 20)
    rng = np.random.default_rng(12)
    episodes = []
    for n_t, count in ((9, 5), (25, 4), (2, 3)):
        for _ in range(count):
            xs, ys = rng.uniform(-2, 2, 4 + n_t), rng.standard_normal(4 + n_t)
            episodes.append(episode(xs[:4], ys[:4], xs[4:], ys[4:]))
    encoded, decoded = [], {}
    real_encode, real_decode = training.encode, training.decode

    def encode(x_c, *args, **kwargs):
        encoded.append(x_c.shape)
        return real_encode(x_c, *args, **kwargs)

    def decode(x_c, h, r, x_t, *args, **kwargs):
        decoded.setdefault(x_t.shape[1], []).append(x_c.shape)  # a bucket's chunks, by N_t
        return real_decode(x_c, h, r, x_t, *args, **kwargs)

    monkeypatch.setattr(training, "encode", encode)
    monkeypatch.setattr(training, "decode", decode)
    for kind in ("cnp", "cgnp"):
        cfg = ModelConfig(kind=kind)
        encoded.clear()
        decoded.clear()
        evaluate(init_params(cfg), bucket_episodes(episodes))
        assert sorted(encoded) == [(3, 4), (4, 4), (5, 4)]  # x_c of each whole bucket, once
        assert decoded == {9: [(2, 4), (2, 4), (1, 4)], 25: [(1, 4)] * 4, 2: [(3, 4)]}  # x_c of each chunk


def ragged_buckets(count=23, seed=11):
    """Episodes of several (N_c, N_t) shapes, interleaved, as shape buckets."""
    rng = np.random.default_rng(seed)
    episodes = []
    for k in range(count):
        n_c, n_t = 3 + k % 3, (2, 9, 25)[k % 4 % 3]
        xs, ys = rng.uniform(-2, 2, n_c + n_t), rng.standard_normal(n_c + n_t)
        episodes.append(episode(xs[:n_c], ys[:n_c], xs[n_c:], ys[n_c:]))
    return bucket_episodes(episodes)


def cores(monkeypatch, n, chunks_per_thread=1):
    """Make the process's usable cores appear to be n, and a thread worth
    starting from `chunks_per_thread` decoder chunks on."""
    monkeypatch.setattr(training, "_usable_cores", lambda: n)
    monkeypatch.setattr(training, "EVAL_CHUNKS_PER_THREAD", chunks_per_thread)


def spy_helpers(monkeypatch):
    """The helper thread counts of the pools `evaluate` starts, in order;
    the caller is one more thread."""
    started, real = [], concurrent.futures.ThreadPoolExecutor

    def pool(max_workers):
        started.append(max_workers)
        return real(max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", pool)
    return started


def store_with_running_stats(cfg):
    store = init_params(cfg)
    rng = np.random.default_rng(5)
    for state in store.bn.values():
        state.running_mean[...] = rng.standard_normal(state.running_mean.shape) * 0.1
        state.running_var[...] = rng.uniform(0.5, 2.0, state.running_var.shape)
    return store


def assert_same_bits(got, want):
    assert got.episode_count == want.episode_count
    for name in ("nll_per_point", "nll_per_episode", "mse"):
        assert float.hex(getattr(got, name)) == float.hex(getattr(want, name)), name


@pytest.mark.parametrize("n_cores, helpers", [(1, []), (2, [1]), (4, [3])])
@pytest.mark.parametrize("kind", ["cnp", "cgnp"])
def test_evaluate_has_the_sequential_bits_at_any_core_count(monkeypatch, kind, n_cores, helpers):
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 20)  # 9 buckets, 12 chunks
    buckets = ragged_buckets()
    cfg = ModelConfig(kind=kind, init_seed=4)
    store = store_with_running_stats(cfg)
    want = sequential_evaluate(store, buckets)
    cores(monkeypatch, n_cores)
    started = spy_helpers(monkeypatch)
    for _ in range(3):  # threads interleave differently from call to call
        assert_same_bits(evaluate(store, buckets), want)
    assert started == helpers * 3


def test_evaluate_takes_no_more_threads_than_cores_buckets_or_chunks_allow(monkeypatch):
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 20)
    started = spy_helpers(monkeypatch)
    cfg = ModelConfig(kind="cnp")
    store, buckets = init_params(cfg), ragged_buckets()  # 9 buckets, 12 chunks
    for chunks_per_thread, helpers in ((13, []), (7, []), (6, [1]), (4, [2]), (1, [7])):
        cores(monkeypatch, 8, chunks_per_thread)
        started.clear()
        evaluate(store, buckets)
        assert started == helpers, chunks_per_thread
    started.clear()
    evaluate(store, buckets[:3])  # 4 chunks in 3 buckets
    assert started == [2]


def test_usable_cores_fall_back_to_the_cpu_count_and_keep_to_a_cgroup_quota(monkeypatch, tmp_path):
    cpu_max = tmp_path / "cpu.max"
    monkeypatch.setattr(training, "CGROUP_CPU_MAX", str(cpu_max))  # absent: no quota
    monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    monkeypatch.setattr(training.os, "cpu_count", lambda: 8)
    assert training._usable_cores() == 6
    monkeypatch.delattr(training.os, "sched_getaffinity")  # as on platforms that keep no affinity set
    assert training._usable_cores() == 8
    for text, want in (("max 100000\n", 8), ("250000 100000\n", 2), ("50000 100000\n", 1), ("garbled\n", 8)):
        cpu_max.write_text(text)
        assert training._usable_cores() == want, text
    cpu_max.unlink()
    monkeypatch.setattr(training.os, "cpu_count", lambda: None)
    assert training._usable_cores() == 1


def test_evaluate_keeps_the_sequential_bits_without_an_affinity_set(monkeypatch, tmp_path):
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 20)
    monkeypatch.setattr(training, "EVAL_CHUNKS_PER_THREAD", 1)
    monkeypatch.setattr(training, "CGROUP_CPU_MAX", str(tmp_path / "cpu.max"))
    monkeypatch.delattr(training.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(training.os, "cpu_count", lambda: 2)
    started = spy_helpers(monkeypatch)
    cfg = ModelConfig(kind="cgnp")
    store, buckets = store_with_running_stats(cfg), ragged_buckets()
    assert_same_bits(evaluate(store, buckets), sequential_evaluate(store, buckets))
    assert started == [1]


def test_every_bucket_is_scored_once_with_more_threads_than_cores(monkeypatch):
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 1)
    cores(monkeypatch, 8)  # 7 helpers on any machine
    started = spy_helpers(monkeypatch)
    buckets = ragged_buckets(60, seed=3)
    cfg = ModelConfig(kind="cnp")
    store = init_params(cfg)
    want = sequential_evaluate(store, buckets)
    encoded, real_encode = [], training.encode

    def encode(x_c, y_c, *args, **kwargs):
        encoded.append(id(x_c))  # each bucket's own array; list.append is atomic
        return real_encode(x_c, y_c, *args, **kwargs)

    monkeypatch.setattr(training, "encode", encode)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(5):
            encoded.clear()
            got = evaluate(store, buckets)
            assert sorted(encoded) == sorted(id(b.x_c) for b in buckets)  # each bucket once
            assert_same_bits(got, want)
    finally:
        sys.setswitchinterval(interval)
    assert started == [7] * 5


def test_a_helper_thread_inherits_no_grad_and_errstate_and_its_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 10)
    cores(monkeypatch, 2)
    buckets = ragged_buckets()[:2]  # 3 chunks in 2 buckets: one helper
    barrier, seen = threading.Barrier(2, timeout=30), {}
    real_decode = training.decode

    def decode(x_c, h, r, x_t, *args, **kwargs):
        if threading.get_ident() not in seen:  # each thread's first chunk waits for the other thread
            barrier.wait()  # so the helper scores the first bucket and the caller the last
        out = real_decode(x_c, h, r, x_t, *args, **kwargs)
        seen[threading.get_ident()] = (np.geterr()["over"], out._parents, out._vjp)
        if x_t.shape[1] == buckets[0].n_target:
            np.exp(np.full(1, 1000.0))  # overflows in the helper's bucket only
        return out

    monkeypatch.setattr(training, "decode", decode)
    cfg = ModelConfig(kind="cgnp")
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            evaluate(init_params(cfg), buckets)
    assert len(seen) == 2 and threading.get_ident() in seen
    assert all(record == ("raise", (), None) for record in seen.values())  # no tape on either thread
    assert np.geterr()["over"] != "raise"


def test_an_overflowing_bucket_raises_in_the_caller_under_errstate(monkeypatch):
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 20)
    cores(monkeypatch, 2)
    buckets = ragged_buckets()
    buckets[-1].y_t[...] = 1e200  # its squared errors overflow
    cfg = ModelConfig(kind="cnp")
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            evaluate(init_params(cfg), buckets)


@pytest.mark.parametrize("failing", [0, 4, 8])
def test_a_failing_chunk_in_any_bucket_propagates_and_leaves_taping_on(monkeypatch, failing):
    monkeypatch.setattr(training, "EVAL_CHUNK_ROWS", 20)
    cores(monkeypatch, 4)
    buckets = ragged_buckets()
    scored, real_decode = [], training.decode

    def decode(x_c, h, r, x_t, *args, **kwargs):
        bucket = next(k for k, b in enumerate(buckets) if b.x_t.shape[1] == x_t.shape[1]
                      and b.x_c.shape[1] == x_c.shape[1])
        scored.append(bucket)
        if bucket == failing:
            raise RuntimeError(f"bucket {bucket} fails")
        return real_decode(x_c, h, r, x_t, *args, **kwargs)

    monkeypatch.setattr(training, "decode", decode)
    cfg = ModelConfig(kind="cgnp")
    store, threads = init_params(cfg), threading.active_count()
    with pytest.raises(RuntimeError, match=f"bucket {failing} fails"):
        evaluate(store, buckets)
    assert scored.count(failing) == 1  # its first chunk raised
    assert threading.active_count() == threads  # every thread of the pool has ended
    loss = batch_loss(make_train_batch(ProtocolConfig(batch_size=8), KERNEL, 0), store)
    assert loss._parents and loss._vjp is not None  # taping is on again


# ---------------------------------------------------------------------------
# multi-model comparison
# ---------------------------------------------------------------------------


def seed_run_bits(run):
    """Every SeedRun field but the wall time, floats as their exact bits."""
    floats = (run.metrics.nll_per_point, run.metrics.nll_per_episode, run.metrics.mse, run.loss_drop)
    return run.master_seed, run.init_seed, run.metrics.episode_count, tuple(map(float.hex, floats))


@pytest.mark.parametrize(
    "seeds, batches, batch_size, eval_every, heldout",
    [(2, 30, 8, 10, 3), (1, 2000, 2, 700, 2)],
    ids=["two_seeds", "loss_drop"],
)
def test_lockstep_compare_equals_the_sequential_oracle_bitwise(seeds, batches, batch_size, eval_every, heldout):
    base = tiny_config(batches=batches, batch_size=batch_size, eval_every=eval_every,
                       heldout_episodes=heldout, init_seed=3, master_seed=5)
    test_set = make_test_set(base.protocol, KERNEL)
    got = compare_models(base, seeds, test_set)
    want = sequential_compare(base, seeds, test_set)
    assert [r.label for r in got] == list(COMPARE_VARIANTS)
    for g, w in zip(got, want):
        assert (g.label, g.kind, g.radius) == (w.label, w.kind, w.radius)
        assert [seed_run_bits(run) for run in g.runs] == [seed_run_bits(run) for run in w.runs]
        assert all(run.wall_seconds > 0 for run in g.runs)
    assert all(math.isfinite(run.loss_drop) for r in got for run in r.runs) == (batches >= 2000)


def test_compare_names_the_diverged_variant_and_seed(monkeypatch):
    real_batch_loss = training.batch_loss

    def diverging(batch, store):  # cgnp(0.7), the middle run, diverges at batch 1 of seed 1
        loss = real_batch_loss(batch, store)
        cfg = store.cfg
        if cfg.kind == "cgnp" and cfg.radius > 0 and cfg.init_seed == 4 and len(seen) == 5 + 2:
            loss.value[...] = np.nan
        return loss

    seen = []
    monkeypatch.setattr(training, "batch_loss", diverging)
    monkeypatch.setattr(training, "make_train_batch", lambda *args: seen.append(1) or make_train_batch(*args))
    base = tiny_config(batches=5, init_seed=3, master_seed=7)
    with pytest.raises(TrainingDivergedError, match=r"^cgnp seed 1 \(master=8, init=4\): "
                       r"non-finite loss nan at batch 1; parameter norms: ") as info:
        compare_models(base, 2, make_test_set(base.protocol, KERNEL))
    assert info.value.batch_index == 1


def test_a_lockstep_seed_makes_each_batch_once_and_leaves_it_unchanged(monkeypatch):
    made = []

    def recording(cfg, spec, index):
        batch = make_train_batch(cfg, spec, index)
        made.append((batch, [getattr(batch, n).copy() for n in FIELDS]))
        return batch

    monkeypatch.setattr(training, "make_train_batch", recording)
    base = tiny_config(batches=6, eval_every=2, heldout_episodes=2)
    compare_models(base, 2, make_test_set(base.protocol, KERNEL))
    assert len(made) == 2 * 6  # once per seed and batch, not once per run
    for batch, copies in made:
        for name, copy in zip(FIELDS, copies):
            assert np.array_equal(getattr(batch, name), copy)


def test_a_compare_makes_no_heldout_set_and_evaluates_each_run_once_on_the_test_set(monkeypatch):
    made, evaluated = [], []
    real_evaluate = training.evaluate

    def recording(store, batches):
        evaluated.append([id(batch) for batch in batches])
        return real_evaluate(store, batches)

    monkeypatch.setattr(training, "make_heldout_set", lambda *args: made.append(args) or [])
    monkeypatch.setattr(training, "evaluate", recording)
    base = tiny_config(batches=6, eval_every=2, heldout_episodes=2)  # asks for held-out metrics
    test_set = make_test_set(base.protocol, KERNEL)
    compare_models(base, 2, test_set)
    assert made == []
    assert evaluated == [[id(batch) for batch in test_set]] * (3 * 2)


def test_loss_drop_windows():
    losses = np.concatenate([np.full(1000, 2.0), np.full(1000, 1.5)])
    np.testing.assert_allclose(loss_drop(losses), 0.25)
    with pytest.raises(ValueError, match="at least"):
        loss_drop(np.ones(1500))


# ---------------------------------------------------------------------------
# wall-time accounting
# ---------------------------------------------------------------------------


def fake_clock(monkeypatch):
    """Replace training's clock by one that ticks by 1 per reading; returns
    the list of readings taken."""
    ticks, readings = itertools.count(), []
    monkeypatch.setattr(training, "time", SimpleNamespace(
        perf_counter=lambda: readings.append(float(next(ticks))) or readings[-1]))
    return readings


def test_a_group_of_one_charges_the_whole_train_call(monkeypatch):
    readings = fake_clock(monkeypatch)
    _, report = train(tiny_config(batches=4, eval_every=2, heldout_episodes=2))
    assert report.wall_seconds == readings[-1] - readings[0] > 0


def test_a_lockstep_seed_splits_its_training_ticks_among_its_runs(monkeypatch):
    base = tiny_config(batches=4, eval_every=2, heldout_episodes=2)
    test_set = make_test_set(base.protocol, KERNEL)
    readings = fake_clock(monkeypatch)
    results = compare_models(base, 1, test_set)
    walls = [r.runs[0].wall_seconds for r in results]
    assert all(wall > 0 for wall in walls)
    assert sum(walls) == pytest.approx(readings[-1] - readings[0], rel=1e-12)
