import json
import re

import numpy as np
import pytest

from cgnp.formats import (
    atomic_write_text,
    checkpoint_text,
    comparison_csv,
    file_sha256,
    load_checkpoint,
    load_episodes,
    metrics_csv,
    save_checkpoint,
    save_episodes,
)
from cgnp.gp import Episode, EqKernelSpec, ProtocolConfig, make_test_episode
from cgnp.models import ModelConfig, forward, init_params
from cgnp.training import Metrics, SeedRun, VariantResult


def test_episode_roundtrip_is_exact(tmp_path):
    eps = [make_test_episode(ProtocolConfig(test_episodes=3), EqKernelSpec(), i) for i in range(3)]
    # adversarial float values must survive too
    eps.append(Episode([1e-300, 0.1 + 0.2], [-1e300, 5e-324], [np.pi], [2.0 / 3.0]))
    path = tmp_path / "episodes.jsonl"
    save_episodes(path, eps)
    loaded = load_episodes(path)
    assert len(loaded) == 4
    for a, b in zip(eps, loaded):
        assert np.array_equal(a.x_c, b.x_c) and np.array_equal(a.y_c, b.y_c)
        assert np.array_equal(a.x_t, b.x_t) and np.array_equal(a.y_t, b.y_t)


def test_episode_file_is_reproducible_bytes(tmp_path):
    eps = [make_test_episode(ProtocolConfig(test_episodes=2), EqKernelSpec(), i) for i in range(2)]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_episodes(a, eps)
    save_episodes(b, eps)
    assert a.read_bytes() == b.read_bytes()
    assert file_sha256(a) == file_sha256(b)


def test_bad_episode_record_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"x_c":[0.0],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0]}\n{"x_c":[0.0]}\n')
    with pytest.raises(ValueError, match="line 2"):
        load_episodes(path)


@pytest.mark.parametrize("field, token", [("x_c", "NaN"), ("y_t", "Infinity"), ("x_t", "-Infinity")])
def test_non_finite_episode_value_reports_file_line_and_field(tmp_path, field, token):
    good = '{"x_c":[0.0],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0]}'
    bad = good.replace(f'"{field}":[', f'"{field}":[{token},')
    bad = bad.replace('"x_c":[0.0]', '"x_c":[0.0,0.5]').replace('"y_c":[0.0]', '"y_c":[0.0,0.5]')
    bad = bad.replace('"x_t":[1.0]', '"x_t":[1.0,1.5]').replace('"y_t":[1.0]', '"y_t":[1.0,1.5]')
    path = tmp_path / "nonfinite.jsonl"
    path.write_text(f"{good}\n{good}\n{bad}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad episode record on line 3: {field} holds a non-finite")):
        load_episodes(path)


def test_checkpoint_roundtrip_bit_exact_and_stable(tmp_path):
    cfg = ModelConfig(kind="cgnp", latent_dim=8, radius=0.7, init_seed=9)
    store = init_params(cfg)
    rng = np.random.default_rng(0)
    for state in store.bn.values():
        state.running_mean = rng.standard_normal(state.running_mean.shape)
        state.running_var = rng.uniform(0.5, 2.0, state.running_var.shape)
    path = tmp_path / "checkpoint.json"
    save_checkpoint(path, store, cfg, extra={"train.batches": 20000})
    loaded, loaded_cfg, extra = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert extra == {"train.batches": 20000}
    for name, p in store.params.items():
        assert np.array_equal(p.value, loaded.params[name].value)
    for name, state in store.bn.items():
        assert np.array_equal(state.running_mean, loaded.bn[name].running_mean)
        assert np.array_equal(state.running_var, loaded.bn[name].running_var)
    # serialize -> parse -> serialize is byte-identical
    assert checkpoint_text(loaded, loaded_cfg, extra) == path.read_text()


def test_checkpoint_roundtrip_preserves_predictions(tmp_path):
    cfg = ModelConfig(kind="cnp", init_seed=5)
    store = init_params(cfg)
    ep = make_test_episode(ProtocolConfig(test_episodes=1), EqKernelSpec(), 0)
    before = forward(ep, store, cfg)
    save_checkpoint(tmp_path / "c.json", store, cfg)
    loaded, loaded_cfg, _ = load_checkpoint(tmp_path / "c.json")
    after = forward(ep, loaded, loaded_cfg)
    assert np.array_equal(before.mu, after.mu)
    assert np.array_equal(before.sigma, after.sigma)


def test_checkpoint_shape_mismatch_is_explicit(tmp_path):
    cfg = ModelConfig(kind="cnp", init_seed=0)
    store = init_params(cfg)
    path = tmp_path / "c.json"
    save_checkpoint(path, store, cfg)
    doc = json.loads(path.read_text())
    doc["params"][0]["rows"] += 1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="shape mismatch"):
        load_checkpoint(path)


def test_checkpoint_missing_parameter_rejected(tmp_path):
    cfg = ModelConfig(kind="cnp", init_seed=0)
    store = init_params(cfg)
    path = tmp_path / "c.json"
    save_checkpoint(path, store, cfg)
    doc = json.loads(path.read_text())
    doc["params"] = doc["params"][1:]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="missing parameters"):
        load_checkpoint(path)


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert list(tmp_path.iterdir()) == [target]  # no temp droppings


def test_metrics_csv_layout():
    text = metrics_csv(Metrics(1.5, 600.0, 0.75, 1000), "header words")
    lines = text.splitlines()
    assert lines[0] == "# header words"
    assert lines[1] == "nll_per_point,nll_per_episode,mse,episode_count"
    assert lines[2].split(",")[3] == "1000"


def test_comparison_csv_columns():
    runs = tuple(
        SeedRun(master_seed=i, init_seed=i, metrics=Metrics(1.0 + i, 400.0, 0.5, 10),
                loss_drop=0.1, wall_seconds=1.0)
        for i in range(2)
    )
    results = [
        VariantResult(label="cnp", kind="cnp", radius=None, runs=runs),
        VariantResult(label="cgnp", kind="cgnp", radius=0.7, runs=runs),
    ]
    lines = comparison_csv(results, "hdr").splitlines()
    header = lines[1].split(",")
    assert header[:5] == ["model", "rho", "nll_per_point", "nll_per_episode", "mse"]
    cnp_row = lines[2].split(",")
    assert cnp_row[0] == "cnp" and cnp_row[1] == ""
    np.testing.assert_allclose(float(cnp_row[2]), 1.5)  # mean over seeds
    cgnp_row = lines[3].split(",")
    assert float(cgnp_row[1]) == 0.7
