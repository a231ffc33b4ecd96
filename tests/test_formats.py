import json
import os
import re
import stat
from dataclasses import replace

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
from cgnp.gp import EqKernelSpec, ProtocolConfig, bucket_episodes, make_test_episode, make_test_set
from cgnp.models import ModelConfig, init_params
from cgnp.optim import AdamState
from cgnp.training import Metrics, SeedRun, VariantResult

from helpers import episode, predict

FIELDS = ("x_c", "y_c", "x_t", "y_t")
GOOD_LINE = '{"x_c":[0.0],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0]}'


def assert_same_buckets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in (*FIELDS, "index"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_episode_roundtrip_is_exact(tmp_path):
    eps = [make_test_episode(ProtocolConfig(test_episodes=3), EqKernelSpec(), i) for i in range(3)]
    # adversarial float values must survive too
    eps.append(episode([1e-300, 0.1 + 0.2], [-1e300, 5e-324], [np.pi], [2.0 / 3.0]))
    path = tmp_path / "episodes.jsonl"
    buckets = bucket_episodes(eps)
    save_episodes(path, buckets)
    loaded = load_episodes(path)
    assert sum(len(b) for b in loaded) == 4
    assert_same_buckets(loaded, buckets)


def test_ragged_episode_file_round_trips_bytes_and_positions(tmp_path):
    # 30 grid episodes span several (N_c, N_t) buckets, interleaved in the file
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    save_episodes(first, make_test_set(ProtocolConfig(test_episodes=30), EqKernelSpec()))
    loaded = load_episodes(first)
    assert len(loaded) > 3
    save_episodes(second, loaded[::-1])  # bucket order does not matter, positions do
    assert second.read_bytes() == first.read_bytes()
    lines = first.read_text().splitlines()
    for bucket in loaded:
        for row, position in enumerate(bucket.index):
            record = json.loads(lines[position])
            for name in FIELDS:
                assert getattr(bucket, name)[row].tolist() == record[name], (position, name)


def test_save_episodes_rejects_positions_that_are_not_one_each(tmp_path):
    a = episode([0.0], [0.0], [1.0], [1.0])
    for batches in ([a, a], [bucket_episodes([a, a, a])[0], a]):
        with pytest.raises(ValueError, match="positions must number the rows"):
            save_episodes(tmp_path / "x.jsonl", batches)
    assert not (tmp_path / "x.jsonl").exists()


def test_episode_file_is_reproducible_bytes(tmp_path):
    eps = make_test_set(ProtocolConfig(test_episodes=2), EqKernelSpec())
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_episodes(a, eps)
    save_episodes(b, eps)
    assert a.read_bytes() == b.read_bytes()
    assert file_sha256(a) == file_sha256(b)


def test_bad_episode_record_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    for bad in ('{"x_c":[0.0]}', "[1,2]", '{"x_c":[0.0],"y_c":[0.'):
        path.write_text(GOOD_LINE + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad episode record on line 2")):
            load_episodes(path)


@pytest.mark.parametrize(
    "bad, message",
    [
        ('{"x_c":["0.5",1.0],"y_c":[0.0,0.5],"x_t":[1.0],"y_t":[1.0]}', "x_c must be a flat list of numbers"),
        ('{"x_c":[true,1.0],"y_c":[0.0,0.5],"x_t":[1.0],"y_t":[1.0]}', "x_c must be a flat list of numbers"),
        ('{"x_c":[0.0],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0],"bogus":1}', "unknown keys ['bogus']"),
        ('{"x_c":[[0.0]],"y_c":[[0.0]],"x_t":[1.0],"y_t":[1.0]}', "x_c must be a flat list of numbers"),
        ('{"x_c":[1e999999],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0]}', "x_c holds a non-finite value"),
        ('{"x_c":[' + "9" * 400 + '],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0]}', "x_c holds a number too large"),
        ('{"x_c":[],"y_c":[],"x_t":[1.0],"y_t":[1.0]}', "a batch needs non-empty x_c"),
        ('{"x_c":[0.0,0.5],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0]}', "a batch needs non-empty x_c, y_c of shape (B, N_c) and x_t, y_t of shape (B, N_t); got x_c (1, 2), y_c (1, 1)"),
        ('{"x_c":[0.0],"x_c":[5.0],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0]}', "repeated key 'x_c'"),
    ],
    ids=["string_value", "bool_value", "extra_key", "nested_list", "overflowing_float",
         "overflowing_integer", "empty_context", "length_mismatch", "repeated_key"],
)
def test_episode_values_that_are_not_numbers_or_keys_are_rejected(tmp_path, bad, message):
    # strings, booleans, extra or repeated keys and nested lists are not episode data
    path = tmp_path / "bad.jsonl"
    path.write_text(f"{GOOD_LINE}\n{bad}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: bad episode record on line 2: {message}")):
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


def test_checkpoint_loads_into_the_parameter_buffers_in_place(tmp_path, monkeypatch):
    import cgnp.formats as formats

    cfg = ModelConfig(kind="cgnp", init_seed=4)
    save_checkpoint(tmp_path / "c.json", init_params(cfg), cfg)
    packed = []

    def packed_init(model_cfg):
        store = init_params(replace(model_cfg, init_seed=model_cfg.init_seed + 1))
        packed.append(AdamState(store.parameters()))
        return store

    monkeypatch.setattr(formats, "init_params", packed_init)
    loaded, _, _ = load_checkpoint(tmp_path / "c.json")
    (state,) = packed
    want = init_params(cfg)
    for name, p in loaded.params.items():
        assert np.shares_memory(p.value, state.value), name
        assert np.array_equal(p.value, want[name].value), name


def test_checkpoint_roundtrip_preserves_predictions(tmp_path):
    cfg = ModelConfig(kind="cnp", init_seed=5)
    store = init_params(cfg)
    ep = make_test_episode(ProtocolConfig(test_episodes=1), EqKernelSpec(), 0)
    mu, sigma = predict(ep, store, cfg)
    save_checkpoint(tmp_path / "c.json", store, cfg)
    loaded, loaded_cfg, _ = load_checkpoint(tmp_path / "c.json")
    mu_after, sigma_after = predict(ep, loaded, loaded_cfg)
    assert np.array_equal(mu, mu_after)
    assert np.array_equal(sigma, sigma_after)


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


def _poison_weight(doc):
    entry = next(e for e in doc["params"] if e["name"] == "enc1.w")
    entry["data"][3] = float("nan")


def _negative_variance(doc):
    doc["bn"]["dec1.bn"]["running_var"][0] = -1.0


def _drop_bn_layer(doc):
    del doc["bn"]["enc1.bn"]


def _unknown_bn_layer(doc):
    doc["bn"]["enc9.bn"] = doc["bn"]["enc1.bn"]


def _unknown_model_key(doc):
    doc["model"]["bogus"] = 1


def _drop_params(doc):
    del doc["params"]


def _drop_running_var(doc):
    del doc["bn"]["enc1.bn"]["running_var"]


def _drop_param_data(doc):
    del doc["params"][0]["data"]


def _other_sigma_floor(doc):
    doc["model"]["sigma_floor"] = 0.2


def _string_in_data(doc):
    doc["params"][0]["data"][0] = "a"


def _list_param_name(doc):
    doc["params"][0]["name"] = ["enc1.w"]


def _ragged_running_mean(doc):
    doc["bn"]["enc1.bn"]["running_mean"] = [[0.0] * 8, [0.0]]


def _params(value):
    def edit(doc):
        doc["params"] = value

    return edit


def _duplicate_param(doc):
    # a zeroed second copy would win if the loader let the last entry stand
    first = doc["params"][0]
    doc["params"].append(dict(first, data=[0.0] * len(first["data"])))


def _repeated_bn_layer(doc):
    # enc1.bn listed again with other statistics, which json.loads alone would let win
    bn = doc.pop("bn")
    stale = dict(bn["enc1.bn"], running_var=[2.0] * len(bn["enc1.bn"]["running_var"]))
    entries = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in [*bn.items(), ("enc1.bn", stale)]]
    return json.dumps(doc)[:-1] + ', "bn": {' + ", ".join(entries) + "}}"


def _momentum(value):
    def edit(doc):
        doc["bn"]["enc1.bn"]["momentum"] = value

    return edit


# edits of the whole document return the text to write instead
def _not_json(doc):
    return "{model: cnp}"


def _list_document(doc):
    return json.dumps([doc])


def _not_utf8(doc):
    return b"\xff" + json.dumps(doc).encode()


@pytest.mark.parametrize(
    "edit, message",
    [
        (_poison_weight, "parameter 'enc1.w' holds a non-finite value"),
        (_negative_variance, "batch-norm 'dec1.bn' running_var holds a negative value"),
        (_drop_bn_layer, "checkpoint is missing batch-norm layers ['enc1.bn']"),
        (_unknown_bn_layer, "unknown batch-norm layers ['enc9.bn']"),
        (_unknown_model_key, "unknown model keys ['bogus']"),
        (_drop_params, "checkpoint is missing ['params']"),
        (_drop_running_var, "batch-norm 'enc1.bn' is missing ['running_var']"),
        (_drop_param_data, "params[0] is missing ['data']"),
        (_other_sigma_floor, "sigma_floor is fixed at 0.1, got 0.2"),
        (_not_json, "not a JSON document: Expecting property name enclosed in double quotes"),
        (_list_document, "checkpoint must be a JSON object, got list"),
        (_string_in_data, "parameter 'enc1.w' data must be a flat list of numbers"),
        (_list_param_name, "unknown parameter ['enc1.w'] for kind=cnp"),
        (_ragged_running_mean, "batch-norm 'enc1.bn' running_mean must be a flat list of numbers"),
        (_momentum([1, 2]), "batch-norm 'enc1.bn' momentum must be a number, got [1, 2]"),
        (_momentum("0.9"), "batch-norm 'enc1.bn' momentum must be a number, got '0.9'"),
        (_momentum(True), "batch-norm 'enc1.bn' momentum must be a number, got True"),
        (_momentum(1.5), "batch-norm 'enc1.bn' momentum must be in (0, 1), got 1.5"),
        (_params(5), "params must be a JSON list, got int"),
        (_params(None), "params must be a JSON list, got NoneType"),
        (_duplicate_param, "duplicate parameter 'enc1.w'"),
        (_not_utf8, "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0"),
        (_repeated_bn_layer, "repeated key 'enc1.bn'"),
    ],
    ids=["nan_weight", "negative_running_var", "missing_bn_layer", "unknown_bn_layer", "unknown_model_key",
         "missing_params", "missing_running_var", "missing_param_data", "other_sigma_floor", "not_json",
         "list_document", "string_in_data", "list_param_name", "ragged_running_mean", "list_momentum", "string_momentum",
         "bool_momentum", "momentum_out_of_range", "int_params", "null_params", "duplicate_param", "not_utf8",
         "repeated_bn_layer"],
)
def test_bad_checkpoint_is_rejected_naming_file_and_entry(tmp_path, capsys, edit, message):
    from cgnp.cli import main

    cfg = ModelConfig(kind="cnp", init_seed=0)
    path = tmp_path / "c.json"
    save_checkpoint(path, init_params(cfg), cfg)
    doc = json.loads(path.read_text())
    text = edit(doc) or json.dumps(doc)
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_checkpoint(path)

    data, out = tmp_path / "data.jsonl", tmp_path / "metrics.csv"
    save_episodes(data, make_test_set(ProtocolConfig(test_episodes=2), EqKernelSpec()))
    assert main(["eval", "--checkpoint", str(path), "--data", str(data), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_with_the_fixed_sigma_floor_key_loads(tmp_path):
    # checkpoints written while ModelConfig had a sigma_floor field carry it at 0.1
    cfg = ModelConfig(kind="cgnp", init_seed=2)
    store = init_params(cfg)
    path = tmp_path / "c.json"
    save_checkpoint(path, store, cfg)
    doc = json.loads(path.read_text())
    assert "sigma_floor" not in doc["model"]
    doc["model"]["sigma_floor"] = 0.1
    path.write_text(json.dumps(doc))
    loaded, loaded_cfg, _ = load_checkpoint(path)
    assert loaded_cfg == cfg
    for name, param in store.params.items():
        assert np.array_equal(loaded[name].value, param.value)


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert list(tmp_path.iterdir()) == [target]  # no temp droppings


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"])
def test_atomic_write_gives_the_mode_open_would(tmp_path, umask, mode):
    target = tmp_path / "out.txt"
    previous = os.umask(umask)
    try:
        atomic_write_text(target, "hello\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(target.stat().st_mode) == mode


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
