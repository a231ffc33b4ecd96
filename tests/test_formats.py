import json
import os
import re
import stat
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cgnp.formats import (
    _X_TEXTS_LIMIT,
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
from cgnp.gp import (
    EpisodeBatch,
    EqKernelSpec,
    ProtocolConfig,
    bucket_episodes,
    make_test_episode,
    make_test_set,
    make_train_batch,
)
from cgnp.models import ModelConfig, init_params
from cgnp.training import Metrics, SeedRun, VariantResult

from episode_oracle import oracle_episode_text
from helpers import episode, predict

FIELDS = ("x_c", "y_c", "x_t", "y_t")
GOOD_LINE = '{"x_c":[0.0],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0]}'


def assert_same_buckets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in (*FIELDS, "index"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_same_lines(got: str, want: str) -> None:
    """`got == want`, compared line by line, since pytest's own diff of a
    multi-megabyte text takes minutes."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for n, (a, b) in enumerate(zip(got_lines, want_lines), 1):
        assert a == b, f"line {n} differs"
    assert len(got_lines) == len(want_lines)


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


def _relaid(bucket: EpisodeBatch, layout: str) -> EpisodeBatch:
    """The same episodes at the same positions, from arrays laid out otherwise."""
    if layout == "fortran":
        return EpisodeBatch(*(np.asfortranarray(getattr(bucket, n)) for n in FIELDS), index=bucket.index)
    if layout == "rows reversed":
        return EpisodeBatch(*(getattr(bucket, n)[::-1] for n in FIELDS), index=bucket.index[::-1])
    # every other column of a twice-as-wide array
    return EpisodeBatch(*(np.repeat(getattr(bucket, n), 2, axis=1)[:, ::2] for n in FIELDS), index=bucket.index)


def _edge_coordinate_episodes() -> list[EpisodeBatch]:
    """Rows that share their coordinates (so each row after the first takes
    its texts from the writer's table), with 0.0 and -0.0 in turn in the same
    column."""
    zero, negative_zero, *rest = [0.0, -0.0, 5e-324, 1e16, 1e-05, 0.1 + 0.2, -1e300]
    rows = [[zero, negative_zero, *rest], [negative_zero, zero, *rest[::-1]],
            [zero, zero, *rest], [negative_zero, negative_zero, *rest]]
    x = np.array(rows)
    y = np.arange(x.size, dtype=np.float64).reshape(x.shape) / 7.0
    return [EpisodeBatch(x[:, :3], y[:, :3], x[:, 3:], y[:, 3:])]


def _grid_and_training_episodes() -> list[EpisodeBatch]:
    """40 grid episodes and 3 bucketed training batches in one file, their
    lines shuffled together, so that the training coordinates fill the table
    of texts past its limit and it is emptied and refilled between grid lines."""
    grid, training = make_test_set(ProtocolConfig(test_episodes=40), EqKernelSpec()), _training_episodes(3)
    coordinates = np.concatenate([a.ravel() for b in training for a in (b.x_c, b.x_t)])
    assert np.unique(coordinates).size > _X_TEXTS_LIMIT
    positions = np.random.default_rng(0).permutation(40 + sum(map(len, training)))
    return ([replace(b, index=positions[b.index]) for b in grid]
            + [replace(b, index=positions[40 + b.index]) for b in training])


@pytest.mark.parametrize("case", ["default test set", "edge coordinates", "fortran",
                                  "rows reversed", "sliced columns", "training", "grid and training"])
def test_save_episodes_writes_the_bytes_of_one_json_dumps_per_line(tmp_path, case):
    if case == "default test set":
        buckets = make_test_set(ProtocolConfig(), EqKernelSpec())
        assert sum(map(len, buckets)) == 1000
    elif case == "edge coordinates":
        buckets = _edge_coordinate_episodes()
    elif case == "training":
        buckets = _training_episodes(3)
    elif case == "grid and training":
        buckets = _grid_and_training_episodes()
    else:
        buckets = [_relaid(b, case) for b in make_test_set(ProtocolConfig(test_episodes=40), EqKernelSpec())]
    path = tmp_path / "e.jsonl"
    save_episodes(path, buckets)
    assert_same_lines(path.read_bytes().decode(), oracle_episode_text(buckets))


def test_bad_episode_record_reports_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    for bad in ('{"x_c":[0.0]}', "[1,2]", '{"x_c":[0.0],"y_c":[0.'):
        path.write_text(GOOD_LINE + "\n" + bad + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad episode record on line 2")):
            load_episodes(path)


def test_lines_end_at_lf_crlf_or_a_lone_cr(tmp_path):
    # text mode's universal newlines: the streaming loader numbers lines as
    # reading the whole file and splitting it did
    path = tmp_path / "e.jsonl"
    path.write_bytes(f"{GOOD_LINE}\r\n{GOOD_LINE}\r\n".encode())
    loaded = load_episodes(path)
    assert [b.index.tolist() for b in loaded] == [[0, 1]]
    for text in ('{\r"x_c":[0.0],"y_c":[0.0],"x_t":[1.0],"y_t":[1.0]}\n',
                 f"{GOOD_LINE}\r{GOOD_LINE}\r\n[1,2]\n", f"{GOOD_LINE}\r\n\r\n[1,2]\r"):
        path.write_bytes(text.encode())
        line = 1 if text.startswith("{\r") else 3
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad episode record on line {line}")):
            load_episodes(path)


def test_undecodable_episode_file_names_the_byte_position_in_the_file(tmp_path):
    # a bad byte far past the first block the streaming reader decodes (a
    # leading one is pinned in test_cli)
    path = tmp_path / "e.jsonl"
    save_episodes(path, make_test_set(ProtocolConfig(test_episodes=8), EqKernelSpec()))
    data = path.read_bytes()
    position = data.index(b"\n", 3 * 8192) + 1
    path.write_bytes(data[:position] + b"\xff" + data[position:])
    message = f"not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte"
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_episodes(path)


def _traced_peak(call):
    """`call()` and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def episodes_200():
    return make_test_set(ProtocolConfig(test_episodes=200), EqKernelSpec())


def _training_episodes(batches: int) -> list[EpisodeBatch]:
    """`batches` training batches of 64, bucketed: no coordinate repeats."""
    cfg = ProtocolConfig(train_batches=batches)
    return bucket_episodes(make_train_batch(cfg, EqKernelSpec(), i) for i in range(batches))


def _with_row_1_as_row_0(bucket: EpisodeBatch) -> EpisodeBatch:
    """`bucket` with its second row a copy of its first, so that the writer
    takes that row's texts from its table; every other row's are new."""
    arrays = [np.array(getattr(bucket, name)) for name in FIELDS]
    for array in arrays:
        array[1] = array[0]
    return EpisodeBatch(*arrays, index=bucket.index)


@pytest.fixture(scope="module")
def training_episodes():
    buckets = _training_episodes(30)
    return {"training": buckets, "training, texts shared": [_with_row_1_as_row_0(b) for b in buckets]}


@pytest.mark.parametrize("kind", ["grid", "training", "training, texts shared"])
def test_save_episodes_writes_within_a_bounded_working_set(tmp_path, episodes_200, training_episodes, kind):
    # a grid repeats 400 coordinates on every line; training coordinates
    # never repeat, so a table of their texts would grow with the file
    episodes = episodes_200 if kind == "grid" else training_episodes[kind]
    path = tmp_path / "e.jsonl"
    _, peak = _traced_peak(lambda: save_episodes(path, episodes))
    assert path.stat().st_size > 2**20
    assert peak <= 2**20  # a line at a time, not the whole text
    assert_same_lines(path.read_bytes().decode(), oracle_episode_text(episodes))


def test_load_episodes_reads_within_a_bounded_working_set(tmp_path, episodes_200):
    path = tmp_path / "e.jsonl"
    save_episodes(path, episodes_200)
    loaded, peak = _traced_peak(lambda: load_episodes(path))
    assert_same_buckets(loaded, episodes_200)
    arrays = sum(getattr(b, name).nbytes for b in loaded for name in (*FIELDS, "index"))
    assert peak <= 2 * arrays  # the per-line arrays and the buckets, not the text too


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
    store.value[:] = rng.standard_normal(store.value.size)  # not what init_params draws
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
    built = []

    def other_init(model_cfg):
        store = init_params(replace(model_cfg, init_seed=model_cfg.init_seed + 1))
        built.append((store, store.value))
        return store

    monkeypatch.setattr(formats, "init_params", other_init)
    loaded, _, _ = load_checkpoint(tmp_path / "c.json")
    ((store, buffer),) = built
    assert loaded is store and loaded.value is buffer
    want = init_params(cfg)
    for name, p in loaded.params.items():
        assert np.shares_memory(p.value, buffer), name
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


def _poison_value(doc):
    doc["values"][3] = float("nan")


def _negative_variance(doc):
    doc["running_var"][-1] = -1.0


def _unknown_model_key(doc):
    doc["model"]["bogus"] = 1


def _unknown_key(doc):
    doc["m"] = [0.0]  # say, a vector a later format adds


def _extra_not_an_object(doc):
    doc["extra"] = 5


def _drop(key):
    def edit(doc):
        del doc[key]

    return edit


def _model(key, value):
    def edit(doc):
        doc["model"][key] = value

    return edit


def _resize(key, delta):
    def edit(doc):
        doc[key] = doc[key][:delta] if delta < 0 else doc[key] + [1.0] * delta

    return edit


def _null_values(doc):
    doc["values"] = None


def _string_in_values(doc):
    doc["values"][0] = "a"


def _ragged_running_mean(doc):
    doc["running_mean"] = [[0.0] * 8, [0.0]]


def _v1_document(doc):
    # the named-entry layout this format replaced
    for key in ("values", "running_mean", "running_var"):
        del doc[key]
    doc["params"], doc["bn"] = [], {}


def _repeated_key(doc):
    # running_var given again with other statistics, which json.loads alone would let win
    stale = [2.0] * len(doc["running_var"])
    return json.dumps(doc)[:-1] + f', "running_var": {json.dumps(stale)}}}'


# edits of the whole document return the text to write instead
def _not_json(doc):
    return "{model: cnp}"


def _list_document(doc):
    return json.dumps([doc])


def _not_utf8(doc):
    return b"\xff" + json.dumps(doc).encode()


# a CNP with latent_dim=8 has 330 parameter values and 32 batch-norm columns
@pytest.mark.parametrize(
    "edit, message",
    [
        (_poison_value, "values holds a non-finite value"),
        (_negative_variance, "running_var holds a negative value"),
        (_unknown_model_key, "unknown model keys ['bogus']"),
        (_unknown_key, "unknown checkpoint keys ['m']"),
        (_extra_not_an_object, "extra must be a JSON object, got int"),
        (_drop("values"), "checkpoint is missing ['values']"),
        (_drop("running_var"), "checkpoint is missing ['running_var']"),
        (_v1_document, "checkpoint is missing ['running_mean', 'running_var', 'values']"),
        (_not_json, "not a JSON document: Expecting property name enclosed in double quotes"),
        (_list_document, "checkpoint must be a JSON object, got list"),
        (_null_values, "values must be a flat list of numbers"),
        (_string_in_values, "values must be a flat list of numbers"),
        (_ragged_running_mean, "running_mean must be a flat list of numbers"),
        (_resize("values", 1), "values holds 331 numbers, the model config implies 330"),
        (_resize("values", -1), "values holds 329 numbers, the model config implies 330"),
        (_resize("running_mean", 1), "running_mean holds 33 numbers, the model config implies 32"),
        (_resize("running_mean", -1), "running_mean holds 31 numbers, the model config implies 32"),
        (_resize("running_var", 1), "running_var holds 33 numbers, the model config implies 32"),
        (_resize("running_var", -1), "running_var holds 31 numbers, the model config implies 32"),
        (_model("latent_dim", 1.5), "bad model config: latent_dim must be an int, got 1.5"),
        (_model("latent_dim", True), "bad model config: latent_dim must be an int, got True"),
        (_model("init_seed", 1.5), "bad model config: init_seed must be an int, got 1.5"),
        (_model("radius", True), "bad model config: radius must be an int or float, got True"),
        (_not_utf8, "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0"),
        (_repeated_key, "repeated key 'running_var'"),
    ],
    ids=["nan_value", "negative_running_var", "unknown_model_key", "unknown_key", "extra_not_an_object",
         "missing_values", "missing_running_var", "v1_document", "not_json", "list_document", "null_values",
         "string_in_values", "ragged_running_mean",
         "values_one_too_many", "values_one_too_few", "running_mean_one_too_many", "running_mean_one_too_few",
         "running_var_one_too_many", "running_var_one_too_few", "float_latent_dim", "bool_latent_dim",
         "float_init_seed", "bool_radius", "not_utf8", "repeated_key"],
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


@pytest.mark.parametrize("latent_dim", [10**74, 10**5], ids=["75_digits", "1e5"])
def test_checkpoint_latent_dim_beyond_its_values_is_rejected_before_allocating(tmp_path, monkeypatch, latent_dim):
    import cgnp.formats as formats

    cfg = ModelConfig(kind="cnp", latent_dim=1)
    path = tmp_path / "c.json"
    save_checkpoint(path, init_params(cfg), cfg)
    doc = json.loads(path.read_text())
    doc["model"]["latent_dim"] = latent_dim
    path.write_text(json.dumps(doc))

    def no_init(model_cfg):
        raise AssertionError("init_params ran before the lengths were checked")

    monkeypatch.setattr(formats, "init_params", no_init)
    implied = formats.flat_sizes(replace(cfg, latent_dim=latent_dim))[0]
    with pytest.raises(ValueError, match=re.escape(f"{path}: values holds 22 numbers, the model config implies {implied}")):
        load_checkpoint(path)


# every single-byte corruption: each byte replaced by one of these, or doubled
CORRUPTIONS = [b"", b"0", b"-", b"e", b'"', b"[", b"]", b"{", b"}", b",", b":", b"\xff", b"N", b"9" * 400]
TWO_EPISODES = (
    b'{"x_c":[-1.5,0.25],"y_c":[0.5,-2e-3],"x_t":[1.0,-0.75],"y_t":[0.125,1.5]}\n'
    b'{"x_c":[0.5,-0.3125],"y_c":[-1.25,0.875],"x_t":[1.75,0.0,-1.0],"y_t":[2.5,-0.5,1e+2]}\n'
)


def _corruption_violations(path, data: bytes, load) -> list:
    """The variants of `data` that neither load nor raise a ValueError
    whose message starts with the path."""
    violations = []
    for i in range(len(data)):
        for variant in [data[:i] + c + data[i + 1:] for c in CORRUPTIONS] + [data[:i + 1] + data[i:]]:
            path.write_bytes(variant)
            try:
                load(path)
            except Exception as exc:
                if not (isinstance(exc, ValueError) and str(exc).startswith(f"{path}: ")):
                    violations.append((i, variant[max(0, i - 20):i + 20], repr(exc)[:200]))
    return violations


def test_every_single_byte_corruption_loads_or_is_rejected_naming_the_file(tmp_path):
    cfg = ModelConfig(kind="cnp", latent_dim=1)
    checkpoint = checkpoint_text(init_params(cfg), cfg).encode()
    (tmp_path / "e.jsonl").write_bytes(TWO_EPISODES)
    assert sum(map(len, load_episodes(tmp_path / "e.jsonl"))) == 2
    assert _corruption_violations(tmp_path / "c.json", checkpoint, load_checkpoint) == []
    assert _corruption_violations(tmp_path / "e.jsonl", TWO_EPISODES, load_episodes) == []


def test_atomic_write_leaves_no_partial_file(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    assert list(tmp_path.iterdir()) == [target]  # no temp droppings


@pytest.mark.parametrize("target, error", [("d", IsADirectoryError), ("nodir/out.txt", FileNotFoundError)])
def test_atomic_write_that_cannot_create_or_rename_names_the_target_not_its_temp_file(tmp_path, target, error):
    (tmp_path / "d").mkdir()
    with pytest.raises(error) as caught:
        atomic_write_text(tmp_path / target, "hello\n")
    assert caught.value.filename == str(tmp_path / target)
    assert ".tmp-" not in str(caught.value)
    assert list(tmp_path.iterdir()) == [tmp_path / "d"]
    assert list((tmp_path / "d").iterdir()) == []


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
