"""On-disk formats: episode JSONL, checkpoint JSON, metrics and table CSV.

All writes go through a temp file plus atomic rename; a failed command
never leaves a partial file behind. An episode file holds one episode per
line, a JSON object with the keys `x_c`, `y_c`, `x_t` and `y_t`; each
value is the padded base64 (RFC 4648 section 4) of the row's little-endian
float64 bytes, so the doubles come back with their exact bits. It loads as
shape buckets (as `gp.bucket_episodes` makes them) that remember each
line's position, and saving them writes the lines back in that order; both
go one line at a time, so neither holds the file's text in memory.
Checkpoints and CSVs are plain text with '.' decimal separators and
shortest round-trip float encoding. A checkpoint is the store's model config plus three flat vectors,
each a copy of one of the store's flat buffers (`models.ParameterStore`):
`values` (every parameter, row-major, in `models._layout` order) and the
batch-norm `running_mean` and `running_var` (layer after layer). The config
fixes each vector's length, so the loader checks lengths before it
allocates a model.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import secrets
from collections.abc import Iterable
from dataclasses import asdict, fields

import numpy as np

from .gp import EpisodeBatch, _check_shapes
from .models import ModelConfig, ParameterStore, flat_sizes, init_params
from .training import Metrics

__all__ = [
    "atomic_write_text",
    "file_sha256",
    "save_episodes",
    "load_episodes",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_text",
    "metrics_csv",
    "comparison_csv",
]


def atomic_write_text(path: str | os.PathLike, chunks: str | Iterable[str]) -> None:
    """Write `chunks` (one string, or strings in order) to `path` through a
    temp file renamed into place; if anything fails, no file is left. An
    error in creating or renaming the temp file names `path`."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}.part")
    try:
        # mode 0o666 less the umask, as open(path, "w") gives; O_EXCL never reuses a file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines([chunks] if isinstance(chunks, str) else chunks)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc


def read_text(path: str | os.PathLike) -> str:
    """The file's text; bytes that are not UTF-8 give a ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


def file_sha256(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, with a ValueError naming a key given twice
    (``json.loads`` alone keeps the last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


# ---------------------------------------------------------------------------
# episodes: one JSON object per line, keys x_c, y_c, x_t, y_t, each the
# base64 of the row's little-endian doubles
# ---------------------------------------------------------------------------


_EPISODE_KEYS = ("x_c", "y_c", "x_t", "y_t")


def _episode_line(batch: EpisodeBatch, row: int) -> str:
    record = {name: base64.b64encode(getattr(batch, name)[row].astype("<f8", copy=False).tobytes()).decode()
              for name in _EPISODE_KEYS}
    return json.dumps(record, separators=(",", ":"))


def save_episodes(path, batches: list[EpisodeBatch]) -> None:
    """One line per episode, at the position its batch's `index` records.
    The positions are checked before any file is created; the lines are
    then encoded and written one at a time."""
    rows = sorted((position, k, row) for k, batch in enumerate(batches)
                  for row, position in enumerate(batch.index.tolist()))
    if any(position != i for i, (position, _, _) in enumerate(rows)):
        raise ValueError("episode positions must number the rows 0..n-1, each once")
    atomic_write_text(path, (_episode_line(batches[k], row) + "\n" for _, k, row in rows))


def _doubles(path, value, where: str) -> bytes:
    """The bytes of `value` if it is the canonical padded base64 of whole
    little-endian doubles; otherwise a ValueError naming the file and the
    entry."""
    if not isinstance(value, str):
        raise ValueError(f"{path}: {where} must be a base64 string of little-endian doubles, "
                         f"got {type(value).__name__}")
    try:
        data = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise ValueError(f"{path}: {where} is not base64: {exc}") from exc
    # the strict decode still takes padding past the last quantum and stray
    # low bits in it: the length rules out the one, the last quantum the other
    tail = len(data) % 3 or 3
    if len(value) != 4 * -(-len(data) // 3) or base64.b64encode(data[-tail:]).decode() != value[-4:]:
        raise ValueError(f"{path}: {where} is not canonical base64")
    if len(data) % 8:
        raise ValueError(f"{path}: {where} holds {len(data)} bytes, not a whole number of doubles")
    return data


def _episode_fields(path, ln: int, line: str) -> list[bytes]:
    """Line `ln`'s four fields as little-endian double bytes, in
    `_EPISODE_KEYS` order, once their shapes make an episode; otherwise a
    ValueError naming the file, the line and, where there is one, the
    field."""
    where = f"bad episode record on line {ln}"
    try:
        record = json.loads(line, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise ValueError(f"{path}: {where}: {exc}") from exc
    unknown = sorted(set(_entry(path, record, where, _EPISODE_KEYS)) - set(_EPISODE_KEYS))
    if unknown:
        raise ValueError(f"{path}: {where}: unknown keys {unknown}")
    fields = [_doubles(path, record[name], f"{where}: {name}") for name in _EPISODE_KEYS]
    try:
        _check_shapes(*((1, len(data) // 8) for data in fields))
    except ValueError as exc:
        raise ValueError(f"{path}: {where}: {exc}") from exc
    return fields


def _bucket(path, members: list) -> EpisodeBatch:
    """The batch of one shape group's (line number, position, fields)
    members, each field's rows from one buffer of its lines' bytes. A
    non-finite value gives a ValueError naming the file, the first line
    in the group that holds one, and its field."""
    arrays = [np.frombuffer(bytearray().join(fields[k] for _, _, fields in members), dtype="<f8")
              .reshape(len(members), -1) for k in range(len(_EPISODE_KEYS))]
    try:
        return EpisodeBatch(*arrays, index=np.array([position for _, position, _ in members]))
    except ValueError:  # a non-finite value: the shapes were checked line by line
        bad = [~np.isfinite(a).all(axis=1) for a in arrays]
        row = int(np.flatnonzero(np.logical_or.reduce(bad))[0])
        name = next(n for n, rows in zip(_EPISODE_KEYS, bad) if rows[row])
        raise ValueError(f"{path}: bad episode record on line {members[row][0]}: "
                         f"{name} holds a non-finite value (NaN or inf)") from None


def load_episodes(path) -> list[EpisodeBatch]:
    """Every episode of the file, shape-bucketed as `gp.bucket_episodes`
    buckets them; index i is line i's episode, counting non-blank lines
    from 0. The file is parsed one line at a time; "\n", "\r\n" and a lone
    "\r" each end a line. Each line's fields are decoded and shape-checked
    as it is read; each bucket's arrays are built straight from its lines'
    bytes and checked finite once, after the last line."""
    groups: dict[tuple[int, int], list] = {}  # (bytes of x_c, of x_t) -> members
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = ((ln, line) for ln, line in enumerate(fh, start=1) if line.strip())
            for position, (ln, line) in enumerate(lines):
                fields = _episode_fields(path, ln, line)
                groups.setdefault((len(fields[0]), len(fields[2])), []).append((ln, position, fields))
    except UnicodeDecodeError as exc:
        # the streamed decoder counts byte positions from the start of its
        # chunk; read_text raises naming the position in the whole file
        read_text(path)
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    buckets = []
    while groups:  # each group's bytes are released once its bucket is built
        buckets.append(_bucket(path, groups.pop(next(iter(groups)))))
    return buckets


# ---------------------------------------------------------------------------
# checkpoints: one JSON document with config echo and three flat vectors
# ---------------------------------------------------------------------------


def checkpoint_text(store: ParameterStore, extra: dict | None = None) -> str:
    doc = {
        "model": asdict(store.cfg),
        "values": store.value.tolist(),
        "running_mean": store.running_mean.tolist(),
        "running_var": store.running_var.tolist(),
        "extra": extra or {},
    }
    return json.dumps(doc, indent=1) + "\n"


def save_checkpoint(path, store: ParameterStore, extra: dict | None = None) -> None:
    atomic_write_text(path, checkpoint_text(store, extra))


def _entry(path, value, where: str, keys=()) -> dict:
    """`value` as a JSON object holding every key in `keys`; otherwise a
    ValueError naming the file and the entry."""
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {where} must be a JSON object, got {type(value).__name__}")
    missing = [key for key in keys if key not in value]
    if missing:
        raise ValueError(f"{path}: {where} is missing {missing}")
    return value


def _numbers(path, value, where: str) -> np.ndarray:
    """`value` as a float64 array if it is a flat JSON list of numbers;
    otherwise a ValueError naming the file and the entry."""
    if not isinstance(value, list) or not set(map(type, value)) <= {int, float}:
        raise ValueError(f"{path}: {where} must be a flat list of numbers")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{path}: {where} holds a number too large for a double") from exc


def load_checkpoint(path) -> tuple[ParameterStore, dict]:
    """Read a checkpoint as its store, under its model config, and its
    `extra`, rejecting any entry the model cannot use as is:
    bytes that are not UTF-8, text that is not a JSON object, repeated,
    missing or unknown keys, an `extra` that is not a JSON object, a model
    config `ModelConfig` rejects, vectors that are not flat lists of numbers
    or not as long as the config implies, non-finite values and negative
    running variances. Lengths are checked before `init_params` allocates
    the model."""
    text = read_text(path)
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a JSON document: {exc}") from exc
    except ValueError as exc:  # a repeated key
        raise ValueError(f"{path}: {exc}") from exc
    doc = _entry(path, doc, "checkpoint", ("model", "running_mean", "running_var", "values"))
    unknown = sorted(set(doc) - {"model", "running_mean", "running_var", "values", "extra"})
    if unknown:
        raise ValueError(f"{path}: unknown checkpoint keys {unknown}")
    extra = _entry(path, doc.get("extra", {}), "extra")
    model = _entry(path, doc["model"], "model")
    unknown = sorted(set(model) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise ValueError(f"{path}: unknown model keys {unknown}")
    try:
        cfg = ModelConfig(**model)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad model config: {exc}") from exc
    n_values, bn_width = flat_sizes(cfg)
    vectors = {}
    for key, size in (("values", n_values), ("running_mean", bn_width), ("running_var", bn_width)):
        vectors[key] = _numbers(path, doc[key], key)
        if vectors[key].size != size:
            raise ValueError(f"{path}: {key} holds {vectors[key].size} numbers, "
                             f"the model config implies {size}")
        if not np.isfinite(vectors[key]).all():
            raise ValueError(f"{path}: {key} holds a non-finite value")
    if (vectors["running_var"] < 0.0).any():
        raise ValueError(f"{path}: running_var holds a negative value")
    store = init_params(cfg)
    store.value[:] = vectors["values"]
    store.running_mean[:] = vectors["running_mean"]
    store.running_var[:] = vectors["running_var"]
    return store, extra


# ---------------------------------------------------------------------------
# CSV outputs (a '#' header line carries config echo and data hashes)
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def _table(header: str, columns: str, rows) -> str:
    """The '#' header line, the column line, then one line per row of cells."""
    return "\n".join([f"# {header}", columns, *(",".join(row) for row in rows)]) + "\n"


def _rho(result) -> str:
    return "" if result.radius is None else _fmt(result.radius)


def metrics_csv(metrics: Metrics, header: str) -> str:
    values = (metrics.nll_per_point, metrics.nll_per_episode, metrics.mse)
    return _table(header, "nll_per_point,nll_per_episode,mse,episode_count",
                  [[*map(_fmt, values), str(metrics.episode_count)]])


def comparison_csv(results, header: str) -> str:
    """Summary table, one row per model; std columns are zero for one seed."""
    rows = []
    for res in results:
        means, stds = zip(*map(res.mean_std, ("nll_per_point", "nll_per_episode", "mse")))
        rows.append([res.kind, _rho(res), *map(_fmt, means + stds)])
    columns = "model,rho,nll_per_point,nll_per_episode,mse,nll_per_point_std,nll_per_episode_std,mse_std"
    return _table(header, columns, rows)


def per_seed_csv(results, header: str) -> str:
    rows = ([res.kind, _rho(res), str(run.master_seed), str(run.init_seed), _fmt(run.metrics.nll_per_point),
             _fmt(run.metrics.nll_per_episode), _fmt(run.metrics.mse), _fmt(run.loss_drop)]
            for res in results for run in res.runs)
    return _table(header, "model,rho,master_seed,init_seed,nll_per_point,nll_per_episode,mse,loss_drop", rows)
