"""On-disk formats: episode JSONL, checkpoint JSON, metrics and table CSV.

Everything is plain text with '.' decimal separators and shortest
round-trip float encoding, so files diff cleanly and parse back to the
exact same doubles. All writes go through a temp file plus atomic rename;
a failed command never leaves a partial file behind. An episode file loads
as shape buckets (`gp.bucket_episodes`) that remember each line's position,
and saving them writes the lines back in that order; both go one line at a
time, so neither holds the file's text in memory. A grid file repeats the
same 400 coordinates on every line, so the saver formats each coordinate
once: every line takes its x fields' text from one bounded table keyed by
the double's bits, and its y fields go through the JSON encoder; the bytes
are those of one `json.dumps(record, separators=(",", ":"))` per line.
A checkpoint is the model config plus three flat vectors: `values` (the
store's flat `value` buffer: every parameter, row-major, in
`models._layout` order) and the batch-norm `running_mean` and
`running_var` (layer after layer). The config fixes each vector's length,
so the loader checks lengths before it allocates a model.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
from collections.abc import Iterable
from dataclasses import asdict, fields

import numpy as np

from .gp import EpisodeBatch, bucket_episodes
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
# episodes: one JSON object per line, keys x_c, y_c, x_t, y_t
# ---------------------------------------------------------------------------


_EPISODE_KEYS = ("x_c", "y_c", "x_t", "y_t")
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode  # json.dumps(..., separators=(",", ":"))
_X_TEXTS_LIMIT = 2048  # coordinate texts kept by one save: five 400-point grids


def _x_text(values: np.ndarray, texts: dict[int, str]) -> str:
    """The JSON list `values` without its brackets, taking each coordinate's
    text from `texts`, keyed by the double's bits (so 0.0 and -0.0 differ).
    On a missing coordinate the JSON encoder formats the whole row, and its
    texts are added, after emptying `texts` if it would pass `_X_TEXTS_LIMIT`."""
    keys = values.view(np.int64).tolist()
    try:
        return ",".join(map(texts.__getitem__, keys))
    except KeyError:
        if len(texts) + len(keys) > _X_TEXTS_LIMIT:
            texts.clear()
        text = _ENCODE(values.tolist())[1:-1]
        texts.update(zip(keys, text.split(",")))
        return text


def episode_line(batch: EpisodeBatch, row: int, x_texts: dict[int, str]) -> str:
    """Episode `row` of `batch` as the bytes `json.dumps(record, separators=(",", ":"))`
    writes: the x fields reuse the coordinate texts of `x_texts` (`_x_text`),
    the y fields go through the JSON encoder."""
    return (f'{{"x_c":[{_x_text(batch.x_c[row], x_texts)}],"y_c":{_ENCODE(batch.y_c[row].tolist())},'
            f'"x_t":[{_x_text(batch.x_t[row], x_texts)}],"y_t":{_ENCODE(batch.y_t[row].tolist())}}}')


def save_episodes(path, batches: list[EpisodeBatch]) -> None:
    """One line per episode, at the position its batch's `index` records.
    The positions are checked before any file is created; the lines are
    then encoded and written one at a time, all through one bounded table
    of coordinate texts, so each grid point is formatted about once."""
    rows = sorted((position, k, row) for k, batch in enumerate(batches)
                  for row, position in enumerate(batch.index.tolist()))
    if any(position != i for i, (position, _, _) in enumerate(rows)):
        raise ValueError("episode positions must number the rows 0..n-1, each once")
    x_texts: dict[int, str] = {}
    atomic_write_text(path, (episode_line(batches[k], row, x_texts) + "\n" for _, k, row in rows))


def _episode(path, ln: int, line: str) -> EpisodeBatch:
    """One line as a batch of one; otherwise a ValueError naming the file,
    the line and, where there is one, the field."""
    where = f"bad episode record on line {ln}"
    try:
        record = json.loads(line, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        raise ValueError(f"{path}: {where}: {exc}") from exc
    unknown = sorted(set(_entry(path, record, where, _EPISODE_KEYS)) - set(_EPISODE_KEYS))
    if unknown:
        raise ValueError(f"{path}: {where}: unknown keys {unknown}")
    arrays = [_numbers(path, record[name], f"{where}: {name}")[None] for name in _EPISODE_KEYS]
    try:
        return EpisodeBatch(*arrays)
    except ValueError as exc:
        raise ValueError(f"{path}: {where}: {exc}") from exc


def load_episodes(path) -> list[EpisodeBatch]:
    """Every episode of the file, shape-bucketed; index i is line i's
    episode, counting non-blank lines from 0. The file is parsed one line
    at a time; "\n", "\r\n" and a lone "\r" each end a line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = enumerate(fh, start=1)
            return bucket_episodes(_episode(path, ln, line) for ln, line in lines if line.strip())
    except UnicodeDecodeError as exc:
        # the streamed decoder counts byte positions from the start of its
        # chunk; read_text raises naming the position in the whole file
        read_text(path)
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc


# ---------------------------------------------------------------------------
# checkpoints: one JSON document with config echo and three flat vectors
# ---------------------------------------------------------------------------


def checkpoint_text(store: ParameterStore, cfg: ModelConfig, extra: dict | None = None) -> str:
    bn = store.bn.values()
    doc = {
        "model": asdict(cfg),
        "values": store.value.tolist(),
        "running_mean": np.concatenate([state.running_mean.ravel() for state in bn]).tolist(),
        "running_var": np.concatenate([state.running_var.ravel() for state in bn]).tolist(),
        "extra": extra or {},
    }
    return json.dumps(doc, indent=1) + "\n"


def save_checkpoint(path, store: ParameterStore, cfg: ModelConfig, extra: dict | None = None) -> None:
    atomic_write_text(path, checkpoint_text(store, cfg, extra))


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


def _unflatten(flat: np.ndarray, arrays: list[np.ndarray]) -> None:
    """Copy consecutive slices of `flat` into `arrays` (the per-layer
    batch-norm statistics), in place."""
    for array, part in zip(arrays, np.split(flat, np.cumsum([a.size for a in arrays])[:-1])):
        array[...] = part.reshape(array.shape)


def load_checkpoint(path) -> tuple[ParameterStore, ModelConfig, dict]:
    """Read a checkpoint, rejecting any entry the model cannot use as is:
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
    bn = store.bn.values()
    _unflatten(vectors["running_mean"], [state.running_mean for state in bn])
    _unflatten(vectors["running_var"], [state.running_var for state in bn])
    return store, cfg, extra


# ---------------------------------------------------------------------------
# CSV outputs (a '#' header line carries config echo and data hashes)
# ---------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return repr(float(v))


def metrics_csv(metrics: Metrics, header: str) -> str:
    return (
        f"# {header}\n"
        "nll_per_point,nll_per_episode,mse,episode_count\n"
        f"{_fmt(metrics.nll_per_point)},{_fmt(metrics.nll_per_episode)},"
        f"{_fmt(metrics.mse)},{metrics.episode_count}\n"
    )


def comparison_csv(results, header: str) -> str:
    """Summary table, one row per model; std columns are zero for one seed."""
    lines = [
        f"# {header}",
        "model,rho,nll_per_point,nll_per_episode,mse,"
        "nll_per_point_std,nll_per_episode_std,mse_std",
    ]
    for res in results:
        nll_p = res.mean_std("nll_per_point")
        nll_e = res.mean_std("nll_per_episode")
        mse = res.mean_std("mse")
        rho = "" if res.radius is None else _fmt(res.radius)
        lines.append(
            f"{res.kind},{rho},{_fmt(nll_p[0])},{_fmt(nll_e[0])},{_fmt(mse[0])},"
            f"{_fmt(nll_p[1])},{_fmt(nll_e[1])},{_fmt(mse[1])}"
        )
    return "\n".join(lines) + "\n"


def per_seed_csv(results, header: str) -> str:
    lines = [
        f"# {header}",
        "model,rho,master_seed,init_seed,nll_per_point,nll_per_episode,mse,loss_drop",
    ]
    for res in results:
        rho = "" if res.radius is None else _fmt(res.radius)
        for run in res.runs:
            m = run.metrics
            lines.append(
                f"{res.kind},{rho},{run.master_seed},{run.init_seed},"
                f"{_fmt(m.nll_per_point)},{_fmt(m.nll_per_episode)},{_fmt(m.mse)},"
                f"{_fmt(run.loss_drop)}"
            )
    return "\n".join(lines) + "\n"
