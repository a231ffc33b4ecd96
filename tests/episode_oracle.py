"""The decimal JSON-lines episode format that `formats` wrote and read
before its base64 records, kept as the value oracle for them.

`oracle_episode_text` writes each line as one `json.dumps` over the
episode's four lists of numbers; `oracle_load_episodes` reads such a file
back as `formats.load_episodes` did, one `json.loads` per non-blank line,
shape-bucketed. Shortest round-trip float text parses back to the same
doubles, so `formats.load_episodes` on the base64 file must give arrays
bit for bit equal to `oracle_load_episodes` on the decimal file of the same
episodes."""

from __future__ import annotations

import json

import numpy as np

from cgnp.gp import EpisodeBatch, bucket_episodes

_EPISODE_KEYS = ("x_c", "y_c", "x_t", "y_t")


def oracle_episode_line(batch, row: int) -> str:
    record = {name: getattr(batch, name)[row].tolist() for name in _EPISODE_KEYS}
    return json.dumps(record, separators=(",", ":"))


def oracle_episode_text(batches) -> str:
    """The whole file: one line per episode, in the order of `index`."""
    rows = sorted((position, k, row) for k, batch in enumerate(batches)
                  for row, position in enumerate(batch.index.tolist()))
    return "".join(oracle_episode_line(batches[k], row) + "\n" for _, k, row in rows)


def oracle_load_episodes(path) -> list[EpisodeBatch]:
    with open(path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return bucket_episodes(EpisodeBatch(*(np.array(record[name], dtype=np.float64)[None] for name in _EPISODE_KEYS))
                           for record in records)
