"""Reference episode writer the coordinate-text reuse in
`formats.save_episodes` is held to.

`oracle_episode_text` encodes each line as one `json.dumps` call over the
episode's four lists, as `save_episodes` did before it formatted each grid
coordinate once. `save_episodes` must write these bytes exactly, whatever
the coordinates and however the bucket arrays are laid out in memory."""

from __future__ import annotations

import json

_EPISODE_KEYS = ("x_c", "y_c", "x_t", "y_t")


def oracle_episode_line(batch, row: int) -> str:
    record = {name: getattr(batch, name)[row].tolist() for name in _EPISODE_KEYS}
    return json.dumps(record, separators=(",", ":"))


def oracle_episode_text(batches) -> str:
    """The whole file: one line per episode, in the order of `index`."""
    rows = sorted((position, k, row) for k, batch in enumerate(batches)
                  for row, position in enumerate(batch.index.tolist()))
    return "".join(oracle_episode_line(batches[k], row) + "\n" for _, k, row in rows)
