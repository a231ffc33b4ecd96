"""Reference implementations the batched evaluation is held to.

`prediction_metrics` scores one flat `(mu, sigma)` pair of arrays per
episode (a batch of one), walking the episodes in order and accumulating
both NLL normalizations and the MSE over target points. `training.evaluate`
must agree with it, fed with per-episode forwards, up to summation order.

`sequential_evaluate` is `training.evaluate` as it was before the buckets
were scored on several threads: one bucket after another on the caller's
thread, each chunk's sums added to the totals as soon as they are computed.
`training.evaluate` must give its bits at any thread count.
"""

from __future__ import annotations

import cgnp.training as training
from cgnp.autodiff import gaussian_head, nll_terms, no_grad
from cgnp.models import decode, encode
from cgnp.training import Metrics


def prediction_metrics(predictions, episodes) -> Metrics:
    """Accumulate both NLL normalizations and MSE over target points."""
    predictions, episodes = list(predictions), list(episodes)
    if len(predictions) != len(episodes) or not episodes:
        raise ValueError("need one prediction per episode and at least one episode")
    total_nll = 0.0
    total_sq = 0.0
    total_points = 0
    for (mu, sigma), ep in zip(predictions, episodes):
        y = ep.y_t[0]
        total_nll += float(nll_terms(y, mu, sigma).sum())
        total_sq += float(((y - mu) ** 2).sum())
        total_points += ep.n_target
    return Metrics(
        nll_per_point=total_nll / total_points,
        nll_per_episode=total_nll / len(episodes),
        mse=total_sq / total_points,
        episode_count=len(episodes),
    )


@no_grad()
def sequential_evaluate(store, batches) -> Metrics:
    """Eval-mode metrics over shape buckets, scored in order on one thread,
    with chunks of `training.EVAL_CHUNK_ROWS` target rows as it is at the call."""
    batches = list(batches)
    episodes = sum(len(batch) for batch in batches)
    if not episodes:
        raise ValueError("need at least one episode to evaluate")
    total_nll = total_sq = 0.0
    total_points = 0
    for batch in batches:
        h, r = encode(batch.x_c, batch.y_c, store, train=False)
        n_c, step = batch.n_context, max(1, training.EVAL_CHUNK_ROWS // batch.n_target)
        for start in range(0, len(batch), step):
            rows = slice(start, start + step)
            h_rows = h.value[start * n_c:(start + step) * n_c]
            out = decode(batch.x_c[rows], h_rows, r.value[rows], batch.x_t[rows], store, train=False)
            mu, sigma = gaussian_head(out.value)
            y = batch.y_t[rows].reshape(-1, 1)
            total_nll += float(nll_terms(y, mu, sigma).sum())
            total_sq += float(((y - mu) ** 2).sum())
            total_points += y.size
    return Metrics(
        nll_per_point=total_nll / total_points,
        nll_per_episode=total_nll / episodes,
        mse=total_sq / total_points,
        episode_count=episodes,
    )
