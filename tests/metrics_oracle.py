"""Reference implementation the batched evaluation is held to.

`prediction_metrics` scores one flat `(mu, sigma)` pair of arrays per
episode (a batch of one), walking the episodes in order and accumulating
both NLL normalizations and the MSE over target points. `training.evaluate`
must agree with it, fed with per-episode forwards, up to summation order.
"""

from __future__ import annotations

from cgnp.autodiff import nll_terms
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
