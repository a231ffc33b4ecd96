"""Reference comparison the lockstep `training.compare_models` is held to.

`sequential_compare` trains the three variants one after another, each run
through `train` with its own batches and held-out set, as `compare_models`
did before it advanced each seed's three runs in lockstep over one shared
batch stream. Every `SeedRun` field but `wall_seconds` must come out bit
for bit the same.
"""

from __future__ import annotations

from dataclasses import replace

from cgnp.training import (
    COMPARE_VARIANTS,
    SeedRun,
    TrainConfig,
    VariantResult,
    evaluate,
    loss_drop,
    train,
)


def sequential_compare(base: TrainConfig, seeds: int, test_set) -> list[VariantResult]:
    test_set = list(test_set)
    variants = {
        "cnp": replace(base.model, kind="cnp"),
        "cgnp": replace(base.model, kind="cgnp"),
        "cgnp_edgeless": replace(base.model, kind="cgnp", radius=0.0),
    }
    results = []
    for label in COMPARE_VARIANTS:
        model = variants[label]
        runs = []
        for i in range(seeds):
            cfg = replace(
                base,
                model=replace(model, init_seed=model.init_seed + i),
                protocol=replace(base.protocol, master_seed=base.protocol.master_seed + i),
            )
            store, report = train(cfg)
            metrics = evaluate(store, cfg.model, test_set)
            runs.append(
                SeedRun(
                    master_seed=cfg.protocol.master_seed,
                    init_seed=cfg.model.init_seed,
                    metrics=metrics,
                    loss_drop=loss_drop(report.losses)
                    if report.losses.size >= 2000
                    else float("nan"),
                    wall_seconds=report.wall_seconds,
                )
            )
        results.append(
            VariantResult(
                label=label,
                kind=model.kind,
                radius=None if model.kind == "cnp" else model.radius,
                runs=tuple(runs),
            )
        )
    return results
