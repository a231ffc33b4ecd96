"""Reference comparison the lockstep `training.compare_models` is held to.

`sequential_compare` trains the three variants one after another, each run
through `train`, a training group of one with its own batches and held-out
set. `compare_models` trains each seed's three variants as one group of
three over a shared batch stream and no held-out set, so matching this
oracle proves that a group of three equals three groups of one, and that
held-out passes leave a run unchanged: every `SeedRun` field but
`wall_seconds` must come out bit for bit the same. The training step itself
is held by `test_golden.py` and the compare, plot and eval pins in
`test_pinned_outputs.py`."""

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
            metrics = evaluate(store, test_set)
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
