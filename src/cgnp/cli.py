"""Experiment command line: generate | train | eval | compare | plot.

Configuration comes from a flat key=value text file plus key=value overrides
appended to the command line (overrides win). Unknown keys are rejected;
missing keys take the documented defaults below.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import formats
from .gp import EpisodeBatch, EqKernelSpec, ProtocolConfig, make_test_set
from .models import ModelConfig, forward_tensors
from .training import (
    Metrics,
    TrainConfig,
    compare_models,
    evaluate,
    train,
)

__all__ = ["main", "parse_run_config", "CONFIG_DEFAULTS"]

# every default but the model kind is the config dataclasses' own
_DEFAULT = TrainConfig(model=ModelConfig(kind="cgnp"))
CONFIG_DEFAULTS: dict[str, object] = {
    "model.kind": _DEFAULT.model.kind,
    "model.latent_dim": _DEFAULT.model.latent_dim,
    "model.radius": _DEFAULT.model.radius,
    "train.lr": _DEFAULT.lr,
    "train.batches": _DEFAULT.protocol.train_batches,
    "train.batch_size": _DEFAULT.protocol.batch_size,
    "train.eval_every": _DEFAULT.eval_every,
    "seed.master": _DEFAULT.protocol.master_seed,
    "seed.init": _DEFAULT.model.init_seed,
    "data.length_scale": _DEFAULT.kernel.length_scale,
    "data.jitter": _DEFAULT.kernel.jitter,
    "data.test_episodes": _DEFAULT.protocol.test_episodes,
}

# upper bounds on the keys that size an allocation, so that an oversized
# value is rejected naming the key rather than failing inside numpy
CONFIG_MAXIMA = {
    "model.latent_dim": 512,
    "train.batches": 10**7,
    "train.batch_size": 4096,
    "data.test_episodes": 10**5,
}


def _coerce(key: str, raw: str):
    default = CONFIG_DEFAULTS[key]
    if isinstance(default, str):
        return raw
    try:
        value = type(default)(raw)
    except ValueError as exc:
        raise ValueError(f"config key {key}: cannot parse {raw!r}: {exc}") from exc
    if not math.isfinite(value):
        raise ValueError(f"config key {key}: must be finite, got {value}")
    if key in CONFIG_MAXIMA and value > CONFIG_MAXIMA[key]:
        raise ValueError(f"config key {key}: must be at most {CONFIG_MAXIMA[key]}, got {value}")
    return value


def parse_run_config(path: str | None, overrides: list[str] | None = None) -> dict:
    """Defaults, then the config file, then command-line overrides. Only
    the last value given for a key is parsed and range-checked, so a later
    entry replaces an earlier bad one; an unknown key is rejected anywhere."""
    cfg = dict(CONFIG_DEFAULTS)
    entries: list[tuple[str, str]] = []
    if path is not None:
        for ln, line in enumerate(formats.read_text(path).splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key = value, got {line!r}")
            key, _, raw = line.partition("=")
            entries.append((key.strip(), raw.strip()))
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not key=value")
        key, _, raw = item.partition("=")
        entries.append((key.strip(), raw.strip()))
    for key, _ in entries:
        if key not in CONFIG_DEFAULTS and not key.startswith("paths."):
            raise ValueError(f"unknown config key {key!r}")
    for key, raw in dict(entries).items():  # the last value of each key
        cfg[key] = raw if key.startswith("paths.") else _coerce(key, raw)
    for key in CONFIG_DEFAULTS:  # range checks, one key at a time so the error names it
        try:
            _train_config({**CONFIG_DEFAULTS, key: cfg[key]})
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from exc
    return cfg


def _config_echo(cfg: dict) -> str:
    return " ".join(f"{k}={cfg[k]}" for k in sorted(cfg))


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        model=ModelConfig(
            kind=cfg["model.kind"],
            latent_dim=cfg["model.latent_dim"],
            radius=cfg["model.radius"],
            init_seed=cfg["seed.init"],
        ),
        kernel=EqKernelSpec(length_scale=cfg["data.length_scale"], jitter=cfg["data.jitter"]),
        protocol=ProtocolConfig(
            batch_size=cfg["train.batch_size"],
            train_batches=cfg["train.batches"],
            test_episodes=cfg["data.test_episodes"],
            master_seed=cfg["seed.master"],
        ),
        lr=cfg["train.lr"],
        eval_every=cfg["train.eval_every"],
    )


def _print_metrics(metrics: Metrics) -> None:
    print(
        f"nll_per_point={metrics.nll_per_point!r} "
        f"nll_per_episode={metrics.nll_per_episode!r} "
        f"mse={metrics.mse!r} "
        f"episode_count={metrics.episode_count}"
    )


def _finite(metrics: Metrics) -> bool:
    return all(map(math.isfinite, (metrics.nll_per_point, metrics.nll_per_episode, metrics.mse)))


def _episode_at(batches: list[EpisodeBatch], position: int) -> EpisodeBatch:
    """The episode at `position` (as `formats.load_episodes` counts it) as a batch of one."""
    batch, row = next((b, k) for b in batches for k in np.flatnonzero(b.index == position))
    return EpisodeBatch(batch.x_c[row : row + 1], batch.y_c[row : row + 1],
                        batch.x_t[row : row + 1], batch.y_t[row : row + 1])


def _check_out(option: str, given: Path, files: list[Path] | None = None, make_dirs: bool = False) -> None:
    """Reject, before any work, a `given` path whose output `files` (by
    default `given` itself) cannot be written: one is a directory, or their
    directory lies under a file or, unless the command makes it, does not exist."""
    files = files or [given]
    for path in files:
        if path.is_dir():
            raise ValueError(f"{option} {given}: {path} is a directory")
    directory = files[0].parent
    existing = next(p for p in (directory, *directory.parents) if p.exists())
    if not existing.is_dir():
        raise ValueError(f"{option} {given}: {existing} exists and is not a directory")
    if existing != directory and not make_dirs:
        raise ValueError(f"{option} {given}: directory {directory} does not exist")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    train_cfg = _train_config(parse_run_config(args.config, args.overrides))
    _check_out("--out", Path(args.out))
    batches = make_test_set(train_cfg.protocol, train_cfg.kernel)
    formats.save_episodes(args.out, batches)
    print(f"wrote {sum(map(len, batches))} episodes to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = parse_run_config(args.config, args.overrides)
    train_cfg = _train_config(cfg)
    out_dir = Path(args.out_dir)
    # checked before training; the directory is made only after it
    _check_out("--out-dir", out_dir, [out_dir / n for n in ("checkpoint.json", "report.csv", "loss_curve.csv")],
               make_dirs=True)

    def log(batch_index, loss, metrics):
        print(f"batch={batch_index} loss={loss:.6f}", flush=True)
        if metrics is not None:
            print(
                f"heldout batch={batch_index} nll_per_point={metrics.nll_per_point:.6f} "
                f"mse={metrics.mse:.6f}",
                flush=True,
            )

    store, report = train(train_cfg, log=log)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once there is something to write
    formats.save_checkpoint(out_dir / "checkpoint.json", store, train_cfg.model, extra=dict(cfg))
    if report.final_metrics is not None:
        header = f"train report config: {_config_echo(cfg)}"
        formats.atomic_write_text(
            out_dir / "report.csv", formats.metrics_csv(report.final_metrics, header)
        )
    curve = "\n".join(f"{i},{float(v)!r}" for i, v in enumerate(report.losses))
    formats.atomic_write_text(out_dir / "loss_curve.csv", "batch,loss\n" + curve + "\n")
    print(f"trained {train_cfg.model.kind} for {report.losses.size} batches "
          f"in {report.wall_seconds:.1f}s; checkpoint at {out_dir / 'checkpoint.json'}")
    return 0


def cmd_eval(args) -> int:
    store, model_cfg, _ = formats.load_checkpoint(args.checkpoint)
    # after the checkpoint, so that a missing one is named rather than its default --out
    out = Path(args.out or Path(args.checkpoint).with_suffix(".metrics.csv"))
    _check_out("--out", out)
    batches = formats.load_episodes(args.data)
    if not batches:
        raise ValueError(f"{args.data}: no episodes to evaluate")
    metrics = evaluate(store, model_cfg, batches)
    if not _finite(metrics):  # only then look for the episode, so that a good run pays nothing
        bad = next((i for i in range(metrics.episode_count)
                    if not _finite(evaluate(store, model_cfg, [_episode_at(batches, i)]))), None)
        where = "summed over its episodes, " if bad is None else f"episode {bad}: "
        raise ValueError(f"{args.data}: {where}the model's metrics are not finite")
    _print_metrics(metrics)
    header = (
        f"eval checkpoint={args.checkpoint} data={args.data} "
        f"data_sha256={formats.file_sha256(args.data)}"
    )
    formats.atomic_write_text(out, formats.metrics_csv(metrics, header))
    return 0


def cmd_compare(args) -> int:
    if args.seeds < 1:
        raise ValueError(f"--seeds must be at least 1, got {args.seeds}")
    cfg = parse_run_config(args.config, args.overrides)
    train_cfg = _train_config(cfg)
    if train_cfg.protocol.test_episodes < 1:
        raise ValueError("config key data.test_episodes: compare needs at least one test episode, got 0")
    out = Path(args.out)
    seeds_path = out.with_name(out.stem + "_seeds.csv")
    test_path = out.with_name(out.stem + "_testset.jsonl")
    _check_out("--out", out, [out, seeds_path, test_path], make_dirs=True)
    made = [d for d in (out.parent, *out.parent.parents) if not d.exists()]  # deepest first
    out.parent.mkdir(parents=True, exist_ok=True)
    batches = make_test_set(train_cfg.protocol, train_cfg.kernel)
    # written before training, so that an unwritable --out fails first
    formats.save_episodes(test_path, batches)
    test_hash = formats.file_sha256(test_path)

    try:
        results = compare_models(train_cfg, args.seeds, batches, log=print)
    except BaseException:  # a failed comparison leaves no file behind
        test_path.unlink(missing_ok=True)
        for directory in made:
            directory.rmdir()
        raise
    header = (
        f"compare seeds={args.seeds} test_set={test_path.name} "
        f"test_set_sha256={test_hash} config: {_config_echo(cfg)}"
    )
    table = formats.comparison_csv(results, header)
    formats.atomic_write_text(out, table)
    formats.atomic_write_text(seeds_path, formats.per_seed_csv(results, header))
    print(table, end="")
    return 0


def cmd_plot(args) -> int:
    _check_out("--out", Path(args.out))
    store, model_cfg, _ = formats.load_checkpoint(args.checkpoint)
    batches = formats.load_episodes(args.data)
    count = sum(map(len, batches))
    if not 0 <= args.index < count:
        raise ValueError(f"episode index {args.index} outside 0..{count - 1}")
    episode = _episode_at(batches, args.index)

    # predict at every point of the episode, context points included
    xs = np.concatenate([episode.x_c[0], episode.x_t[0]])
    ys = np.concatenate([episode.y_c[0], episode.y_t[0]])
    is_ctx = np.concatenate([np.ones(episode.n_context, dtype=int), np.zeros(episode.n_target, dtype=int)])
    order = np.argsort(xs, kind="stable")
    xs, ys, is_ctx = xs[order], ys[order], is_ctx[order]
    curve = EpisodeBatch(episode.x_c, episode.y_c, xs[None], ys[None])
    mu, sigma = forward_tensors(curve, store, model_cfg, train=False)
    if not (np.isfinite(mu.value).all() and np.isfinite(sigma.value).all()):
        raise ValueError(f"{args.data}: episode {args.index}: the model's prediction is not finite")
    lines = ["x,y_true,mu,sigma,is_context"]
    for x, y, m, s, flag in zip(xs, ys, mu.value.ravel(), sigma.value.ravel(), is_ctx):
        lines.append(f"{float(x)!r},{float(y)!r},{float(m)!r},{float(s)!r},{flag}")
    formats.atomic_write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {xs.size} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cgnp",
        description="Train and evaluate conditional (graph) neural processes on GP regression data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overrides(p):
        p.add_argument(
            "overrides",
            nargs="*",
            metavar="key=value",
            help="config overrides, e.g. model.kind=cnp train.batches=500",
        )

    p = sub.add_parser("generate", help="write the test episode set")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    add_overrides(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model and write a checkpoint")
    p.add_argument("--config", default=None)
    p.add_argument("--out-dir", required=True)
    add_overrides(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on an episode file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="metrics CSV (default: next to the checkpoint)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="train cnp/cgnp/edgeless-cgnp and tabulate metrics")
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--out", required=True)
    add_overrides(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("plot", help="export a fit curve as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # uniform nonzero exit with a clean message
        print(f"error: {exc}", file=sys.stderr)
        return 1
