"""Command-line surface: reproducible training, evaluation, and sweeps.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
All tabular output is RFC-4180-style CSV with a header row; plotting is left
to external tools.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .evaluate import (evaluate, negative_probes, noise_sweep, probe_users,
                       report_as_dict, report_rows, selection_cutoff)
from .config import (CONFIG_KEYS, MIN_TAU, ConfigError, ExperimentConfig,
                     _parse_float_list, _parse_int, _parse_int_list, check_range,
                     check_values, config_as_dict, load_config, override_config)
from .data import DataFormatError, Dataset, atomic_open, load_dataset, save_dataset
from .dro import estimate_eta, worst_case_weights
from .model import (CheckpointError, TrainingDivergedError, load_checkpoint,
                    save_checkpoint, train)
from .sampling import SamplerState, prepare_dataset

ARTIFACT_VERSION = "recdro-0.1.0"


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, cfg: ExperimentConfig, datasets: dict,
                    timing=None) -> None:
    manifest = {
        "artifact_version": ARTIFACT_VERSION,
        "seed": cfg.train.rng_seed,
        "config": config_as_dict(cfg),
        "datasets": datasets,
        "timing": timing,
    }
    _write_json(out_dir / "manifest.json", manifest)


def _write_json(path: Path, obj) -> None:
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_resume(out_dir: Path, datasets: dict) -> None:
    """Abort before touching outputs if an old manifest hashes differently."""
    path = out_dir / "manifest.json"
    if not path.exists():
        return
    with open(path, "r", encoding="utf-8") as fh:
        old = json.load(fh)
    for split, entry in datasets.items():
        recorded = old.get("datasets", {}).get(split, {}).get("sha256")
        if recorded and recorded != entry["sha256"]:
            raise RuntimeError(
                f"{split} dataset hash mismatch against existing manifest in {out_dir}; "
                "refusing to overwrite outputs")


def _load_split(cfg: ExperimentConfig) -> Dataset:
    if not cfg.train_file or not cfg.test_file:
        raise ConfigError("train_file and test_file must be set")
    return load_dataset(cfg.train_file, cfg.test_file)


def _load_scored(args):
    """The ``--checkpoint`` and the ``--train``/``--test`` split it is scored on."""
    return load_checkpoint(args.checkpoint).emb, load_dataset(args.train, args.test)


def _config_from_args(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    overrides = {}
    for key in CONFIG_KEYS:
        value = getattr(args, f"opt_{key}", None)
        if value is not None:
            overrides[key] = value
    if args.seed is not None:
        if args.opt_rng_seed is not None and _parse_int(args.opt_rng_seed) != args.seed:
            raise ConfigError(f"--seed {args.seed} and --rng-seed {args.opt_rng_seed} "
                              "disagree; give one of them")
        overrides["rng_seed"] = str(args.seed)
    if overrides:
        cfg = override_config(cfg, overrides)
    return cfg


def _write_csv(path: Path, header, rows) -> None:
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_train(args) -> int:
    cfg = _config_from_args(args)
    # a split that fails to load or prepare leaves no output behind
    ds, train_cfg = prepare_dataset(_load_split(cfg), cfg.train)
    # each split hashed once, as loaded, for the resume check and both manifests
    datasets = {split: {"path": path, "sha256": _sha256(Path(path))}
                for split, path in (("train", cfg.train_file), ("test", cfg.test_file))}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _check_resume(out_dir, datasets)
    _write_manifest(out_dir, cfg, datasets)

    ks = cfg.eval_ks
    metric_cols = [f"{name}@{k}" for name in ("recall", "ndcg") for k in ks]
    best = {"ndcg": -1.0, "epoch": -1}
    epoch_times: list[float] = []
    last_tick = time.perf_counter()

    def callback(epoch, emb):
        # an epoch's time ends after its own evaluation and checkpoint
        nonlocal last_tick
        metrics = None
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0:
            report = evaluate(emb, ds, ks)
            select_k = selection_cutoff(ks)
            if report.ndcg[select_k] > best["ndcg"]:
                best.update(ndcg=report.ndcg[select_k], epoch=epoch)
                save_checkpoint(out_dir / "best.npz", emb,
                                epoch=epoch, seed=cfg.train.rng_seed)
            values = [report.recall[k] for k in ks] + [report.ndcg[k] for k in ks]
            metrics = dict(zip(metric_cols, values))
        now = time.perf_counter()
        epoch_times.append(now - last_tick)
        last_tick = now
        return metrics

    started = time.perf_counter()
    emb, log = train(ds, train_cfg, cfg.loss, epoch_callback=callback)
    wall = time.perf_counter() - started

    save_checkpoint(out_dir / "last.npz", emb,
                    epoch=cfg.train.epochs - 1, seed=cfg.train.rng_seed)
    if best["epoch"] < 0:  # no evaluation of this run saved a best model
        save_checkpoint(out_dir / "best.npz", emb,
                        epoch=cfg.train.epochs - 1, seed=cfg.train.rng_seed)

    rows = []
    for entry in log:
        row = [entry["epoch"], repr(entry["mean_loss"])]
        row += [repr(entry[c]) if c in entry else "" for c in metric_cols]
        rows.append(row)
    _write_csv(out_dir / "epochs.csv", ["epoch", "mean_loss"] + metric_cols, rows)
    _write_manifest(out_dir, cfg, datasets, timing={"wall_clock_s": wall,
                                                    "per_epoch_s": epoch_times})
    return 0


def cmd_evaluate(args) -> int:
    ks = check_values("--ks", _parse_int_list(args.ks), 1)
    check_range("--n-groups", args.n_groups, 1, math.inf)
    emb, ds = _load_scored(args)
    report = evaluate(emb, ds, ks, n_groups=args.n_groups)
    print(json.dumps(report_as_dict(report), indent=2, sort_keys=True))
    if args.out:
        _write_csv(Path(args.out), ["metric", "key", "value"], report_rows(report))
    return 0


def cmd_noise_sweep(args) -> int:
    cfg = _config_from_args(args)
    r_values = _parse_float_list(args.r_noise_values or "")
    n_values = _parse_int_list(args.n_negatives_values or "")
    p_values = _parse_float_list(args.pos_noise_values or "")
    if not (r_values or n_values or p_values):
        raise ConfigError("empty sweep: give at least one of --r-noise-values, "
                          "--n-negatives-values, --pos-noise-values")
    ds = _load_split(cfg)
    sweep = noise_sweep(ds, cfg.train, cfg.loss, r_values, tau_grid=cfg.tau_grid,
                        eval_ks=cfg.eval_ks, n_negatives_values=n_values,
                        pos_noise_values=p_values)
    select_k = selection_cutoff(cfg.eval_ks)

    # a NaN temperature or radius (a temperature-free loss, no probe user)
    # is left blank
    def cell(value):
        return "" if value is None or np.isnan(value) else repr(float(value))

    rows = [[cell(row.r_noise), cell(row.pos_noise_ratio),
             "" if row.n_negatives is None else row.n_negatives,
             cfg.loss.kind.value, cell(row.best_tau), repr(row.recall), repr(row.ndcg),
             cell(row.eta_mean), cell(row.eta_median)]
            for row in sweep]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "sweep.csv",
               ["r_noise", "pos_noise_ratio", "n_negatives", "loss", "best_tau",
                f"recall@{select_k}", f"ndcg@{select_k}", "eta_mean", "eta_median"],
               rows)
    return 0


def cmd_dro_diagnose(args) -> int:
    taus = check_values("--taus", _parse_float_list(args.taus), MIN_TAU)
    check_range("--batches", args.batches, 1, math.inf)
    check_range("--n-negatives", args.n_negatives, 1, math.inf)
    seed = 0 if args.seed is None else args.seed
    check_range("--seed", seed, 0, math.inf)
    emb, ds = _load_scored(args)
    users = probe_users(ds)
    if not users.size:
        raise RuntimeError("no user has both positives and negatives")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    sampler = SamplerState.create(seed=seed)
    # the picks have a stream of their own: drawing them all before the
    # sampler's draws moves no bit
    rng = np.random.default_rng(sampler.rng.integers(2 ** 32))
    picks = [rng.choice(users) for _ in range(args.batches)]
    weight_rows = []
    eta_rows = []
    probes = negative_probes(emb, ds, sampler, args.n_negatives, picks)
    for b, (items, scores, base) in enumerate(probes):
        for tau in taus:
            wc = worst_case_weights(scores, base, tau)
            for item, s, w in zip(items, scores, wc.weights):
                weight_rows.append([b, repr(tau), int(item), repr(float(s)),
                                    repr(float(w))])
            eta_rows.append([b, repr(tau),
                             repr(estimate_eta(scores, base, tau)),
                             repr(wc.kl_radius)])
    _write_csv(out_dir / "weights.csv",
               ["batch", "tau", "item", "score", "weight"], weight_rows)
    _write_csv(out_dir / "eta.csv",
               ["batch", "tau", "eta_estimate", "achieved_kl"], eta_rows)
    return 0


def cmd_fairness_report(args) -> int:
    check_range("--n-groups", args.n_groups, 1, math.inf)
    emb, ds = _load_scored(args)
    # (column suffix, summary prefix, table): the model, then any baseline
    models = [("", "", emb)]
    if args.baseline_checkpoint:
        baseline = load_checkpoint(args.baseline_checkpoint).emb
        models.append(("_baseline", "baseline_", baseline))
    columns, summary = {}, {}
    for suffix, prefix, table in models:
        report = evaluate(table, ds, [20], n_groups=args.n_groups)
        columns["group"] = list(range(report.group_ndcg.size))
        columns[f"ndcg_contribution{suffix}"] = [repr(float(v)) for v in report.group_ndcg]
        summary[f"{prefix}neg_score_variance"] = report.neg_score_variance
        summary[f"{prefix}ndcg@20"] = report.ndcg[20]
    rows = list(zip(*columns.values()))
    if args.out:
        _write_csv(Path(args.out), list(columns.keys()), rows)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_ingest(args) -> int:
    # the split is built and validated before anything is written
    ds, maps = (_load_remapped(args.train, args.test) if args.remap
                else (load_dataset(args.train, args.test), {}))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in maps.items():
        _write_csv(out_dir / name, ["raw", "dense"], rows)
    save_dataset(ds, out_dir / "train.txt", out_dir / "test.txt")
    stats = {"n_users": ds.n_users, "n_items": ds.n_items,
             "n_train_interactions": ds.n_train_interactions,
             "n_test_interactions": int(sum(a.size for a in ds.test_pos))}
    _write_json(out_dir / "stats.json", stats)
    print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _load_remapped(train_path, test_path) -> tuple[Dataset, dict]:
    """Densify arbitrary integer ids; also return the (raw, dense) tables by file name."""
    from .data import _parse_adjacency

    train_map = _parse_adjacency(train_path)
    test_map = _parse_adjacency(test_path)
    users = sorted(set(train_map) | set(test_map))
    items = sorted({i for lst in list(train_map.values()) + list(test_map.values())
                    for i in lst})
    item_id = {i: n for n, i in enumerate(items)}
    train = [[item_id[i] for i in train_map.get(u, [])] for u in users]
    test = [[item_id[i] for i in test_map.get(u, [])] for u in users]
    maps = {"user_map.csv": [[u, n] for n, u in enumerate(users)],
            "item_map.csv": [[i, n] for n, i in enumerate(items)]}
    return Dataset.from_positive_lists(train, test), maps


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recdro",
        description="Matrix-factorization training, ranking evaluation, and "
                    "KL-ball robustness diagnostics.")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured rng seed")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flag sets that several subcommands share, each declared once
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True)
    configured.add_argument("--out", required=True)
    for key in CONFIG_KEYS:
        configured.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}",
                                default=None, metavar="V",
                                help=f"override config key {key}")
    scored = argparse.ArgumentParser(add_help=False)
    for flag in ("--checkpoint", "--train", "--test"):
        scored.add_argument(flag, required=True)

    p = sub.add_parser("ingest", help="validate/normalize raw interaction files")
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--remap", action="store_true",
                   help="densify arbitrary integer ids and write mapping tables")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", parents=[configured],
                       help="train a model from a config file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", parents=[scored],
                       help="evaluate a checkpoint on a split")
    p.add_argument("--ks", default="20", help="comma-separated cutoffs")
    p.add_argument("--n-groups", type=int, default=10)
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("noise-sweep", parents=[configured],
                       help="train/evaluate over noise levels and sample counts")
    p.add_argument("--r-noise-values", default=None)
    p.add_argument("--n-negatives-values", default=None)
    p.add_argument("--pos-noise-values", default=None)
    p.set_defaults(func=cmd_noise_sweep)

    p = sub.add_parser("dro-diagnose", parents=[scored],
                       help="emit worst-case weights and radius estimates")
    p.add_argument("--taus", default="0.05,0.1,0.2,0.5")
    p.add_argument("--batches", type=int, default=1)
    p.add_argument("--n-negatives", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_dro_diagnose)

    p = sub.add_parser("fairness-report", parents=[scored],
                       help="per-popularity-group metric contributions")
    p.add_argument("--baseline-checkpoint", default=None)
    p.add_argument("--n-groups", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fairness_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, CheckpointError, TrainingDivergedError,
            RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
