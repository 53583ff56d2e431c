import argparse
import csv
import hashlib
import importlib
import math
import json
import warnings

import numpy as np
import pytest

from recdro.cli import build_parser, main
from recdro.data import load_dataset, save_dataset
from recdro.dro import worst_case_weights
from recdro.evaluate import evaluate, report_as_dict
from recdro.model import load_checkpoint
from recdro.synthetic import planted_clusters


def write_fixture(tmp_path, seed=0, **kwargs):
    params = dict(n_users=50, n_items=30, seed=seed)
    params.update(kwargs)
    ds = planted_clusters(**params)
    save_dataset(ds, tmp_path / "train.txt", tmp_path / "test.txt")
    return ds


def write_config(tmp_path, name="exp.cfg", **overrides):
    lines = {
        "train_file": str(tmp_path / "train.txt"),
        "test_file": str(tmp_path / "test.txt"),
        "loss": "sl",
        "tau": "0.2",
        "embedding_dim": "8",
        "learning_rate": "0.01",
        "epochs": "6",
        "batch_size": "256",
        "n_negatives": "8",
        "eval_every": "3",
        "eval_ks": "20",
        "rng_seed": "1",
    }
    lines.update({k: str(v) for k, v in overrides.items()})
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestTrainCommand:
    def test_missing_config_exits_2_and_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code = main(["train", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        write_fixture(tmp_path)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("learning_rte = 0.1\n")
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "learning_rte" in capsys.readouterr().err

    def test_dataset_load_failure_is_nonzero(self, tmp_path):
        write_fixture(tmp_path)
        (tmp_path / "train.txt").write_text("0 zzz\n")
        cfg = write_config(tmp_path)
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_outputs_and_determinism(self, tmp_path):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
        for sub in ("manifest.json", "epochs.csv", "best.npz", "last.npz"):
            assert (out1 / sub).exists()
        assert (out1 / "epochs.csv").read_bytes() == (out2 / "epochs.csv").read_bytes()
        rows = read_rows(out1 / "epochs.csv")
        assert rows[0][:2] == ["epoch", "mean_loss"]
        assert len(rows) == 7  # header + 6 epochs
        # eval_every=3 -> metrics attached on epochs 2 and 5
        assert rows[3][2] != "" and rows[6][2] != "" and rows[1][2] == ""

    def test_manifest_hash_mismatch_aborts(self, tmp_path):
        ds = write_fixture(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        epochs_before = (out / "epochs.csv").read_bytes()
        # swap the dataset under the same paths
        write_fixture(tmp_path, seed=99)
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        assert (out / "epochs.csv").read_bytes() == epochs_before

    def test_flag_overrides_config(self, tmp_path):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out),
                     "--epochs", "2"]) == 0
        assert len(read_rows(out / "epochs.csv")) == 3

    def test_planted_fixture_run_fits_time_budget(self, tmp_path):
        import time

        write_fixture(tmp_path, n_users=200, n_items=100)
        cfg = write_config(tmp_path, embedding_dim=16, epochs=50,
                           n_negatives=64, batch_size=1024, eval_every=10)
        out = tmp_path / "out"
        started = time.perf_counter()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert time.perf_counter() - started < 60.0

    def test_failed_write_keeps_previous_outputs(self, tmp_path, monkeypatch):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def savez_fails_midway(fh, **arrays):
            fh.write(b"PK partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_fails_midway)
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
        assert sorted(p.name for p in out.iterdir()) == sorted(before)
        for name in ("best.npz", "last.npz", "epochs.csv"):
            assert (out / name).read_bytes() == before[name]

    def test_seed_flag_changes_run(self, tmp_path):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--seed", "5", "train", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["--seed", "6", "train", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "epochs.csv").read_bytes() != (out2 / "epochs.csv").read_bytes()


class TestEvaluateCommand:
    def train_once(self, tmp_path):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_metric_grid_shape(self, tmp_path, capsys):
        out = self.train_once(tmp_path)
        csv_path = tmp_path / "report.csv"
        code = main(["evaluate", "--checkpoint", str(out / "last.npz"),
                     "--train", str(tmp_path / "train.txt"),
                     "--test", str(tmp_path / "test.txt"),
                     "--ks", "5,10,15,20", "--out", str(csv_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["recall"]) == {"5", "10", "15", "20"}
        rows = read_rows(csv_path)
        metrics = [r[0] for r in rows[1:]]
        assert metrics.count("recall") == 4
        assert metrics.count("ndcg") == 4

    def test_parity_with_library_call(self, tmp_path, capsys):
        out = self.train_once(tmp_path)
        code = main(["evaluate", "--checkpoint", str(out / "last.npz"),
                     "--train", str(tmp_path / "train.txt"),
                     "--test", str(tmp_path / "test.txt"), "--ks", "20"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        ds = load_dataset(tmp_path / "train.txt", tmp_path / "test.txt")
        ckpt = load_checkpoint(out / "last.npz")
        expected = report_as_dict(evaluate(ckpt.emb, ds, [20],
                                           n_groups=min(10, ds.n_items)))
        assert payload == expected

    def test_corrupted_checkpoint_no_partial_output(self, tmp_path, capsys):
        write_fixture(tmp_path)
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"garbage")
        csv_path = tmp_path / "report.csv"
        code = main(["evaluate", "--checkpoint", str(bad),
                     "--train", str(tmp_path / "train.txt"),
                     "--test", str(tmp_path / "test.txt"), "--out", str(csv_path)])
        assert code == 1
        assert not csv_path.exists()


class TestNoiseSweepCommand:
    def test_empty_sweep_is_usage_error(self, tmp_path, capsys):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path)
        code = main(["noise-sweep", "--config", str(cfg), "--out", str(tmp_path / "s")])
        assert code == 2
        assert "empty sweep" in capsys.readouterr().err

    def test_single_cell_matches_library_grid_search(self, tmp_path):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path, tau_grid="0.1,0.2", eval_every="0")
        out = tmp_path / "sweep"
        code = main(["noise-sweep", "--config", str(cfg), "--out", str(out),
                     "--r-noise-values", "0"])
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert rows[0][0] == "r_noise"
        assert len(rows) == 2
        from recdro.config import load_config
        from recdro.evaluate import grid_search_train
        conf = load_config(cfg)
        ds = load_dataset(tmp_path / "train.txt", tmp_path / "test.txt")
        grid = grid_search_train(ds, conf.train, conf.loss,
                                 tau_grid=conf.tau_grid, eval_ks=conf.eval_ks,
                                 n_groups=min(10, ds.n_items))
        cell = dict(zip(rows[0], rows[1]))
        assert float(cell["best_tau"]) == grid.best_tau
        assert float(cell["ndcg@20"]) == grid.report.ndcg[20]

    def test_n_negatives_axis_emits_one_row_per_cell(self, tmp_path):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path, tau_grid="0.2", epochs="3")
        out = tmp_path / "sweep"
        code = main(["noise-sweep", "--config", str(cfg), "--out", str(out),
                     "--n-negatives-values", "4,8,16"])
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        assert [r[2] for r in rows[1:]] == ["4", "8", "16"]

    def test_n_negatives_spread_recorded_per_loss(self, tmp_path):
        # stability across sample counts is recorded, not asserted: at this
        # fixture scale every loss is essentially flat over the cells, so the
        # spread comparison carries no signal (see the sweep CSV itself)
        write_fixture(tmp_path, n_users=60, n_items=40)
        out = {}
        for loss in ("sl", "mse"):
            cfg = write_config(tmp_path, name=f"{loss}.cfg", loss=loss,
                               tau_grid="0.1,0.2", epochs="10", eval_every="0")
            sweep_dir = tmp_path / f"sweep_{loss}"
            assert main(["noise-sweep", "--config", str(cfg),
                         "--out", str(sweep_dir),
                         "--n-negatives-values", "4,16,64"]) == 0
            rows = read_rows(sweep_dir / "sweep.csv")
            ndcgs = [float(r[6]) for r in rows[1:]]
            assert len(ndcgs) == 3
            assert all(math.isfinite(v) and v > 0 for v in ndcgs)
            out[loss] = max(ndcgs) - min(ndcgs)
        assert all(math.isfinite(s) for s in out.values())

    def test_contamination_axis_degrades_metrics(self, tmp_path):
        write_fixture(tmp_path, n_users=80, n_items=60, n_user_clusters=4,
                      n_item_clusters=4, p_in=0.25, p_out=0.005)
        cfg = write_config(tmp_path, tau_grid="0.2", epochs="25",
                           eval_every="0", n_negatives="32")
        out = tmp_path / "sweep"
        code = main(["noise-sweep", "--config", str(cfg), "--out", str(out),
                     "--pos-noise-values", "0,0.4"])
        assert code == 0
        rows = read_rows(out / "sweep.csv")
        clean, noisy = (float(r[6]) for r in rows[1:])
        assert noisy < clean


    @pytest.mark.parametrize("flag, values", [
        ("--r-noise-values", "0,1,-1"),
        ("--n-negatives-values", "8,0"),
        ("--pos-noise-values", "0,1.5"),
    ])
    def test_bad_axis_value_is_usage_error_before_training(self, tmp_path, monkeypatch,
                                                           flag, values):
        # the package re-exports a function named evaluate over the module
        evaluate_module = importlib.import_module("recdro.evaluate")
        trained = []
        monkeypatch.setattr(evaluate_module, "train",
                            lambda *args, **kwargs: trained.append(args))
        write_fixture(tmp_path)
        cfg = write_config(tmp_path, tau_grid="0.2")
        out = tmp_path / "sweep"
        code = main(["noise-sweep", "--config", str(cfg), "--out", str(out),
                     flag, values])
        assert code == 2
        assert trained == []
        assert not (out / "sweep.csv").exists()

    def test_bsl_pos_noise_axis_matches_library_sweep(self, tmp_path):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path, loss="bsl", tau_grid="0.1,0.5", epochs="4",
                           eval_every="0")
        out = tmp_path / "sweep"
        assert main(["noise-sweep", "--config", str(cfg), "--out", str(out),
                     "--pos-noise-values", "0,0.3"]) == 0
        rows = read_rows(out / "sweep.csv")[1:]
        from recdro.config import load_config
        from recdro.evaluate import grid_search_train, noise_sweep
        conf = load_config(cfg)
        ds = load_dataset(tmp_path / "train.txt", tmp_path / "test.txt")
        sweep = noise_sweep(ds, conf.train, conf.loss, tau_grid=conf.tau_grid,
                            eval_ks=conf.eval_ks, pos_noise_values=[0.0, 0.3])
        assert len(rows) == len(sweep) == 2
        for row, cell in zip(rows, sweep):
            assert float(row[1]) == cell.pos_noise_ratio
            assert float(row[4]) == cell.best_tau
            assert float(row[6]) == cell.ndcg
        clean = grid_search_train(ds, conf.train, conf.loss, tau_grid=conf.tau_grid,
                                  tau_param="tau_pos", eval_ks=conf.eval_ks,
                                  n_groups=min(10, ds.n_items))
        assert sweep[0].best_tau == clean.best_tau
        assert sweep[0].ndcg == clean.report.ndcg[20]


class TestDroDiagnoseCommand:
    def test_weights_match_offline_recomputation(self, tmp_path):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        diag = tmp_path / "diag"
        code = main(["--seed", "3", "dro-diagnose",
                     "--checkpoint", str(out / "last.npz"),
                     "--train", str(tmp_path / "train.txt"),
                     "--test", str(tmp_path / "test.txt"),
                     "--taus", "0.5,0.1", "--batches", "2",
                     "--n-negatives", "16", "--out", str(diag)])
        assert code == 0
        rows = read_rows(diag / "weights.csv")[1:]
        assert len(rows) == 2 * 2 * 16  # batches x taus x negatives
        by_cell = {}
        for batch, tau, item, score, weight in rows:
            by_cell.setdefault((batch, tau), []).append((float(score), float(weight)))
        for (batch, tau), pairs in by_cell.items():
            scores = np.array([p[0] for p in pairs])
            weights = np.array([p[1] for p in pairs])
            base = np.full(scores.size, 1 / scores.size)
            expect = worst_case_weights(scores, base, float(tau)).weights
            assert np.allclose(weights, expect, atol=1e-9)
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_smaller_tau_has_lower_entropy(self, tmp_path):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        diag = tmp_path / "diag"
        assert main(["dro-diagnose", "--checkpoint", str(out / "last.npz"),
                     "--train", str(tmp_path / "train.txt"),
                     "--test", str(tmp_path / "test.txt"),
                     "--taus", "0.5,0.05", "--batches", "1",
                     "--n-negatives", "32", "--out", str(diag)]) == 0
        rows = read_rows(diag / "weights.csv")[1:]
        ent = {}
        for batch, tau, item, score, weight in rows:
            ent.setdefault(float(tau), []).append(float(weight))
        def entropy(ws):
            w = np.array([x for x in ws if x > 0])
            return float(-(w * np.log(w)).sum())
        assert entropy(ent[0.05]) < entropy(ent[0.5])


class TestFairnessReportCommand:
    def train_once(self, tmp_path, seed=1):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path, rng_seed=seed)
        out = tmp_path / f"out{seed}"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return out

    def test_single_group_equals_overall(self, tmp_path, capsys):
        out = self.train_once(tmp_path)
        csv_path = tmp_path / "fair.csv"
        code = main(["fairness-report", "--checkpoint", str(out / "last.npz"),
                     "--train", str(tmp_path / "train.txt"),
                     "--test", str(tmp_path / "test.txt"),
                     "--n-groups", "1", "--out", str(csv_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        rows = read_rows(csv_path)
        assert len(rows) == 2
        assert float(rows[1][1]) == pytest.approx(payload["ndcg@20"], abs=1e-12)

    def test_identical_checkpoints_identical_columns(self, tmp_path, capsys):
        out = self.train_once(tmp_path)
        csv_path = tmp_path / "fair.csv"
        code = main(["fairness-report", "--checkpoint", str(out / "last.npz"),
                     "--baseline-checkpoint", str(out / "last.npz"),
                     "--train", str(tmp_path / "train.txt"),
                     "--test", str(tmp_path / "test.txt"),
                     "--n-groups", "5", "--out", str(csv_path)])
        assert code == 0
        rows = read_rows(csv_path)[1:]
        assert len(rows) == 5
        for _, a, b in rows:
            assert a == b


class TestIngestCommand:
    def test_remap_densifies_ids(self, tmp_path):
        (tmp_path / "raw_train.txt").write_text("100 7 900\n5 900\n")
        (tmp_path / "raw_test.txt").write_text("100 12\n")
        out = tmp_path / "ingested"
        code = main(["ingest", "--train", str(tmp_path / "raw_train.txt"),
                     "--test", str(tmp_path / "raw_test.txt"),
                     "--out", str(out), "--remap"])
        assert code == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["n_users"] == 2
        assert stats["n_items"] == 3
        ds = load_dataset(out / "train.txt", out / "test.txt")
        assert ds.n_users == 2 and ds.n_items == 3
        maps = read_rows(out / "item_map.csv")
        assert maps[0] == ["raw", "dense"]

    def test_roundtrip_without_remap(self, tmp_path):
        ds = write_fixture(tmp_path)
        out = tmp_path / "ingested"
        code = main(["ingest", "--train", str(tmp_path / "train.txt"),
                     "--test", str(tmp_path / "test.txt"), "--out", str(out)])
        assert code == 0
        again = load_dataset(out / "train.txt", out / "test.txt")
        assert again.equals(ds)


class TestListFlagParsing:
    """Unparsable list flags are usage errors (exit 2), like config values."""

    @pytest.mark.parametrize("flag, values", [
        ("--r-noise-values", "0,abc"),
        ("--n-negatives-values", "4,eight"),
        ("--pos-noise-values", "0.1;0.2"),
    ])
    def test_noise_sweep_axis(self, tmp_path, capsys, flag, values):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path, tau_grid="0.2")
        out = tmp_path / "sweep"
        assert main(["noise-sweep", "--config", str(cfg), "--out", str(out),
                     flag, values]) == 2
        assert "expected" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def trained_checkpoint(self, tmp_path):
        write_fixture(tmp_path)
        cfg = write_config(tmp_path, epochs="1", eval_every="0")
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        return out / "last.npz"

    def test_dro_diagnose_taus(self, tmp_path, capsys):
        ckpt = self.trained_checkpoint(tmp_path)
        assert main(["dro-diagnose", "--checkpoint", str(ckpt),
                     "--train", str(tmp_path / "train.txt"),
                     "--test", str(tmp_path / "test.txt"),
                     "--taus", "0.1,x", "--out", str(tmp_path / "diag")]) == 2
        assert "expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("ks, message", [
        ("10,2.5", "expected an integer"), ("10,0", "--ks"), ("", "--ks"),
    ])
    def test_evaluate_ks(self, tmp_path, capsys, ks, message):
        ckpt = self.trained_checkpoint(tmp_path)
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--train", str(tmp_path / "train.txt"),
                     "--test", str(tmp_path / "test.txt"), "--ks", ks]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("dro-diagnose", "--n-negatives"), ("dro-diagnose", "--batches"),
    ("evaluate", "--n-groups"), ("fairness-report", "--n-groups"),
])
def test_count_flag_below_one_exits_2_before_reading_files(tmp_path, capsys,
                                                           command, flag):
    # none of the input files exist, so reading any of them would exit 1
    argv = [command, "--checkpoint", str(tmp_path / "missing.npz"),
            "--train", str(tmp_path / "train.txt"), "--test", str(tmp_path / "test.txt"),
            flag, "0"]
    if command == "dro-diagnose":
        argv += ["--out", str(tmp_path / "diag")]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "diag").exists()


def test_noise_sweep_applies_config_pos_noise_ratio(tmp_path):
    write_fixture(tmp_path)
    csvs = {}
    for ratio in ("0.0", "0.4"):
        cfg = write_config(tmp_path, name=f"r{ratio}.cfg", tau_grid="0.2", epochs="4",
                           eval_every="0", pos_noise_ratio=ratio)
        out = tmp_path / f"sweep{ratio}"
        assert main(["noise-sweep", "--config", str(cfg), "--out", str(out),
                     "--r-noise-values", "0"]) == 0
        csvs[ratio] = (out / "sweep.csv").read_bytes()
    assert csvs["0.4"] != csvs["0.0"]


def test_canonical_bsl_epochs_csv_mean_loss_is_a_number(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, loss="bsl", bsl_form="canonical", epochs="3",
                       eval_every="0")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_rows(out / "epochs.csv")[1:]
    assert len(rows) == 3
    assert all(math.isfinite(float(row[1])) for row in rows)


@pytest.mark.parametrize("command, argv, value", [
    ("train", [], "inf"), ("train", [], "nan"), ("train", ["--r-noise", "inf"], "0"),
    ("noise-sweep", ["--r-noise-values", "0,inf"], "0"),
    ("noise-sweep", ["--r-noise-values", "nan"], "0"),
    ("noise-sweep", ["--n-negatives-values", "8"], "inf"),
])
def test_non_finite_r_noise_exits_2_before_training(tmp_path, capsys, monkeypatch,
                                                    command, argv, value):
    # the package re-exports a function named evaluate over the module
    evaluate_module = importlib.import_module("recdro.evaluate")
    cli_module = importlib.import_module("recdro.cli")
    trained = []
    for module in (evaluate_module, cli_module):
        monkeypatch.setattr(module, "train", lambda *args, **kwargs: trained.append(args))
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, tau_grid="0.2", r_noise=value)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *argv]) == 2
    assert "r_noise" in capsys.readouterr().err
    assert trained == []
    assert not out.exists() or not any(out.iterdir())


def test_train_with_malformed_split_leaves_no_outputs(tmp_path):
    write_fixture(tmp_path)
    good = (tmp_path / "train.txt").read_text()
    (tmp_path / "train.txt").write_text("0 1 x\n")
    cfg = write_config(tmp_path, epochs="2", eval_every="0")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    # the fixed file trains into the same directory
    (tmp_path / "train.txt").write_text(good)
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_noise_sweep_usage_error_creates_no_directory(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, tau_grid="0.2")
    out = tmp_path / "sweep"
    assert main(["noise-sweep", "--config", str(cfg), "--out", str(out),
                 "--r-noise-values", "inf"]) == 2
    assert not out.exists()


def test_ingest_write_failing_midway_leaves_previous_outputs(tmp_path, monkeypatch):
    write_fixture(tmp_path)
    out = tmp_path / "ingested"
    argv = ["ingest", "--train", str(tmp_path / "train.txt"),
            "--test", str(tmp_path / "test.txt"), "--out", str(out)]
    assert main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_dump(obj, fh, **kwargs):
        fh.write("{")
        raise OSError("device full")

    monkeypatch.setattr(json, "dump", failing_dump)
    assert main(argv) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


BAD_TAUS = ["nan", "inf", "1e-9", "0", "-1"]


@pytest.mark.parametrize("key", ["tau", "tau_pos", "tau_neg", "tau_grid"])
@pytest.mark.parametrize("value", BAD_TAUS)
@pytest.mark.parametrize("command, argv", [
    ("train", []), ("noise-sweep", ["--r-noise-values", "0"]),
])
def test_temperature_outside_the_loss_range_exits_2_with_no_output(
        tmp_path, capsys, command, argv, key, value):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, loss="bsl", **{key: value})
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out), *argv]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", BAD_TAUS)
def test_dro_diagnose_taus_outside_the_loss_range_exits_2_with_no_files(
        tmp_path, capsys, value):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, epochs="1", eval_every="0")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    diag = tmp_path / "diag"
    assert main(["dro-diagnose", "--checkpoint", str(tmp_path / "out" / "last.npz"),
                 "--train", str(tmp_path / "train.txt"),
                 "--test", str(tmp_path / "test.txt"),
                 "--taus", f"0.1,{value}", "--out", str(diag)]) == 2
    assert "--taus" in capsys.readouterr().err
    assert not diag.exists()


@pytest.mark.parametrize("key", ["learning_rate", "l2_reg", "popularity_exponent",
                                 "bce_mse_balance"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_setting_exits_2_with_no_output(tmp_path, capsys, key, value):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, neg_sampler="popularity", **{key: value})
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


class TestIngestValidatesBeforeWriting:
    def write_raw(self, tmp_path, train, test):
        (tmp_path / "raw_train.txt").write_text(train)
        (tmp_path / "raw_test.txt").write_text(test)
        return ["--train", str(tmp_path / "raw_train.txt"),
                "--test", str(tmp_path / "raw_test.txt")]

    @pytest.mark.parametrize("remap", [[], ["--remap"]])
    def test_overlapping_split_writes_nothing(self, tmp_path, capsys, remap):
        files = self.write_raw(tmp_path, "10 5 6\n20 7\n", "10 6\n20 8\n")
        out = tmp_path / "ingested"
        assert main(["ingest", *files, "--out", str(out), *remap]) == 1
        assert "overlapping" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("remap", [[], ["--remap"]])
    def test_non_integer_token_writes_nothing(self, tmp_path, remap):
        files = self.write_raw(tmp_path, "10 5 x\n", "10 6\n")
        out = tmp_path / "ingested"
        assert main(["ingest", *files, "--out", str(out), *remap]) == 1
        assert not out.exists()


CONFIG_FLAGS = [
    "--batch-size", "--bce-mse-balance", "--bsl-form", "--config", "--embedding-dim",
    "--epochs", "--eval-every", "--eval-ks", "--learning-rate", "--l2-reg", "--loss",
    "--n-negatives", "--neg-sampler", "--out", "--popularity-exponent",
    "--pos-noise-ratio", "--r-noise", "--rng-seed", "--sampling-mode", "--tau",
    "--tau-grid", "--tau-neg", "--tau-pos", "--test-file", "--train-file",
]
SCORED_FLAGS = ["--checkpoint", "--test", "--train"]


@pytest.mark.parametrize("command, options, required", [
    ("ingest", ["--out", "--remap", "--test", "--train"], ["--out", "--test", "--train"]),
    ("train", CONFIG_FLAGS, ["--config", "--out"]),
    ("evaluate", SCORED_FLAGS + ["--ks", "--n-groups", "--out"], SCORED_FLAGS),
    ("noise-sweep", CONFIG_FLAGS + ["--n-negatives-values", "--pos-noise-values",
                                    "--r-noise-values"], ["--config", "--out"]),
    ("dro-diagnose", SCORED_FLAGS + ["--batches", "--n-negatives", "--out", "--taus"],
     SCORED_FLAGS + ["--out"]),
    ("fairness-report", SCORED_FLAGS + ["--baseline-checkpoint", "--n-groups", "--out"],
     SCORED_FLAGS),
])
def test_flag_surface(command, options, required):
    parser = build_parser()
    assert sorted(s for a in parser._actions for s in a.option_strings) == [
        "--help", "--seed", "-h"]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["ingest", "train", "evaluate", "noise-sweep",
                                 "dro-diagnose", "fairness-report"]
    actions = sub.choices[command]._actions
    assert sorted(s for a in actions for s in a.option_strings) == sorted(
        options + ["--help", "-h"])
    assert sorted(s for a in actions if a.required for s in a.option_strings) == sorted(
        required)


def test_popularity_exponent_the_split_cannot_take_exits_2_with_no_output(tmp_path, capsys):
    # item 3 occurs only in the test file: it has no training interactions,
    # so the exponent -1 gives it an infinite sampling weight
    (tmp_path / "train.txt").write_text("0 0 1\n1 1 2\n2 0 2\n")
    (tmp_path / "test.txt").write_text("0 3\n1 3\n")
    cfg = write_config(tmp_path, neg_sampler="popularity", popularity_exponent="-1",
                       n_negatives="2")
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert "popularity weights" in capsys.readouterr().err
    assert not out.exists()


def test_negative_popularity_exponent_names_the_setting_and_the_unseen_item(tmp_path, capsys):
    (tmp_path / "train.txt").write_text("0 0 1\n1 1 2\n2 0 2 4\n")
    (tmp_path / "test.txt").write_text("0 3\n1 3\n")
    cfg = write_config(tmp_path, neg_sampler="popularity", popularity_exponent="-1",
                       n_negatives="2")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert "popularity_exponent" in err and "item 3" in err
    assert not out.exists()


def test_train_without_evaluation_replaces_a_previous_runs_best(tmp_path):
    write_fixture(tmp_path)
    out = tmp_path / "out"
    first = write_config(tmp_path, "first.cfg", epochs=3, eval_every=1)
    assert main(["train", "--config", str(first), "--out", str(out)]) == 0
    for eval_every in (0, 5):  # never, and past the last epoch
        second = write_config(tmp_path, "second.cfg", epochs=3, eval_every=eval_every,
                              learning_rate=0.05)
        assert main(["train", "--config", str(second), "--out", str(out)]) == 0
        best, last = load_checkpoint(out / "best.npz"), load_checkpoint(out / "last.npz")
        assert best.epoch == last.epoch == 2
        assert np.array_equal(best.emb.user_vecs, last.emb.user_vecs)
        assert np.array_equal(best.emb.item_vecs, last.emb.item_vecs)


def test_per_epoch_time_holds_the_epochs_own_evaluation(tmp_path, monkeypatch):
    import time

    cli_module = importlib.import_module("recdro.cli")
    real_evaluate = cli_module.evaluate
    pause = 0.2

    def slow_evaluate(*args, **kwargs):
        time.sleep(pause)
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(cli_module, "evaluate", slow_evaluate)
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, epochs=3, eval_every=1)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    per_epoch = json.loads((out / "manifest.json").read_text())["timing"]["per_epoch_s"]
    assert len(per_epoch) == 3
    assert all(t >= pause for t in per_epoch), per_epoch


@pytest.mark.parametrize("settings, sweep", [
    (dict(n_negatives=0), ["--r-noise-values", "0"]),
    ({}, ["--n-negatives-values", "0"]),
], ids=["config", "axis"])
def test_in_batch_sweep_without_negatives_exits_2_with_no_output(tmp_path, capsys,
                                                                 settings, sweep):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, sampling_mode="in_batch", tau_grid="0.1,0.2", **settings)
    out = tmp_path / "sweep"
    assert main(["noise-sweep", "--config", str(cfg), "--out", str(out), *sweep]) == 2
    assert "n_negatives" in capsys.readouterr().err
    assert not out.exists()


SWEEP_ONE_CELL = ["--r-noise-values", "0"]


@pytest.mark.parametrize("command, extra", [("train", []), ("noise-sweep", SWEEP_ONE_CELL)])
def test_seed_flags_that_disagree_exit_2_with_no_output(tmp_path, capsys, command, extra):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, epochs=2, tau_grid="0.2")
    out = tmp_path / "out"
    assert main(["--seed", "1", command, "--config", str(cfg), "--out", str(out),
                 "--rng-seed", "2", *extra]) == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "--rng-seed" in err
    assert not out.exists()


@pytest.mark.parametrize("command, extra, output", [
    ("train", [], "epochs.csv"), ("noise-sweep", SWEEP_ONE_CELL, "sweep.csv")])
def test_seed_flags_that_agree_run_as_either_flag_alone(tmp_path, command, extra, output):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, epochs=2, tau_grid="0.2")
    runs = {"both": ["--seed", "4", command, "--rng-seed", "4"],
            "seed": ["--seed", "4", command], "rng-seed": [command, "--rng-seed", "4"]}
    written = {}
    for name, flags in runs.items():
        out = tmp_path / name
        assert main([*flags, "--config", str(cfg), "--out", str(out), *extra]) == 0
        written[name] = (out / output).read_bytes()
    assert written["both"] == written["seed"] == written["rng-seed"]


@pytest.mark.parametrize("argv, name", [
    (["train", "--rng-seed", "-1"], "rng_seed"),
    (["--seed", "-1", "train"], "rng_seed"),
    (["noise-sweep", "--rng-seed", "-1", *SWEEP_ONE_CELL], "rng_seed"),
    (["--seed", "-1", "dro-diagnose"], "--seed"),
], ids=["train-rng-seed", "train-seed", "noise-sweep", "dro-diagnose"])
def test_negative_seed_exits_2_naming_it_before_any_output(tmp_path, capsys, argv, name):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, epochs=1, eval_every=0, tau_grid="0.2")
    if "dro-diagnose" in argv:
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "ckpt")]) == 0
        argv = argv + ["--checkpoint", str(tmp_path / "ckpt" / "last.npz"),
                       "--train", str(tmp_path / "train.txt"),
                       "--test", str(tmp_path / "test.txt")]
    else:
        argv = argv + ["--config", str(cfg)]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, name", [("--epochs", "epochs"), ("--rng-seed", "rng_seed")])
def test_a_whole_setting_too_large_for_a_float_exits_2_before_any_output(tmp_path, capsys,
                                                                         flag, name):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, epochs=1, eval_every=0)
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 flag, "1" + "0" * 400]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_train_hashes_each_split_once_per_run(tmp_path, monkeypatch):
    cli = importlib.import_module("recdro.cli")
    hashed = []
    real_sha256 = cli._sha256

    def counting_sha256(path):
        hashed.append(path)
        return real_sha256(path)

    monkeypatch.setattr(cli, "_sha256", counting_sha256)
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, epochs=1)
    out = tmp_path / "out"
    for run in ("fresh", "rerun"):
        hashed.clear()
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert sorted(p.name for p in hashed) == ["test.txt", "train.txt"], run


def test_manifest_records_the_hash_of_the_bytes_trained_on(tmp_path, monkeypatch):
    cli = importlib.import_module("recdro.cli")
    write_fixture(tmp_path)
    train_file = tmp_path / "train.txt"
    loaded = hashlib.sha256(train_file.read_bytes()).hexdigest()
    real_train = cli.train

    def train_then_edit(*args, **kwargs):
        with open(train_file, "a") as fh:
            fh.write("0 1\n")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(cli, "train", train_then_edit)
    out = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path, epochs=1)),
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["datasets"]["train"]["sha256"] == loaded
    assert manifest["timing"] is not None


def test_sl_novar_sweep_leaves_temperature_and_radius_blank(tmp_path):
    write_fixture(tmp_path)
    cfg = write_config(tmp_path, loss="sl_novar", epochs=2, eval_every=0,
                       tau_grid="0.05,0.1,1.0")
    out = tmp_path / "sweep"
    assert main(["noise-sweep", "--config", str(cfg), "--out", str(out),
                 *SWEEP_ONE_CELL]) == 0
    header, values = read_rows(out / "sweep.csv")
    row = dict(zip(header, values))
    assert row["loss"] == "sl_novar"
    assert row["best_tau"] == row["eta_mean"] == row["eta_median"] == ""
    assert float(row["ndcg@20"]) > 0
