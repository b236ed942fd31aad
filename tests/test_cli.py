import json

import numpy as np
import pytest

from conftest import random_history, scenario_history
from dlpeval.cli import main


@pytest.fixture
def dataset(tmp_path):
    """Synthetic directed minimal-schema CSV on disk."""
    rng = np.random.default_rng(40)
    h = random_history(rng, n_events=400, n_nodes=25)
    path = tmp_path / "synthetic.csv"
    h.export_csv(path)
    return path


@pytest.fixture
def scenario_csv(tmp_path):
    path = tmp_path / "scenario.csv"
    scenario_history(1).export_csv(path)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestStats:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run("stats", tmp_path / "nope.csv") == 2
        assert "error" in capsys.readouterr().err

    def test_writes_partition_csv_and_prints_table(self, scenario_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("stats", scenario_csv, "--t-split", "10", "--out", out) == 0
        stdout = capsys.readouterr().out
        assert "node" in stdout and "surprise" in stdout
        lines = (out / "partition.csv").read_text().splitlines()
        assert lines[1] == "node,5,0,4,1,0.2"
        assert (out / "manifest.json").exists()

    def test_degenerate_split_exits_2(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("source,destination,timestamp\n" + "a,b,5\n" * 8)
        assert run("stats", path) == 2

    def test_roles_flag_adds_rows(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run("stats", dataset, "--roles", "--out", out) == 0
        text = (out / "partition.csv").read_text()
        assert "source-role-node" in text
        assert "destination-role-node" in text


class TestSplit:
    def test_train_test_files(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("split", dataset, "--test-ratio", "0.25", "--out", out) == 0
        train = (out / "train.csv").read_text().splitlines()
        test = (out / "test.csv").read_text().splitlines()
        assert len(train) + len(test) == 2 + 400  # two headers plus data rows
        assert (out / "labels.csv").exists()


class TestBdAndSweep:
    def test_bd_writes_both_key_kinds(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run("bd", dataset, "--out", out) == 0
        for name in ("bd_node.svg", "bd_node.csv", "bd_edge.svg", "bd_edge.csv"):
            assert (out / name).exists()

    def test_bd_facet_roles(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run("bd", dataset, "--facet-roles", "--out", out) == 0
        assert (out / "bd_node_roles.svg").exists()

    def test_sweep_outputs(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sweep", dataset, "--ratios", "0.2,0.3,0.4", "--out", out) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert (out / "surprise_curve.svg").exists()


class TestSampleAndEval:
    def test_sample_negatives_csv(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run("sample", dataset, "--strategies", "OE,OD", "--k", "2",
                   "--out", out) == 0
        lines = (out / "negatives.csv").read_text().splitlines()
        assert lines[0] == "event_ordinal,strategy,source,destination,timestamp"
        assert len(lines) > 1

    def test_sample_skips_are_summarized_once(self, tmp_path, caplog):
        # events on the only overlap edge (0,1) have no legal OE negative
        path = tmp_path / "skips.csv"
        path.write_text("source,destination,timestamp\n0,1,1\n2,3,2\n2,3,30\n0,1,90\n")
        with caplog.at_level("WARNING"):
            assert run("sample", path, "--t-split", "40", "--strategies", "OE",
                       "--out", tmp_path / "out") == 0
        assert len(caplog.records) == 1
        assert "skipped 2 of 4" in caplog.text

    def test_eval_edgebank_full_artifact_set(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("eval", dataset, "--scorer", "edgebank",
                   "--strategies", "HE,OE", "--batch-size", "50",
                   "--out", out) == 0
        for name in ("scores.csv", "auc.csv", "auc_summary.csv",
                     "mar.csv", "mar.svg", "manifest.json"):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "HE" in stdout and "OE" in stdout

    def test_eval_is_reproducible_byte_for_byte(self, dataset, tmp_path):
        outs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            assert run("eval", dataset, "--scorer", "pa", "--seed", "7",
                       "--strategies", "OE", "--out", out) == 0
            outs.append(b"".join(
                (out / name).read_bytes()
                for name in ("scores.csv", "auc.csv", "mar.csv", "mar.svg",
                             "manifest.json")
            ))
        assert outs[0] == outs[1]

    def test_eval_external_logs_mean_and_std(self, dataset, tmp_path, capsys):
        base = tmp_path / "base"
        assert run("eval", dataset, "--scorer", "edgebank", "--strategies", "OE",
                   "--seed", "1", "--out", base) == 0
        out = tmp_path / "ext"
        assert run("eval", dataset, "--scorer", "external",
                   "--logs", base / "scores.csv", base / "scores.csv",
                   "--out", out) == 0
        summary = (out / "auc_summary.csv").read_text().splitlines()
        assert summary[0] == "strategy,mean_auc,std_auc,n_logs"
        strategy, mean, std, n = summary[1].split(",")
        assert strategy == "OE"
        assert float(std) == 0.0
        assert n == "2"
        assert (out / "auc_seed0.csv").exists()
        assert (out / "auc_seed1.csv").exists()

    def test_eval_abort_policy_exits_1(self, scenario_csv, tmp_path):
        # the scenario stream has no historical node: HS can never sample
        out = tmp_path / "out"
        assert run("eval", scenario_csv, "--t-split", "10",
                   "--scorer", "edgebank", "--strategies", "HS",
                   "--on-empty", "abort", "--out", out) == 1

    def test_eval_all_skipped_exits_1(self, scenario_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("eval", scenario_csv, "--t-split", "10",
                   "--scorer", "edgebank", "--strategies", "HS",
                   "--on-empty", "skip", "--out", out) == 1
        assert "nothing to score" in capsys.readouterr().err

    def test_external_without_logs_exits_2(self, dataset, tmp_path):
        assert run("eval", dataset, "--scorer", "external",
                   "--out", tmp_path / "out") == 2

    def test_unknown_strategy_exits_2(self, dataset, tmp_path):
        assert run("eval", dataset, "--strategies", "XX",
                   "--out", tmp_path / "out") == 2


class TestMetricsAndPlot:
    @pytest.fixture
    def score_log(self, dataset, tmp_path):
        out = tmp_path / "base"
        assert run("eval", dataset, "--scorer", "edgebank",
                   "--strategies", "HE,OE", "--out", out) == 0
        return out / "scores.csv"

    def test_metrics_from_log(self, score_log, tmp_path, capsys):
        out = tmp_path / "m"
        assert run("metrics", "--log", score_log, "--out", out) == 0
        assert (out / "auc.csv").exists()
        assert (out / "mar.csv").exists()
        assert "mean_auc" in capsys.readouterr().out

    def test_plot_from_log(self, score_log, tmp_path):
        out = tmp_path / "p"
        assert run("plot", "--log", score_log, "--out", out) == 0
        assert (out / "mar.svg").exists()

    def test_malformed_log_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# dataset=x\nevent_ordinal,batch\n")
        assert run("metrics", "--log", bad, "--out", tmp_path / "out") == 2


class TestManifestAndEnv:
    def test_manifest_lists_outputs_and_config(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run("stats", dataset, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "dlpeval"
        assert manifest["command"] == "stats"
        assert manifest["config"]["test_ratio"] == 0.15
        assert "partition.csv" in manifest["outputs"]

    def test_env_var_overrides_default_out_dir(self, dataset, tmp_path, monkeypatch):
        env_dir = tmp_path / "from-env"
        monkeypatch.setenv("DLPEVAL_OUT", str(env_dir))
        monkeypatch.chdir(tmp_path)
        assert run("stats", dataset) == 0
        assert (env_dir / "partition.csv").exists()

    def test_explicit_out_beats_env(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("DLPEVAL_OUT", str(tmp_path / "ignored"))
        out = tmp_path / "explicit"
        assert run("stats", dataset, "--out", out) == 0
        assert (out / "partition.csv").exists()
        assert not (tmp_path / "ignored").exists()
