import hashlib
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

    def test_run_counts_in_manifest(self, tmp_path):
        path = tmp_path / "skips.csv"
        path.write_text("source,destination,timestamp\n0,1,1\n2,3,2\n2,3,30\n0,1,90\n")
        # the OE pool is the one overlap edge (0,1), which its own events
        # cannot draw
        expected = {"events": 4, "events_scored": 2, "events_skipped": 2, "strategies": {
            "OE": {"pool_size": 1, "events_no_legal_negative": 2}}}
        for command, *flags in (("sample",), ("eval", "--period", "all")):
            out = tmp_path / command
            assert run(command, path, "--t-split", "40", "--strategies", "OE",
                       *flags, "--out", out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["run"] == expected, command

    def test_sample_globally_empty_pool_writes_header_only(self, scenario_csv, tmp_path,
                                                          caplog):
        # the scenario stream has no historical node: HS can never sample,
        # while OE has a legal negative for every event
        out = tmp_path / "out"
        with caplog.at_level("WARNING"):
            assert run("sample", scenario_csv, "--t-split", "10", "--strategies", "HS,OE",
                       "--out", out) == 0
        assert len(caplog.records) == 1 and "no candidates anywhere" in caplog.text
        assert (out / "negatives.csv").read_text() == \
            "event_ordinal,strategy,source,destination,timestamp\n"
        run_counts = json.loads((out / "manifest.json").read_text())["run"]
        assert run_counts == {"events": 13, "events_scored": 0, "events_skipped": 13,
                              "strategies": {
                                  "HS": {"pool_size": 0, "events_no_legal_negative": 13},
                                  "OE": {"pool_size": 6, "events_no_legal_negative": 0}}}

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

    @pytest.fixture
    def edgebank_log(self, dataset, tmp_path):
        base = tmp_path / "base"
        assert run("eval", dataset, "--scorer", "edgebank", "--strategies", "OE",
                   "--seed", "1", "--out", base) == 0
        return base / "scores.csv"

    @staticmethod
    def _edited(log, tmp_path, name, edit):
        lines = log.read_text().splitlines(keepends=True)
        path = tmp_path / name
        path.write_text("".join(edit(lines)))
        return path

    @staticmethod
    def _first_positive(lines):
        return next(i for i, line in enumerate(lines) if ",positive," in line)

    def test_external_logs_may_differ_in_scorer_and_seed(self, dataset, edgebank_log,
                                                         tmp_path):
        other = self._edited(edgebank_log, tmp_path, "other.csv", lambda lines: [
            "# scorer=model1\n" if l.startswith("# scorer=") else
            "# seed=99\n" if l.startswith("# seed=") else l for l in lines])
        assert run("eval", dataset, "--scorer", "external",
                   "--logs", edgebank_log, other, "--out", tmp_path / "ext") == 0
        # the manifest records what each log's header says, not the unused
        # sampling options of the command line
        config = json.loads((tmp_path / "ext" / "manifest.json").read_text())["config"]
        assert config["log_headers"] == [
            {"scorer": "edgebank", "k": 1, "seed": 1, "batch_size": 200},
            {"scorer": "model1", "k": 1, "seed": 99, "batch_size": 200}]
        assert not {"k", "seed", "batch_size", "on_empty"} & set(config)

    @pytest.mark.parametrize("key,value", [("t_split", "1.5"), ("strategies", "OE,HE")])
    def test_external_logs_disagreeing_header_exit_2(self, dataset, edgebank_log,
                                                     tmp_path, capsys, key, value):
        other = self._edited(edgebank_log, tmp_path, "other.csv", lambda lines: [
            f"# {key}={value}\n" if l.startswith(f"# {key}=") else l for l in lines])
        assert run("eval", dataset, "--scorer", "external",
                   "--logs", edgebank_log, other, "--out", tmp_path / "ext") == 2
        err = capsys.readouterr().err
        assert "other.csv" in err and key in err

    @pytest.mark.parametrize("field,value", [(4, "999"), (5, "500.0")])
    def test_external_positive_not_in_dataset_exits_2(self, dataset, edgebank_log,
                                                      tmp_path, capsys, field, value):
        # the last event's positive on an unknown edge, or on its real edge
        # at a later time (its negatives move with it to stay valid)
        def edit(lines):
            i = max(j for j, line in enumerate(lines) if ",positive," in line)
            for j in range(i, len(lines) if field == 5 else i + 1):
                parts = lines[j].rstrip("\n").split(",")
                parts[field] = value
                lines[j] = ",".join(parts) + "\n"
            return lines

        bad = self._edited(edgebank_log, tmp_path, "bad.csv", edit)
        assert run("eval", dataset, "--scorer", "external",
                   "--logs", bad, "--out", tmp_path / "ext") == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and "positive" in err

    def test_external_undirected_positive_either_orientation(self, dataset, tmp_path):
        base = tmp_path / "base"
        assert run("eval", dataset, "--undirected", "--scorer", "edgebank",
                   "--strategies", "OE", "--out", base) == 0

        def flip(lines):
            i = self._first_positive(lines)
            parts = lines[i].split(",")
            parts[3], parts[4] = parts[4], parts[3]
            lines[i] = ",".join(parts)
            return lines

        flipped = self._edited(base / "scores.csv", tmp_path, "flipped.csv", flip)
        assert run("eval", dataset, "--scorer", "external", "--logs", flipped,
                   "--out", tmp_path / "ext") == 2  # directed: not a true event
        assert run("eval", dataset, "--undirected", "--scorer", "external",
                   "--logs", flipped, "--out", tmp_path / "ext") == 0

    def test_eval_abort_policy_exits_1(self, scenario_csv, tmp_path):
        # the scenario stream has no historical node: HS can never sample
        out = tmp_path / "out"
        assert run("eval", scenario_csv, "--t-split", "10",
                   "--scorer", "edgebank", "--strategies", "HS",
                   "--on-empty", "abort", "--out", out) == 1

    def test_eval_bad_batch_size_exits_2_before_sampling(self, scenario_csv, tmp_path):
        # a configuration error, not the abort that sampling HS would raise
        assert run("eval", scenario_csv, "--t-split", "10", "--batch-size", "0",
                   "--scorer", "edgebank", "--strategies", "HS",
                   "--on-empty", "abort", "--out", tmp_path / "out") == 2

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


class TestPinnedOutputs:
    ARGS = ("--strategies", "OS,HE,IE,RND", "--k", "2", "--seed", "5")

    def test_pinned_digests(self, dataset, tmp_path):
        # Golden sha256 of every sampled or scored output on the fixture
        # stream; any change to the negatives drawn or to a score shows here.
        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        got = {}
        for scorer in ("pa", "edgebank"):
            for flags in ((), ("--undirected",)):
                out = tmp_path / f"{scorer}{''.join(flags)}"
                assert run("eval", dataset, "--scorer", scorer, *flags, *self.ARGS,
                           "--batch-size", "37", "--out", out) == 0
                got[(scorer, *flags)] = digest(out / "scores.csv")
        assert run("sample", dataset, *self.ARGS, "--out", tmp_path / "sample") == 0
        got["sample"] = digest(tmp_path / "sample" / "negatives.csv")
        assert got == {
            ("pa",):
                "bbb85aa91335fcc78f2f8124fd2bcc048febd2f23f89dfaf6f370f9dfdb5a38a",
            ("pa", "--undirected"):
                "5a9886303a5215ee45520f9622dffb21443717cf75caaaf670d9c518e3345633",
            ("edgebank",):
                "4634fcd90056409f5afd0a7f9c25ad6c96029f05b3a09f9bc3be210b461dca87",
            ("edgebank", "--undirected"):
                "af266b2e43ac5d4a23f8c230d6931d6191c3f1553951098d1bb31e1126f86bf3",
            "sample":
                "0c4ba97dcf2f8f63be03eb7b6c73be023dfc7cf6867d83dd4e1d7b1b20f5667d",
        }

    def test_sample_rows_are_eval_negatives(self, dataset, tmp_path):
        # external-replay contract: `sample` exports exactly the negative
        # records `eval` scores for the same seed, strategies and k
        assert run("sample", dataset, *self.ARGS, "--out", tmp_path / "s") == 0
        assert run("eval", dataset, "--scorer", "pa", *self.ARGS,
                   "--out", tmp_path / "e") == 0
        sampled = (tmp_path / "s" / "negatives.csv").read_text().splitlines()[1:]
        scored = []
        for line in (tmp_path / "e" / "scores.csv").read_text().splitlines():
            if line.startswith("#") or line.startswith("event_ordinal"):
                continue
            ordinal, _batch, role, u, v, t, _score = line.split(",")
            if role != "positive":
                scored.append(f"{ordinal},{role},{u},{v},{t}")
        assert len(sampled) > 0
        assert sampled == scored


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
