import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import build_history, random_history, scenario_history
from dlpeval import GraphKind, __version__, _fork, cli, ingest_csv
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


def src_env():
    """The environment of a fresh interpreter that imports this ``dlpeval``."""
    return os.environ | {"PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


class TestStats:
    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run("stats", tmp_path / "nope.csv") == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["field-limit", "stats-dir", "metrics-dir"])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, case):
        # a label past csv's field limit, and a directory where a file is read
        path = tmp_path / "long.csv"
        path.write_text("s,d,t\n" + "a" * 200000 + ",b,1\nb,c,oops\n")
        argv, message = {
            "field-limit": (["stats", path], "error: field larger than field limit (131072)\n"),
            "stats-dir": (["stats", tmp_path], "error: [Errno 21] Is a directory: "),
            "metrics-dir": (["metrics", "--log", tmp_path], "error: [Errno 21] Is a directory: "),
        }[case]
        assert run(*argv, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

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

    def test_labels_needing_quotes_read_back(self, tmp_path):
        # a label holding a comma or a quote is written as one quoted CSV
        # field, so the exports read back as the stream they came from
        path = tmp_path / "quoted.csv"
        path.write_text('source,destination,timestamp\n'
                        '"a,b",c,1\nc,"d ""x""",2\n"a,b",d,3\n')
        out = tmp_path / "out"
        assert run("split", path, "--test-ratio", "0.4", "--out", out) == 0
        assert (out / "train.csv").read_text() == \
            'source,destination,timestamp\n"a,b",c,1.0\n'
        assert (out / "test.csv").read_text() == \
            'source,destination,timestamp\nc,"d ""x""",2.0\n"a,b",d,3.0\n'
        assert (out / "labels.csv").read_text() == \
            'id,label\n0,"a,b"\n1,c\n2,"d ""x"""\n3,d\n'
        assert run("stats", out / "test.csv", "--t-split", "3",
                   "--out", tmp_path / "stats") == 0
        assert ingest_csv(out / "test.csv").labels == ("c", 'd "x"', "a,b", "d")

    def test_nul_and_non_ascii_labels_written_as_read(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text('source,destination,timestamp\n"a\x00b",é,1\n日本,"a\x00b",2.5\n'
                        'z\x00,é,3\né,日本,4\n', encoding="utf-8")
        out = tmp_path / "out"
        assert run("split", path, "--test-ratio", "0.5", "--out", out) == 0
        assert (out / "train.csv").read_bytes().decode("utf-8") == \
            "source,destination,timestamp\na\x00b,é,1.0\n日本,a\x00b,2.5\n"
        assert (out / "test.csv").read_bytes().decode("utf-8") == \
            "source,destination,timestamp\nz\x00,é,3.0\né,日本,4.0\n"
        assert (out / "labels.csv").read_bytes().decode("utf-8") == \
            "id,label\n0,a\x00b\n1,é\n2,日本\n3,z\x00\n"


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

    def test_bd_unknown_key_exits_2_before_writing(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("bd", dataset, "--keys", "node,foo", "--out", out) == 2
        assert "unknown key kind 'foo'" in capsys.readouterr().err
        assert not list(out.glob("bd_*"))

    def test_bd_undirected_facet_roles_exits_2_before_writing(self, dataset, tmp_path,
                                                              capsys):
        # role panels need a directed stream; the node and edge diagrams that
        # come first must not be drawn either
        out = tmp_path / "out"
        assert run("bd", dataset, "--undirected", "--facet-roles", "--out", out) == 2
        assert "error" in capsys.readouterr().err
        assert not list(out.glob("bd_*"))

    @pytest.mark.parametrize("keys", [",", ""])
    def test_bd_without_key_kinds_exits_2_before_writing(self, dataset, tmp_path, capsys, keys):
        # as sample does with no strategies: a run that would draw nothing is refused
        out = tmp_path / "out"
        assert run("bd", dataset, f"--keys={keys}", "--out", out) == 2
        assert capsys.readouterr().err == "error: no key kinds given\n"
        assert not out.exists()

    @pytest.mark.parametrize("keys, message", [
        pytest.param("edge,edge", "repeated key kind 'edge'", id="repeated-edge"),
        pytest.param("node,,node", "repeated key kind 'node'", id="repeated-node"),
        pytest.param("node,foo", "unknown key kind 'foo' (use node,edge)", id="unknown"),
        pytest.param(",", "no key kinds given", id="none"),
    ])
    def test_bd_bad_keys_exit_2_before_the_dataset_is_read(self, dataset, tmp_path, capsys,
                                                            keys, message):
        # a repeated key kind would draw its diagram twice, as sample
        # refuses a repeated strategy; a bad --keys is named even where the
        # dataset cannot be read
        for source in (dataset, tmp_path / "nope.csv"):
            out = tmp_path / "out"
            assert run("bd", source, f"--keys={keys}", "--out", out) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    @pytest.mark.parametrize("ratios", ["0.1", ",,", "0.2,"])
    def test_sweep_with_fewer_than_two_ratios_exits_2_before_any_work(
            self, dataset, tmp_path, capsys, ratios):
        out = tmp_path / "out"
        assert run("sweep", dataset, f"--ratios={ratios}", "--out", out) == 2
        assert "--ratios" in capsys.readouterr().err
        assert not out.exists()

    def test_default_sweep_marks_the_default_test_ratio(self, dataset, tmp_path, caplog):
        out = tmp_path / "out"
        with caplog.at_level("WARNING"):
            assert run("sweep", dataset, "--out", out) == 0
        assert not caplog.records
        svg = (out / "surprise_curve.svg").read_text()
        assert svg.count(">*</text>") == 1

    def test_mark_ratio_outside_the_ratios_warns_once(self, dataset, tmp_path, caplog):
        with caplog.at_level("WARNING"):
            assert run("sweep", dataset, "--ratios", "0.2,0.3", "--mark-ratio", "0.25",
                       "--out", tmp_path / "out") == 0
        assert len(caplog.records) == 1
        assert "--mark-ratio" in caplog.text
        assert ">*</text>" not in (tmp_path / "out" / "surprise_curve.svg").read_text()

    def test_sweep_outputs(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sweep", dataset, "--ratios", "0.2,0.3,0.4", "--out", out) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert (out / "surprise_curve.svg").exists()


class TestSampleAndEval:
    @pytest.fixture(autouse=True)
    def no_worker_left(self):
        # every worker an external eval forked has been waited for
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    @pytest.mark.parametrize("second", ["missing", "bad positive", "undecodable", "good"])
    def test_external_read_error_of_a_later_log_wins_over_a_metric_error(
            self, dataset, edgebank_log, tmp_path, capsys, second):
        # the first log declares a strategy it never samples, so its AUC
        # fails; a read or check error of the second log is still the one
        # reported, as when every log was read before any metric
        def declare_rnd(lines):
            return ["# strategies=OE,RND\n" if l.startswith("# strategies=") else l
                    for l in lines]

        def move_positive(lines):
            lines = declare_rnd(lines)
            i = self._first_positive(lines)
            parts = lines[i].split(",")
            parts[4] = "999"
            lines[i] = ",".join(parts)
            return lines

        first = self._edited(edgebank_log, tmp_path, "first.csv", declare_rnd)
        undecodable = tmp_path / "undecodable.csv"
        undecodable.write_bytes(edgebank_log.read_bytes() + b"\xff")
        other = {"missing": tmp_path / "missing.csv",
                 "undecodable": undecodable,
                 "bad positive": self._edited(edgebank_log, tmp_path, "second.csv",
                                              move_positive),
                 "good": first}[second]
        out = tmp_path / "ext"
        assert run("eval", dataset, "--scorer", "external",
                   "--logs", first, other, "--out", out) == 2
        err = capsys.readouterr().err
        if second == "good":
            assert err == f"error: {first}: strategy 'RND' not present in log\n"
        else:
            assert str(other) in err and "RND" not in err
        if second == "undecodable":
            assert err == f"error: {other}: not UTF-8 text (invalid start byte: b'\\xff')\n"
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_external_logs_reduced_as_one_log_runs(self, dataset, tmp_path, monkeypatch,
                                                   cpus):
        # one usable CPU reads every log in process; two fork one worker
        # at a time, three fork two
        logs = []
        for seed in range(3):
            out = tmp_path / f"base{seed}"
            assert run("eval", dataset, "--strategies", "OE,RND", "--k", "2",
                       "--seed", seed, "--batch-size", "37", "--out", out) == 0
            logs.append(out / "scores.csv")
        singles = [tmp_path / f"single{j}" for j in range(3)]
        for log, out in zip(logs, singles):
            assert run("eval", dataset, "--scorer", "external", "--logs", log,
                       "--out", out) == 0
        forks = []

        def fork(fn, item):
            forks.append(item)
            return spawn(fn, item)

        spawn = _fork._fork
        monkeypatch.setattr(_fork, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(_fork, "_fork", fork)
        out = tmp_path / "three"
        assert run("eval", dataset, "--scorer", "external", "--logs", *logs,
                   "--out", out) == 0
        assert forks == ([str(log) for log in logs[1:]]
                         if cpus > 1 and _fork.CAN_FORK else [])
        for j, single in enumerate(singles):
            assert (out / f"auc_seed{j}.csv").read_bytes() == \
                (single / "auc.csv").read_bytes()
        for name in ("mar.csv", "mar.svg"):
            assert (out / name).read_bytes() == (singles[0] / name).read_bytes()
        headers = json.loads((out / "manifest.json").read_text())["config"]["log_headers"]
        assert [h["seed"] for h in headers] == [0, 1, 2]

    def test_external_header_error_wins_over_a_bad_positive(self, dataset, edgebank_log,
                                                            tmp_path, capsys):
        def edit(lines):
            i = self._first_positive(lines)
            parts = lines[i].split(",")
            parts[4] = "999"
            lines[i] = ",".join(parts)
            return ["# t_split=1.5\n" if l.startswith("# t_split=") else l for l in lines]

        other = self._edited(edgebank_log, tmp_path, "other.csv", edit)
        assert run("eval", dataset, "--scorer", "external",
                   "--logs", edgebank_log, other, "--out", tmp_path / "ext") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {other}: t_split=1.5 differs from t_split=")
        assert "positive" not in err

    def test_external_metric_error_names_its_log(self, dataset, edgebank_log, tmp_path,
                                                 capsys):
        # the second log keeps no OE negative in the test period
        t_split = float(next(l for l in edgebank_log.read_text().splitlines()
                             if l.startswith("# t_split=")).split("=")[1])
        second = self._edited(edgebank_log, tmp_path, "second.csv", lambda lines: [
            l for l in lines if ",OE," not in l or float(l.split(",")[5]) < t_split])
        assert run("eval", dataset, "--scorer", "external",
                   "--logs", edgebank_log, second, "--out", tmp_path / "ext") == 2
        assert capsys.readouterr().err == (
            f"error: {second}: no batch in period 'test' has both positives "
            "and OE negatives\n")
        # the own log of a heuristic run has no file to name
        assert run("eval", dataset, "--t-split", "-1", "--strategies", "RND",
                   "--period", "train", "--out", tmp_path / "heur") == 2
        assert capsys.readouterr().err == (
            "error: no batch in period 'train' has both positives and RND negatives\n")

    @pytest.mark.skipif(not _fork.CAN_FORK, reason="reads every log in process")
    def test_external_worker_without_a_result_exits_2(self, dataset, edgebank_log,
                                                      tmp_path, capsys, monkeypatch):
        second = self._edited(edgebank_log, tmp_path, "second.csv", lambda lines: lines)
        read = cli.read_score_log

        def read_or_exit(path):
            if path == str(second):
                os._exit(3)
            return read(path)

        monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
        monkeypatch.setattr(cli, "read_score_log", read_or_exit)
        assert run("eval", dataset, "--scorer", "external",
                   "--logs", edgebank_log, second, "--out", tmp_path / "ext") == 2
        assert capsys.readouterr().err == (
            f"error: {second}: its worker exited without a result (exit code 3)\n")

    def test_external_first_log_error_ends_every_worker(self, dataset, edgebank_log,
                                                        tmp_path, capsys, monkeypatch):
        # two workers are running when this process fails on its own log;
        # no_worker_left checks that both were waited for
        missing = tmp_path / "missing.csv"
        monkeypatch.setattr(_fork, "usable_cpus", lambda: 3)
        assert run("eval", dataset, "--scorer", "external", "--logs", missing,
                   edgebank_log, edgebank_log, "--out", tmp_path / "ext") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG")
    def test_external_worker_dies_with_its_parent(self, tmp_path):
        # the parent is killed while its worker sleeps; the kernel then
        # kills the worker too
        pid_file = tmp_path / "worker.pid"
        code = (
            "import os, pathlib, signal, time\n"
            "from dlpeval import _fork\n"
            "_fork.usable_cpus = lambda: 2\n"
            f"path = pathlib.Path({str(pid_file)!r})\n"
            "def work(item):\n"
            "    path.write_text(str(os.getpid()))\n"
            "    time.sleep(60)\n"
            "with _fork.forked_in_order(work, [0]):\n"
            "    while not path.exists() or not path.read_text():\n"
            "        time.sleep(0.01)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n")
        done = subprocess.run([sys.executable, "-c", code], env=src_env(), timeout=60)
        assert done.returncode == -signal.SIGKILL
        stat = Path(f"/proc/{pid_file.read_text()}/stat")
        deadline = time.monotonic() + 10
        while stat.exists() and stat.read_text().split(")")[-1].split()[0] != "Z" \
                and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not stat.exists() or stat.read_text().split(")")[-1].split()[0] == "Z"

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

    @pytest.mark.parametrize("command,option,value", [
        ("stats", "--t-split", "nan"), ("stats", "--t-split", "inf"),
        ("sample", "--t-split", "-inf"), ("sample", "--k", "0"),
        ("eval", "--bins", "0"), ("eval", "--k", "-1"), ("eval", "--batch-size", "0"),
        ("stats", "--test-ratio", "1.5"), ("split", "--test-ratio", "0"),
        ("bd", "--test-ratio", "nan"), ("sample", "--test-ratio", "-0.1"),
        ("eval", "--test-ratio", "1"), ("eval", "--test-ratio", "nan"),
        ("sweep", "--ratios", "0.1,nan"), ("sweep", "--ratios", "0.1,1.5"),
        ("sweep", "--mark-ratio", "1"), ("sweep", "--mark-ratio", "nan")])
    def test_bad_numeric_option_exits_2_before_any_work(self, tmp_path, capsys,
                                                         command, option, value):
        # the input does not exist, so the option must be rejected before it is read
        out = tmp_path / "out"
        assert run(command, tmp_path / "missing.csv", f"{option}={value}", "--out", out) == 2
        assert option in capsys.readouterr().err
        assert not out.exists()

    def test_eval_repeated_strategy_exits_2(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run("eval", dataset, "--strategies", "HE,OE,HE", "--out", out) == 2
        assert not (out / "scores.csv").exists()

    def test_external_eval_takes_the_cutoff_from_the_logs_only(self, tmp_path):
        # the default --test-ratio would put the cutoff inside the 90 ties
        # at t=0, a degenerate split; the log says t_split=5
        events = [(i % 9, 9 + i % 7, 0.0) for i in range(90)]
        events += [(t % 9, 9 + t % 7, float(t)) for t in range(1, 11)]
        path = tmp_path / "ties.csv"
        build_history(events).export_csv(path)
        assert run("eval", path, "--t-split", "5", "--strategies", "HE,OE",
                   "--out", tmp_path / "heur") == 0
        assert run("eval", path, "--scorer", "external",
                   "--logs", tmp_path / "heur" / "scores.csv",
                   "--out", tmp_path / "ext") == 0
        manifest = json.loads((tmp_path / "ext" / "manifest.json").read_text())
        assert manifest["config"]["t_split"] == 5.0

    def test_eval_all_skipped_exits_1(self, scenario_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("eval", scenario_csv, "--t-split", "10",
                   "--scorer", "edgebank", "--strategies", "HS",
                   "--on-empty", "skip", "--out", out) == 1
        assert "nothing to score" in capsys.readouterr().err

    def test_external_without_logs_exits_2(self, dataset, tmp_path):
        assert run("eval", dataset, "--scorer", "external",
                   "--out", tmp_path / "out") == 2

    @pytest.mark.parametrize("options,message", [
        (("--scorer", "pa", "--logs", "m0.csv"), "--logs needs --scorer external, got pa"),
        (("--logs", "m0.csv"), "--logs needs --scorer external, got edgebank"),
        (("--scorer", "external"), "--scorer external requires --logs"),
    ])
    def test_logs_without_external_scorer_exits_2_before_any_work(self, tmp_path, capsys,
                                                                  options, message):
        # neither the dataset nor the log exists, so the options must be
        # rejected before either is read
        out = tmp_path / "out"
        assert run("eval", tmp_path / "data.csv", *options, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_unknown_strategy_exits_2(self, dataset, tmp_path, capsys):
        assert run("eval", dataset, "--strategies", "XX",
                   "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith("error: unknown strategy 'XX'")
        # and no strategy at all
        assert run("eval", dataset, "--strategies", ",", "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == "error: no strategies given\n"
        # both are rejected before the dataset is read, by sample too
        out = tmp_path / "missing-out"
        for command in ("sample", "eval"):
            for value, message in (("XX", "error: unknown strategy 'XX'"),
                                   (",", "error: no strategies given\n")):
                assert run(command, tmp_path / "missing.csv", "--strategies", value,
                           "--out", out) == 2, command
                assert capsys.readouterr().err.startswith(message), command
        assert not out.exists()

    def test_source_replacement_on_a_bipartite_stream_warns_once(self, tmp_path, caplog):
        path = tmp_path / "bipartite.csv"
        random_history(np.random.default_rng(12), n_events=300, n_nodes=20,
                       kind=GraphKind(bipartite=True)).export_csv(path)
        with caplog.at_level("WARNING"):
            run("eval", path, "--bipartite", "--strategies", "HS", "--out", tmp_path / "out")
        assert sum("source-replacement" in r.getMessage() for r in caplog.records) == 1


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

    def test_pinned_metric_digests(self, dataset, tmp_path, capsys):
        # Golden sha256 of the AUC and MAR exports of the `metrics` command
        # and of a two-log external `eval`, and the `metrics` table text;
        # the binary pa/edgebank scores make every batch and group full of ties.
        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        logs = []
        for scorer in ("pa", "edgebank"):
            out = tmp_path / scorer
            assert run("eval", dataset, "--scorer", scorer, *self.ARGS,
                       "--batch-size", "37", "--out", out) == 0
            logs.append(out / "scores.csv")
        capsys.readouterr()
        m, x = tmp_path / "m", tmp_path / "x"
        assert run("metrics", "--log", logs[0], "--bins", "7", "--period", "all",
                   "--out", m) == 0
        assert capsys.readouterr().out == (
            "strategy    mean_auc  batches  skipped\n"
            "OS            0.4982       11        0\n"
            "HE            0.4963       11        0\n"
            "IE            0.5012       11        0\n"
            "RND           0.5006       11        0\n")
        assert run("eval", dataset, "--scorer", "external", "--logs", *logs,
                   "--bins", "7", "--out", x) == 0
        got = {path.relative_to(tmp_path).as_posix(): digest(path) for path in (
            m / "auc.csv", m / "mar.csv", x / "auc_seed0.csv", x / "auc_seed1.csv",
            x / "auc_summary.csv", x / "mar.csv")}
        assert got == {
            "m/auc.csv": "b59c4b76f0099aca80c81c36d47340048ad394fd8d4026e0c74390eb906b61de",
            "m/mar.csv": "d1c71320742ee70670400475d0d36768e162da65d2f465b6d2bab56b8b83430e",
            "x/auc_seed0.csv":
                "a22d133036b56dc8e0001ba19195843035219320fc16ce39d87f139bfbb49e45",
            "x/auc_seed1.csv":
                "02baf843a5946c533ee3af68677862026bc487416052d778f9eec278291b8694",
            "x/auc_summary.csv":
                "1b0c2643457a43176116580dd896af41cf7c8a8b8db9ffd07c61eec24dc0b642",
            "x/mar.csv": "d1c71320742ee70670400475d0d36768e162da65d2f465b6d2bab56b8b83430e",
        }

    def test_pinned_writer_digests(self, dataset, tmp_path):
        # Golden sha256 of the outputs of `split`, `stats`, `sweep`, the
        # heuristic `eval`'s plot and `bd` at the default max_points, on
        # streams whose labels need no CSV quoting.
        def digest(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        bipartite = tmp_path / "bipartite.csv"
        random_history(np.random.default_rng(12), n_events=300, n_nodes=20,
                       kind=GraphKind(bipartite=True)).export_csv(bipartite)
        commands = {
            "split": ("split", dataset, "--test-ratio", "0.25"),
            "split-bipartite": ("split", bipartite, "--bipartite"),
            "stats": ("stats", dataset, "--roles"),
            "sweep": ("sweep", dataset, "--ratios", "0.1,0.2,0.3,0.4"),
            "eval": ("eval", dataset, "--scorer", "edgebank", *self.ARGS, "--bins", "200"),
            "bd": ("bd", dataset, "--keys", "node"),
        }
        for name, argv in commands.items():
            assert run(*argv, "--out", tmp_path / name) == 0, name
        got = {path.relative_to(tmp_path).as_posix(): digest(path) for path in (
            tmp_path / "split" / "train.csv", tmp_path / "split" / "test.csv",
            tmp_path / "split" / "labels.csv",
            tmp_path / "split-bipartite" / "train.csv",
            tmp_path / "split-bipartite" / "test.csv",
            tmp_path / "split-bipartite" / "labels.csv",
            tmp_path / "stats" / "partition.csv",
            tmp_path / "sweep" / "sweep.csv", tmp_path / "sweep" / "surprise_curve.svg",
            tmp_path / "eval" / "mar.svg",
            tmp_path / "bd" / "bd_node.svg", tmp_path / "bd" / "bd_node.csv")}
        assert got == {
            "split/train.csv":
                "9f8533593741ec4f776296681cfdde0b967a07b1f495ef187e32b0571e6b419a",
            "split/test.csv":
                "1619ecdc414e7770afeb398d5bfba12d0bfb5d5775df6cdd9baaaee3ea782401",
            "split/labels.csv":
                "53979a9d9b1dd0e737a9699c798532234b44ecf52d6ffad384a1cba4fa29b08a",
            "split-bipartite/train.csv":
                "0fa3bf20a8d8f6a94001672febaa81e21c743305b5507a5307c724e786bcb8d1",
            "split-bipartite/test.csv":
                "7ac9ecc6a1a1a684c21bdd366e93b2892649b19dbfc2b74d727f61b1bbf3e822",
            "split-bipartite/labels.csv":
                "16b26aa4405ce7f27d26f8f0cb5e91f1fdeae38c87d223206dc56ca08df49aae",
            "stats/partition.csv":
                "b99d4c6646ae368209b6b8a2798ebbe7a31fadf3c62b97d2ea4a0d539afe744b",
            "sweep/sweep.csv":
                "aa1db64486f83bfe291e375360a4ca0ee285aee49fffc1c8c2bc8a7832c626d8",
            "sweep/surprise_curve.svg":
                "aa4f33b810bf1c5377f9067c3e51ded5226e5aa64f8c59b2bf64b4aa799cd966",
            "eval/mar.svg":
                "d42080e8062782e1762e8bec655638c473dbb5684d17446a5576e1c1e3b93f66",
            "bd/bd_node.svg":
                "2fa32862a66c490f3f970f29844ee22c14842bd02b39793566970593b9b419b5",
            "bd/bd_node.csv":
                "91d435a20a58cbc06d9fc98b5252f5b9eff0cc11fba830cf588783cb8c743e42",
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

    @pytest.mark.parametrize("command", ["eval", "metrics", "plot"])
    def test_non_finite_t_split_exits_2(self, dataset, score_log, tmp_path, capsys, command):
        # a NaN t_split differed from itself, and put every batch outside
        # the test period
        log = tmp_path / "n.csv"
        log.write_text(score_log.read_text().replace(
            "# t_split=", "# t_split=nan\n# was=", 1))
        argv = (["eval", dataset, "--scorer", "external", "--logs", log] if command == "eval"
                else [command, "--log", log])
        assert run(*argv, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed header value" in err
        assert "t_split=nan" in err and err.count("\n") == 1

    def test_malformed_log_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# dataset=x\nevent_ordinal,batch\n")
        assert run("metrics", "--log", bad, "--out", tmp_path / "out") == 2
        # the error names the file, for plot too
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        assert run("plot", "--log", bad, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_empty_log_without_strategies_exits_2_before_writing(self, tmp_path, capsys):
        # its AUC reports are an empty list, and its MAR series fails
        log = tmp_path / "empty.csv"
        log.write_text("# dataset=x\n# t_split=1.0\n# batch_size=1\n# strategies=\n"
                       "# k=1\n# seed=0\n# scorer=model\n"
                       "event_ordinal,batch,role,source,destination,timestamp,score\n")
        dataset = tmp_path / "data.csv"
        dataset.write_text("source,destination,timestamp\n0,1,1\n")
        for argv in (["eval", dataset, "--scorer", "external", "--logs", log],
                     ["metrics", "--log", log]):
            out = tmp_path / argv[0]
            assert run(*argv, "--out", out) == 2
            assert capsys.readouterr().err == f"error: {log}: cannot bin an empty log\n"
            assert not list(out.glob("auc*.csv")), argv[0]

    @pytest.mark.parametrize("strategies,message", [
        ("HD,HD", "strategies: 'HD' is repeated"),
        ("positive,HD", "strategies: 'positive' is the positive role"),
    ])
    def test_repeated_or_positive_strategy_exits_2_before_writing(
            self, tmp_path, capsys, strategies, message):
        log = tmp_path / "scores.csv"
        log.write_text("# dataset=x\n# t_split=1.0\n# batch_size=1\n"
                       f"# strategies={strategies}\n# k=1\n# seed=0\n# scorer=model\n"
                       "event_ordinal,batch,role,source,destination,timestamp,score\n"
                       "0,0,positive,0,1,1.0,1.0\n0,0,HD,2,3,1.0,0.0\n")
        out = tmp_path / "m"
        assert run("metrics", "--log", log, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestManifestAndEnv:
    def test_manifest_lists_outputs_and_config(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run("stats", dataset, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool"] == "dlpeval"
        assert manifest["command"] == "stats"
        assert manifest["config"]["test_ratio"] == 0.15
        assert "partition.csv" in manifest["outputs"]

    def test_pinned_manifests(self, dataset, tmp_path):
        # Every subcommand's manifest, temporary paths written TMP: its
        # config is each parsed option with the values the command resolved
        bipartite = tmp_path / "bipartite.csv"
        random_history(np.random.default_rng(12), n_events=300, n_nodes=20,
                       kind=GraphKind(bipartite=True)).export_csv(bipartite)
        pa_log = tmp_path / "pa" / "scores.csv"
        edgebank_log = tmp_path / "edgebank" / "scores.csv"
        commands = {
            "stats": ("stats", dataset, "--roles"),
            "split": ("split", bipartite, "--bipartite", "--test-ratio", "0.25"),
            "bd": ("bd", dataset, "--keys", "node", "--facet-roles", "--seed", "3"),
            "sweep": ("sweep", dataset, "--ratios", "0.2,0.3"),
            "sample": ("sample", dataset, "--undirected", "--strategies", "oe, HE",
                       "--k", "2", "--t-split", "40"),
            "pa": ("eval", dataset, "--scorer", "pa", "--strategies", "OE,RND",
                   "--seed", "5", "--batch-size", "50", "--on-empty", "abort"),
            "edgebank": ("eval", dataset, "--undirected", "--strategies", "OE,RND",
                         "--seed", "6", "--k", "2"),
            # the logs' t_split and headers win over the command line's
            "external": ("eval", dataset, "--undirected", "--scorer", "external",
                         "--logs", pa_log, edgebank_log, "--period", "all", "--bins", "9",
                         "--t-split", "50", "--k", "3"),
            "metrics": ("metrics", "--log", pa_log, "--bins", "7"),
            "plot": ("plot", "--log", pa_log, "--t-split", "100"),
        }
        got = {}
        for name, argv in commands.items():
            assert run(*argv, "--out", tmp_path / name) == 0, name
            text = (tmp_path / name / "manifest.json").read_text()
            got[name] = json.loads(text.replace(str(tmp_path), "TMP"))
            assert got[name].pop("tool") == "dlpeval"
            assert got[name].pop("version") == __version__

        stream = {"dataset": "TMP/synthetic.csv", "schema": "minimal", "directed": True,
                  "bipartite": False, "allow_self_loops": False}
        undirected = stream | {"directed": False}
        cutoff = {"test_ratio": 0.15, "t_split": 84.4}

        def sampled(pools):
            return {"events": 400, "events_scored": 400, "events_skipped": 0,
                    "strategies": {s: {"pool_size": n, "events_no_legal_negative": 0}
                                   for s, n in pools.items()}}

        eval_outputs = ["auc.csv", "auc_summary.csv", "mar.csv", "mar.svg", "scores.csv"]
        assert got == {
            "stats": {"command": "stats", "config": stream | cutoff | {"roles": True},
                      "outputs": ["partition.csv"]},
            "split": {"command": "split",
                      "config": stream | {"dataset": "TMP/bipartite.csv", "bipartite": True,
                                          "test_ratio": 0.25, "t_split": 76.3},
                      "outputs": ["labels.csv", "test.csv", "train.csv"]},
            "bd": {"command": "bd",
                   "config": stream | cutoff | {"keys": ["node"], "facet_roles": True,
                                                "seed": 3},
                   "outputs": ["bd_node.csv", "bd_node.svg", "bd_node_roles.csv",
                               "bd_node_roles.svg"]},
            "sweep": {"command": "sweep",
                      "config": stream | {"ratios": [0.2, 0.3], "mark_ratio": 0.15},
                      "outputs": ["surprise_curve.svg", "sweep.csv"]},
            "sample": {"command": "sample",
                       "config": undirected | {"test_ratio": 0.15, "t_split": 40.0,
                                               "strategies": ["OE", "HE"], "k": 2,
                                               "seed": 0, "on_empty": "skip"},
                       "outputs": ["negatives.csv"],
                       "run": sampled({"OE": 59, "HE": 64})},
            "pa": {"command": "eval",
                   "config": stream | cutoff | {
                       "scorer": "pa", "strategies": ["OE", "RND"], "k": 1, "seed": 5,
                       "on_empty": "abort", "batch_size": 50, "bins": 50,
                       "period": "test", "logs": []},
                   "outputs": eval_outputs, "run": sampled({"OE": 26, "RND": 25})},
            "edgebank": {"command": "eval",
                         "config": undirected | cutoff | {
                             "scorer": "edgebank", "strategies": ["OE", "RND"], "k": 2,
                             "seed": 6, "on_empty": "skip", "batch_size": 200,
                             "bins": 50, "period": "test", "logs": []},
                         "outputs": eval_outputs, "run": sampled({"OE": 36, "RND": 25})},
            "external": {"command": "eval",
                         "config": undirected | cutoff | {
                             "scorer": "external", "strategies": ["OE", "RND"],
                             "bins": 9, "period": "all",
                             "logs": ["TMP/pa/scores.csv", "TMP/edgebank/scores.csv"],
                             "log_headers": [
                                 {"scorer": "pa", "k": 1, "seed": 5, "batch_size": 50},
                                 {"scorer": "edgebank", "k": 2, "seed": 6,
                                  "batch_size": 200}]},
                         "outputs": ["auc_seed0.csv", "auc_seed1.csv", "auc_summary.csv",
                                     "mar.csv", "mar.svg"]},
            "metrics": {"command": "metrics",
                        "config": {"log": "TMP/pa/scores.csv", "period": "test",
                                   "t_split": 84.4, "bins": 7},
                        "outputs": ["auc.csv", "mar.csv"]},
            "plot": {"command": "plot",
                     "config": {"log": "TMP/pa/scores.csv", "t_split": 100.0, "bins": 50},
                     "outputs": ["mar.svg"]},
        }

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


class TestProcessEntry:
    """``dlpeval`` and ``python -m dlpeval.cli`` run ``cli.run``, which
    freezes the import-time objects before ``main``; ``main`` itself leaves
    the collector alone."""

    @pytest.mark.parametrize("code,argv", [
        (0, ("--strategies", "OE,RND", "--seed", "3")),
        (1, ("--strategies", "HS", "--on-empty", "abort")),  # no historical node
        (2, ("--k", "two")),
    ])
    def test_fresh_process_writes_what_main_writes(self, scenario_csv, tmp_path, monkeypatch,
                                                   capsysbinary, code, argv):
        # each side in its own directory from the same relative paths, so
        # that outputs, manifest and messages name the same files; COLUMNS
        # fixes the width of argparse's usage text
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["eval", "stream.csv", "--t-split", "10", "--scorer", "edgebank", *argv,
                "--out", "out"]
        got = {}
        for side in ("process", "main"):
            d = tmp_path / side
            d.mkdir()
            shutil.copy(scenario_csv, d / "stream.csv")
            if side == "process":
                done = subprocess.run([sys.executable, "-m", "dlpeval.cli", *argv], cwd=d,
                                      env=src_env(), capture_output=True, timeout=120)
                ran = (done.returncode, done.stdout, done.stderr)
            else:
                monkeypatch.chdir(d)
                capsysbinary.readouterr()
                try:
                    exit_code = main(argv)
                except SystemExit as exc:  # argparse's exit on a bad option
                    exit_code = exc.code
                ran = (exit_code, *capsysbinary.readouterr())
            got[side] = ran, {str(p.relative_to(d)): p.read_bytes()
                              for p in sorted((d / "out").rglob("*"))}
        assert got["process"] == got["main"]
        assert got["main"][0][0] == code
        assert ("out/manifest.json" in got["main"][1]) is (code == 0)

    def test_run_freezes_before_main(self):
        # main sees the import-time objects already frozen
        code = ("import gc, sys\n"
                "from dlpeval import cli\n"
                "cli.main = lambda: print(gc.get_freeze_count()) or 0\n"
                "sys.exit(cli.run())\n")
        done = subprocess.run([sys.executable, "-c", code], env=src_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and int(done.stdout) > 1000

    def test_main_leaves_the_collector_as_it_was(self, scenario_csv, tmp_path):
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        assert run("eval", scenario_csv, "--t-split", "10", "--scorer", "edgebank",
                   "--strategies", "OE,RND", "--out", tmp_path / "out") == 0
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    def test_script_runs_the_entry(self):
        # the installed dlpeval script; a string check, as Python 3.10 has
        # no tomllib
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert '\n[project.scripts]\ndlpeval = "dlpeval.cli:run"\n' in text
