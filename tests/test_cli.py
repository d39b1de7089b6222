"""Unit tests for the command-line interface."""

import re

import pytest

from repro.cli import main


class TestList:
    def test_lists_all_application_queries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("CM1", "CM2", "SG1", "SG2", "SG3", "LRB1", "LRB4"):
            assert name in out

    def test_hardware_spec_dump(self, capsys):
        assert main(["hardware"]) == 0
        out = capsys.readouterr().out
        assert "dispatch_bandwidth" in out
        assert "cpu_predicate" in out


class TestRun:
    def test_named_query(self, capsys):
        code = main([
            "run", "CM1", "--tasks", "4", "--task-size", "32768",
            "--rate", "64", "--workers", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "CM1" in out

    def test_adhoc_cql(self, capsys):
        code = main([
            "run", "--cql",
            "select timestamp, avg(value) as a from SmartGridStr "
            "[range 30 slide 10]",
            "--workload", "smartgrid", "--tasks", "4",
            "--task-size", "16384", "--rate", "32", "--workers", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rows" in out

    def test_requires_exactly_one_query_source(self, capsys):
        assert main(["run"]) == 2
        assert main(["run", "CM1", "--cql", "select timestamp from S [rows 4]"]) == 2

    def test_no_gpu_flag(self, capsys):
        code = main([
            "run", "LRB1", "--tasks", "3", "--task-size", "16384",
            "--no-gpu", "--workers", "2", "--show-rows", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "GPGPU" not in out.split("split")[1].splitlines()[0]

    def test_fcfs_scheduler(self):
        assert main([
            "run", "LRB1", "--tasks", "3", "--task-size", "16384",
            "--scheduler", "fcfs", "--workers", "2", "--show-rows", "0",
        ]) == 0

    def test_unknown_query_raises(self, capsys):
        assert main(["run", "CM9", "--tasks", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown application query 'CM9'")
        assert "CM1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "CM1", "--tasks", "2", "--show-rows", "0"],
            ["run", "--cql", "select timestamp from TaskEvents [rows 4]",
             "--workload", "cluster", "--tasks", "2", "--show-rows", "0"],
            ["record", "cluster", "{tmp}/x.jsonl", "--tuples", "16"],
            ["record", "linearroad", "{tmp}/x.jsonl", "--tuples", "16"],
        ],
        ids=["run", "run-cql", "record-cluster", "record-linearroad"],
    )
    @pytest.mark.parametrize("rate", ["0", "-3"])
    def test_non_positive_rate_exits_2(self, tmp_path, argv, rate, capsys):
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert main([*argv, "--rate", rate]) == 2
        assert capsys.readouterr().err.startswith("error: tuples_per_second")
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["CM1", "--task-size", "0"],
            ["CM1", "--tasks", "0"],
            ["CM1", "--workers", "0"],
            ["--cql", "select timestamp from"],
        ],
        ids=["task-size", "tasks", "workers", "cql"],
    )
    def test_invalid_arguments_exit_2(self, argv, capsys):
        assert main(["run", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRecordReplay:
    def _record(self, tmp_path, tuples=4096):
        trace = tmp_path / "events.jsonl"
        assert main([
            "record", "cluster", str(trace), "--tuples", str(tuples),
            "--rate", "64",
        ]) == 0
        return trace

    def test_record_writes_jsonl(self, tmp_path, capsys):
        trace = self._record(tmp_path, tuples=512)
        assert "recorded 512 tuples" in capsys.readouterr().out
        assert len(trace.read_text().splitlines()) == 512

    def test_replay_named_query_to_sink(self, tmp_path, capsys):
        trace = self._record(tmp_path)
        sink = tmp_path / "out.jsonl"
        code = main([
            "replay", str(trace), "CM1", "--sink", str(sink),
            "--task-size", "49152", "--workers", "2", "--show-rows", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "complete   : True" in out
        assert sink.exists() and sink.read_text().strip()

    def test_replay_adhoc_cql_on_sim(self, tmp_path, capsys):
        trace = self._record(tmp_path)
        code = main([
            "replay", str(trace), "--cql",
            "select timestamp, category, sum(cpu) as totalCpu from "
            "TaskEvents [range 60 slide 1] group by category",
            "--workload", "cluster", "--execution", "sim",
            "--task-size", "49152", "--workers", "2", "--show-rows", "0",
        ])
        assert code == 0
        assert "complete   : True" in capsys.readouterr().out

    def test_replay_requires_exactly_one_query_source(self, tmp_path):
        trace = self._record(tmp_path, tuples=256)
        assert main(["replay", str(trace)]) == 2
        assert main([
            "replay", str(trace), "CM1", "--cql", "select timestamp from S",
        ]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["CM1", "--task-size", "0"],
            ["CM1", "--workers", "0"],
            ["--cql", "select timestamp from"],
        ],
        ids=["task-size", "workers", "cql"],
    )
    def test_invalid_arguments_exit_2(self, tmp_path, argv, capsys):
        trace = self._record(tmp_path, tuples=256)
        assert main(["replay", str(trace), *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_replay_unknown_query_exits_2(self, tmp_path, capsys):
        trace = self._record(tmp_path, tuples=256)
        assert main(["replay", str(trace), "NOPE"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown application query 'NOPE'"
        )

    def test_replay_sink_in_missing_directory_exits_2(self, tmp_path, capsys):
        trace = self._record(tmp_path, tuples=256)
        sink = tmp_path / "missing" / "o.jsonl"
        assert main(["replay", str(trace), "CM1", "--sink", str(sink)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_record_unknown_suffix_exits_2(self, tmp_path, capsys):
        assert main(["record", "cluster", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot infer format")

    def test_record_into_missing_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.jsonl"
        assert main(["record", "cluster", str(out), "--tuples", "16"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_replay_rejects_multi_input_queries(self, tmp_path, capsys):
        trace = self._record(tmp_path, tuples=256)
        assert main(["replay", str(trace), "SG3", "--show-rows", "0"]) == 2
        assert "input streams" in capsys.readouterr().err


class TestCluster:
    #: the dataset size tests/test_cluster.py uses.
    TUPLES = str(1 << 15)

    def _resubmits(self, out):
        return int(re.search(r"(\d+) resubmit\(s\)", out).group(1))

    def test_groupby_run_is_byte_identical(self, capsys):
        assert main(["cluster", "--workload", "GROUP-BY", "--tuples", self.TUPLES]) == 0
        out = capsys.readouterr().out
        assert self._resubmits(out) == 0
        assert "byte-identical" in out

    def test_killed_shard_is_resubmitted_and_stays_exact(self, capsys):
        assert main(["cluster", "--tuples", self.TUPLES, "--kill-shard", "0"]) == 0
        out = capsys.readouterr().out
        assert self._resubmits(out) >= 1
        assert "byte-identical" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kill-shard", "-1"],
            ["--kill-shard", "2", "--shards", "2"],
            ["--shards", "0"],
            ["--workers", "0"],
        ],
    )
    def test_invalid_arguments_exit_2(self, argv, capsys):
        assert main(["cluster", "--tuples", self.TUPLES, *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
