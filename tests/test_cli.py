"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestInfo:
    def test_info_prints_cluster(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "minotauro-8" in out
        assert "128 total" in out
        assert "calibration:" in out


class TestRun:
    def test_run_kmeans_cpu(self, capsys):
        code = main(["run", "--algorithm", "kmeans", "--grid", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "partial_sum" in out
        assert "makespan" in out

    def test_run_matmul_gpu_with_gantt(self, capsys):
        code = main(
            ["run", "--algorithm", "matmul", "--dataset", "matmul_128mb",
             "--grid", "4", "--gpu", "--gantt"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "matmul_func" in out
        assert "Gantt" in out

    def test_run_fma(self, capsys):
        code = main(
            ["run", "--algorithm", "matmul_fma", "--dataset", "matmul_128mb",
             "--grid", "2"]
        )
        assert code == 0
        assert "fma_func" in capsys.readouterr().out

    def test_run_local_storage_locality_policy(self, capsys):
        code = main(
            ["run", "--algorithm", "kmeans", "--grid", "8",
             "--storage", "local", "--policy", "data_locality"]
        )
        assert code == 0


class TestFigures:
    def test_fig6(self, capsys):
        assert main(["figures", "fig6"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["figures", "table1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])


class TestAdvise:
    def test_advise_kmeans(self, capsys):
        code = main(
            ["advise", "--algorithm", "kmeans", "--dataset", "kmeans_100mb",
             "--grids", "8,2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recommended:" in out
        assert "Advisor ranking" in out


class TestParser:
    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestDecompose:
    def test_decompose_kmeans(self, capsys):
        code = main(["decompose", "--algorithm", "kmeans", "--grid", "16",
                     "--gpu"])
        assert code == 0
        out = capsys.readouterr().out
        assert "data movement" in out
        assert "idle" in out

    def test_decompose_matmul_local(self, capsys):
        code = main(["decompose", "--algorithm", "matmul", "--dataset",
                     "matmul_128mb", "--grid", "4", "--storage", "local"])
        assert code == 0
        assert "compute" in capsys.readouterr().out


class TestCsvExport:
    def test_table_render_csv(self):
        from repro.core.report import Table

        table = Table("T", headers=("a", "b"))
        table.add_row(1, "x,y")
        text = table.render_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == '1,"x,y"'


class TestFiguresMore:
    def test_fig1_via_cli(self, capsys):
        assert main(["figures", "fig1"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_fig9b_via_cli(self, capsys):
        assert main(["figures", "fig9b"]) == 0
        assert "skew" in capsys.readouterr().out

    def test_save_writes_json(self, capsys, tmp_path):
        assert main(["figures", "fig6", "--save", str(tmp_path)]) == 0
        assert (tmp_path / "fig6.json").exists()
        assert "saved" in capsys.readouterr().out


class TestLint:
    def test_lint_clean_configuration_exits_zero(self, capsys):
        code = main(["lint", "--algorithm", "kmeans", "--grid", "64"])
        assert code == 0
        out = capsys.readouterr().out
        assert "workflow analysis" in out
        assert "minotauro-8" in out

    def test_lint_fig9a_oom_exits_nonzero(self, capsys):
        code = main(["lint", "--algorithm", "kmeans", "--grid", "1",
                     "--clusters", "1000"])
        assert code == 1
        out = capsys.readouterr().out
        assert "WF101" in out
        assert "ERROR" in out

    def test_lint_json_format(self, capsys):
        import json

        code = main(["lint", "--algorithm", "kmeans", "--grid", "1",
                     "--clusters", "1000", "--gpu", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] >= 1
        codes = {d["code"] for d in payload["diagnostics"]}
        assert {"WF101", "WF102"} <= codes

    def test_lint_gpu_on_cpu_only_preset(self, capsys):
        code = main(["lint", "--algorithm", "kmeans", "--grid", "64",
                     "--gpu", "--preset", "cpu_only"])
        assert code == 1
        assert "WF103" in capsys.readouterr().out

    def test_lint_matmul_smoke(self, capsys):
        code = main(["lint", "--algorithm", "matmul", "--dataset",
                     "matmul_8gb", "--grid", "8"])
        assert code == 0


class TestAdviseMatmul:
    def test_advise_matmul(self, capsys):
        code = main(
            ["advise", "--algorithm", "matmul", "--dataset", "matmul_128mb",
             "--grids", "4,2"]
        )
        assert code == 0
        assert "recommended:" in capsys.readouterr().out


class TestBench:
    def test_bench_writes_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_simulator.json"
        code = main(["bench", "--repeats", "1", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "tasks/s" in stdout
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["schema"] == "repro-bench/1"
        names = [row["name"] for row in report["workloads"]]
        assert names == [
            "matmul16",
            "matmul16_locality_local",
            "matmul8_locality_gpu",
            "kmeans_deep",
            "wide_dag",
            "plain_replay",
        ]
        for row in report["workloads"]:
            assert row["num_tasks"] > 0
            assert row["tasks_per_second"] > 0
            assert len(row["wall_seconds"]) == row["repeats"] == 1

    def test_bench_scale_suite_writes_report(self, capsys, tmp_path, monkeypatch):
        import json

        from repro import bench as bench_module

        out = tmp_path / "BENCH_scale.json"
        # The real cells replay 10^5-10^6 tasks; a shrunk cell keeps the
        # CLI wiring (suite selection, report schema, floor evaluation)
        # under test at unit-test cost.
        monkeypatch.setattr(
            bench_module, "SCALE_CELLS", (("scale_tiny", 16, 40, 1, 100.0),)
        )
        code = main(["bench", "--suite", "scale", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "tasks/s" in stdout
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["schema"] == "repro-scale-bench/2"
        (row,) = report["workloads"]
        assert row["name"] == "scale_tiny"
        assert row["workers"] == 1
        assert row["num_tasks"] == 16 * 40
        assert row["floor_tasks_per_second"] == 100.0
        assert row["meets_floor"] is True
        assert row["speedup_vs_serial"] is None

    def test_bench_sweeps_suite_writes_report(self, capsys, tmp_path):
        import json

        out = tmp_path / "BENCH_sweeps.json"
        code = main(["bench", "--suite", "sweeps", "--jobs", "1",
                     "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "cells/s" in stdout
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["schema"] == "repro-sweeps-bench/1"
        assert report["warm"]["misses"] == 0
        assert report["byte_identical"] is True
