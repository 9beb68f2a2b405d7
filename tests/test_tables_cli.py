"""Tests for table formatting and the CLI."""

from repro.bench.tables import (PAPER_TABLE2, PAPER_TABLE3,
                                PAPER_FIRST_ITERATION_RATIO,
                                comparison_table, format_table)
from repro.cli import build_parser, main


class TestPaperTranscriptions:
    def test_table2_complete(self):
        assert len(PAPER_TABLE2) == 6                 # 2 layouts x 3 impls
        for row in PAPER_TABLE2.values():
            assert len(row) == 4                      # 2 scenarios x 2 prec

    def test_table2_spot_values(self):
        assert PAPER_TABLE2[("SoA", "OpenMP")][
            ("precalculated", "float")] == 0.50
        assert PAPER_TABLE2[("AoS", "DPC++")][
            ("analytical", "double")] == 1.48

    def test_table3_complete(self):
        assert len(PAPER_TABLE3) == 2
        for row in PAPER_TABLE3.values():
            assert len(row) == 6                      # 2 scenarios x 3 dev

    def test_table3_spot_values(self):
        assert PAPER_TABLE3["SoA"][("analytical", "iris-xe-max")] == 1.00
        assert PAPER_TABLE3["AoS"][("precalculated", "p630")] == 4.76

    def test_first_iteration_constant(self):
        assert PAPER_FIRST_ITERATION_RATIO == 1.5


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "long-header"],
                            [["x", 1], ["yy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[1]
        assert len(lines) == 5

    def test_comparison_table_shows_both_numbers(self):
        model = {key: {k: v * 1.1 for k, v in row.items()}
                 for key, row in PAPER_TABLE3.items()}
        text = comparison_table(model, PAPER_TABLE3, "layout")
        assert "(4.76)" in text
        assert "paper" in text


class TestCli:
    def test_parser_has_all_commands(self):
        parser = build_parser()
        for suite in ("table2", "table3", "fig1", "first-iter",
                      "threads", "measure"):
            args = parser.parse_args(["bench", suite])
            assert args.command == "bench"
            assert args.bench_suites == [suite]
        assert parser.parse_args(["devices"]).command == "devices"

    def test_devices_command(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "8260L" in out and "Iris" in out

    def test_first_iter_command_small(self, capsys):
        assert main(["--particles", "1000000", "bench", "first-iter"]) == 0
        assert "first iteration" in capsys.readouterr().out

    def test_threads_command_small(self, capsys):
        assert main(["--particles", "1000000", "bench", "threads"]) == 0
        out = capsys.readouterr().out
        assert "96" in out

    def test_measure_command_small(self, capsys):
        assert main(["bench", "measure", "--measure-particles", "2000",
                     "--measure-steps", "1"]) == 0
        out = capsys.readouterr().out
        assert "NSPS" in out
