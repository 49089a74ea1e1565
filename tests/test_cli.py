import pytest

from capheap import cli
from capheap.attacks import Outcome
from capheap.cli import main
from capheap.harness import EXPECTED_MATRIX, render, run_matrix
from capheap.registry import ALLOCATOR_NAMES


class TestMatrixCommand:
    def test_expect_matches_and_exits_zero(self, capsys):
        assert main(["matrix", "--expect"]) == 0
        out = capsys.readouterr()
        assert "all 35 cells match" in out.err
        assert out.out.splitlines()[1].startswith("bump-alloc-cheri")

    def test_expect_reports_a_mismatch_and_exits_one(self, capsys, monkeypatch):
        # jemalloc A2 is thwarted; a reference that says it succeeds differs
        # in exactly that cell
        row = EXPECTED_MATRIX.names.index("jemalloc")
        col = EXPECTED_MATRIX.attacks.index("A2")
        cells = [list(r) for r in EXPECTED_MATRIX.cells]
        assert cells[row][col] is Outcome.THWARTED
        cells[row][col] = Outcome.SUCCEEDS
        flipped = EXPECTED_MATRIX._replace(cells=tuple(map(tuple, cells)))
        monkeypatch.setattr(cli, "EXPECTED_MATRIX", flipped)
        assert main(["matrix", "--expect"]) == 1
        out = capsys.readouterr()
        assert out.err == "mismatch jemalloc A2: got T, expected S\n"
        assert out.out == render(run_matrix()).decode("utf-8")

    def test_text_table_lists_rows_in_order(self, capsys):
        main(["matrix", "--format", "text"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines[1:]] == list(ALLOCATOR_NAMES)

    def test_csv_is_stable_across_runs(self, capsys):
        main(["matrix", "--format", "csv"])
        first = capsys.readouterr().out
        main(["matrix", "--format", "csv"])
        second = capsys.readouterr().out
        assert first == second

    def test_serial_flag_is_gone(self, capsys):
        # the grid always runs serially; the old opt-out is a usage error
        assert main(["matrix", "--serial"]) == 2

    def test_rounding_bounds_flag_keeps_golden_outcomes(self, capsys):
        assert main(["matrix", "--expect", "--rounding-bounds", "--format", "csv"]) == 0

    def test_json_format(self, capsys):
        main(["matrix", "--format", "json"])
        out = capsys.readouterr().out
        assert '"snmalloc-repo"' in out


class TestAttackCommand:
    def test_not_applicable_wording(self, capsys):
        assert main(["attack", "A4", "--allocator", "snmalloc-cheribuild"]) == 0
        out = capsys.readouterr().out
        assert "⊘ not applicable (deferred free)" in out

    def test_trace_prints_steps(self, capsys):
        main(["attack", "A1", "--allocator", "jemalloc", "--trace"])
        out = capsys.readouterr().out
        assert "malloc(64)" in out
        assert "free(" in out

    def test_unknown_attack_rejected_with_usage(self, capsys):
        assert main(["attack", "A9", "--allocator", "jemalloc"]) == 2

    def test_unknown_allocator_rejected_before_any_heap(self, capsys):
        assert main(["attack", "A1", "--allocator", "tcmalloc"]) == 2


class TestListCommand:
    def test_seven_lines_in_table_order(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == list(ALLOCATOR_NAMES)

    def test_traits_table(self, capsys):
        main(["list", "--traits"])
        out = capsys.readouterr().out
        assert "InlineHeader" in out
        assert "MetadataLookup" in out


class TestBenchCommand:
    def test_single_allocator_csv(self, capsys):
        assert main(["bench", "churn", "--allocator", "jemalloc", "--ops", "50"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("allocator,workload,ops")
        assert len(lines) == 2
        assert lines[1].startswith("jemalloc,churn;ops=50;size=32,")

    def test_all_allocators(self, capsys):
        main(["bench", "randsize", "--allocator", "all", "--ops", "50", "--seed", "3"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["churn", "--ops", "0"], "op_count must be at least 1"),
            (["churn", "--size", "0"], "churn needs a positive size"),
            (["randsize", "--seed", "0"], "randsize needs a positive seed"),
            (["randsize", "--seed", str(2**64)], "randsize needs a seed of at most 2**64 - 1"),
            (["randsize", "--min-size", "300", "--max-size", "10"],
             "randsize needs min_size <= max_size"),
        ],
        ids=["ops", "size", "seed", "seed-past-64-bits", "sizes"],
    )
    def test_malformed_workload_is_usage_error(self, argv, message, capsys):
        assert main(["bench", *argv, "--allocator", "jemalloc"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"bad workload: {message}\n"


class TestDumpCommand:
    def test_script_drives_allocator_and_writes_snapshot(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text(
            "# touch three blocks\n"
            "malloc 32\n"
            "malloc 64\n"
            "free 0\n"
            "realloc 1 128\n"
        )
        out = tmp_path / "heap.bin"
        rc = main([
            "dump", "--allocator", "dlmalloc-cheribuild",
            "--script", str(script), "--out", str(out),
        ])
        assert rc == 0
        blob = out.read_bytes()
        heap_size = 1 << 20
        assert len(blob) == heap_size + (heap_size // 16) // 8
        # the first chunk header is inspectable in the raw dump
        assert int.from_bytes(blob[4:6], "little") == 0xCA1B

    def test_snapshot_to_stdout(self, tmp_path, capsysbinary):
        script = tmp_path / "script.txt"
        script.write_text("malloc 16\n")
        assert main(["dump", "--allocator", "bump-alloc-cheri", "--script", str(script)]) == 0
        data = capsysbinary.readouterr().out
        assert len(data) == (1 << 20) + (1 << 20) // 16 // 8

    def test_bad_index_is_usage_error(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("free 5\n")
        rc = main(["dump", "--allocator", "jemalloc", "--script", str(script)])
        assert rc == 2

    @pytest.mark.parametrize("line", ["free -1", "realloc -2 64"])
    def test_negative_index_is_usage_error(self, line, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text(f"malloc 32\nmalloc 48\n{line}\nfree -1\n")
        rc = main(["dump", "--allocator", "bump-alloc-nocheri", "--script", str(script)])
        assert rc == 2
        assert "line 3: negative result index" in capsys.readouterr().err

    def test_malformed_line_is_usage_error(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("mallok 32\n")
        rc = main(["dump", "--allocator", "jemalloc", "--script", str(script)])
        assert rc == 2

    def test_failing_op_exits_one(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("malloc 32\nfree 0\nfree 0\n")
        rc = main(["dump", "--allocator", "bump-alloc-nocheri", "--script", str(script)])
        assert rc == 1
        assert "DoubleFree" in capsys.readouterr().err

    def test_missing_script_file(self, capsys):
        rc = main(["dump", "--allocator", "jemalloc", "--script", "/nonexistent/x.txt"])
        assert rc == 2

    def test_out_into_a_missing_directory_is_usage_error(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("malloc 32\n")
        out = tmp_path / "no" / "such" / "x.bin"
        rc = main(["dump", "--allocator", "jemalloc", "--script", str(script), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("cannot write snapshot: ")
        assert not out.parent.exists()


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
