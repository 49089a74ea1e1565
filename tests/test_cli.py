import os
import random
import struct

import pytest

from capheap import cli
from capheap.attacks import ATTACK_IDS, Outcome, run_attack
from capheap.bench import SEED_MAX, WORKLOADS
from capheap.cli import main
from capheap.harness import EXPECTED_MATRIX, render, run_matrix
from capheap.registry import ALLOCATOR_NAMES, create


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
        op, k = line.split()[:2]
        assert capsys.readouterr().err == f"line 3: {op}: unknown ref 'r{k}'\n"

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

    def test_refused_op_prints_its_line_and_the_refusal(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("malloc 32\nfree 0  # again below\nfree 0\n")
        rc = main(["dump", "--allocator", "bump-alloc-nocheri", "--script", str(script)])
        assert rc == 1
        assert capsys.readouterr().err == "line 3: 'free 0' failed: DoubleFree: block 0 already freed\n"

    @pytest.mark.parametrize(
        "line",
        [
            "store 0 abc",
            "store 0 zz",
            "load 0 0 0",
            "set_bounds 0 0 -1",
            "malloc " + "9" * 4301,
            "free 1",
            "free ١",
            "traits narrow_bounds",
            "note hello",
            "load 0 0",
        ],
        ids=["odd-hex", "non-hex", "zero-load", "negative-bounds", "past-4300-digits",
             "index-past-end", "non-ascii-index", "traits", "note", "missing-field"],
    )
    def test_malformed_argument_is_usage_error(self, line, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text(f"malloc 32\n{line}\n")
        rc = main(["dump", "--allocator", "jemalloc", "--script", str(script)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("line 2: ")

    def test_script_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_bytes(b"malloc 16\n\xff\n")
        rc = main(["dump", "--allocator", "jemalloc", "--script", str(script)])
        assert rc == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("cannot read script: 'utf-8' codec can't decode byte 0xff")

    def test_forged_header_reproducer(self, tmp_path, capsysbinary):
        # the stale-capability forgery of tests/test_equivalence.py as a
        # script: a FREE header claiming 4096 bytes written over the freed
        # second block's, which the next malloc carves from
        script = tmp_path / "script.txt"
        script.write_text(
            "malloc 32\n"
            "malloc 32\n"
            "free 1\n"
            "set_bounds 1 40 8       # r2: the freed block's header\n"
            "store 2 001000001bca0000  # size 4096, magic 0xCA1B, FREE\n"
            "malloc 1000\n"
        )
        rc = main(["dump", "--allocator", "jemalloc", "--script", str(script)])
        assert rc == 0
        blob = capsysbinary.readouterr().out
        size, magic, status, _ = struct.unpack_from("<IHBB", blob, 40)
        assert (size, magic, status) == (1008, 0xCA1B, 1)  # LIVE, base=40,top=1056

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


def trace_script(report) -> list[str]:
    """A probe's heap ops as dump script lines: ``rK`` becomes ``K``, and
    ``traits`` and ``note``, which only steer the probe, are left out."""
    return [
        " ".join([step.op] + [a[1:] if str(a).startswith("r") else str(a) for a in step.args])
        for step in report.trace
        if step.op not in ("traits", "note")
    ]


@pytest.mark.parametrize("attack_id", ATTACK_IDS)
@pytest.mark.parametrize("name", ALLOCATOR_NAMES)
def test_probe_trace_replays_as_dump_script(name, attack_id, tmp_path, capsysbinary):
    alloc = create(name)
    report = run_attack(attack_id, alloc)
    lines = trace_script(report)
    script = tmp_path / "script.txt"
    script.write_text("".join(line + "\n" for line in lines))
    rc = main(["dump", "--allocator", name, "--script", str(script)])
    out = capsysbinary.readouterr()
    refused = [s.result for s in report.trace if s.result.startswith(("error:", "fault:"))]
    if not refused:
        assert rc == 0
        assert out.out == alloc.heap.snapshot()
    else:
        # a probe stops at its first refused heap op
        assert rc == 1
        assert len(refused) == 1
        kind = refused[0].split(":", 1)[1]
        assert out.err.decode().startswith(f"line {len(lines)}: {lines[-1]!r} failed: {kind}")


def hostile_script(rng: random.Random) -> bytes:
    """A few lines of the six script ops in which about one field in five
    is hostile, and now and then an unknown op or a byte that is not UTF-8."""
    def field(kind, results):
        if kind == "K" and results and rng.random() < 0.8:
            return str(rng.randrange(results))
        if kind == "N" and rng.random() < 0.8:
            return str(rng.randrange(1, 2048))
        if kind == "H" and rng.random() < 0.8:
            return "a5" * rng.randrange(1, 40)
        return rng.choice({
            "K": [str(results), str(results + 7), "-1", "٠"],
            "N": ["0", str(-rng.randrange(1, 1 << 40)), "9" * 4301, "١٦", "1e3"],
            "H": ["abc", "zz", "é0"],
        }[kind])

    kinds = {"malloc": "N", "free": "K", "realloc": "KN", "store": "KH",
             "load": "KNN", "set_bounds": "KNN"}
    lines, results = [], 0
    for _ in range(rng.randrange(1, 10)):
        op = rng.choice(["malloc"] * 3 + list(kinds) + ["mallok"] * (rng.random() < 0.1))
        if not results and rng.random() < 0.8:
            op = "malloc"
        lines.append(" ".join([op] + [field(kind, results) for kind in kinds.get(op, "N")]))
        results += op in ("malloc", "realloc", "set_bounds")
    return "\n".join(lines).encode() + (b"\n\xff\n" if rng.random() < 0.05 else b"\n")


def test_seeded_sweep_of_hostile_dump_scripts(tmp_path, capsys):
    rng = random.Random(20231)
    script = tmp_path / "script.txt"
    codes = set()
    for _ in range(150):
        script.write_bytes(hostile_script(rng))
        name = rng.choice(ALLOCATOR_NAMES)
        rc = main(["dump", "--allocator", name, "--script", str(script), "--out", os.devnull])
        assert rc in (0, 1, 2)
        assert "Traceback" not in capsys.readouterr().err
        codes.add(rc)
    assert codes == {0, 1, 2}


# The exit codes README documents for each command: 0 on success, 1 for a
# matrix mismatch under --expect or a dump script op the allocator
# refuses, 2 on malformed input.
DOCUMENTED_EXIT_CODES = {
    "matrix": {0, 1, 2},
    "attack": {0, 2},
    "bench": {0, 2},
    "list": {0, 2},
    "dump": {0, 1, 2},
}


def edge_argv(rng: random.Random, tmp_path) -> list[str]:
    """One command line with option values at and just past their limits:
    counts and sizes at 0, -1 and 1, seeds at 0 and 2**64, sizes far
    past the heap (with small op counts, so a run stays short), unknown
    formats, attacks and allocators, and ``dump --out`` paths that
    cannot be written."""

    def maybe(*argv):
        return list(argv) if rng.random() < 0.5 else []

    command = rng.choice(list(DOCUMENTED_EXIT_CODES))
    allocator = rng.choice(ALLOCATOR_NAMES + ("all", "nope", ""))
    if command == "matrix":
        fmt = rng.choice(["text", "csv", "json", "yaml", "TEXT", ""])
        return ["matrix", *maybe("--expect"), *maybe("--rounding-bounds"), *maybe("--format", fmt)]
    if command == "attack":
        attack = rng.choice(ATTACK_IDS + ("A0", "A6", "a1"))
        return ["attack", attack, *maybe("--allocator", allocator), *maybe("--trace")]
    if command == "bench":
        sizes = ["0", "-1", "1", "16", "4097", str(2**32), str(2**64), str(2**70), "x"]
        argv = ["bench", rng.choice(["churn", "randsize", "reallocramp", "ramp"])]
        argv += maybe("--allocator", allocator) or ["--allocator", "all"]
        argv += ["--ops", rng.choice(["0", "-1", "1", "3", "x"])]
        argv += maybe("--seed", rng.choice(["0", "-1", "1", str(2**64 - 1), str(2**64)]))
        for option in ("--size", "--min-size", "--max-size"):
            argv += maybe(option, rng.choice(sizes))
        return argv
    if command == "list":
        return ["list", *maybe("--traits"), *maybe("--bogus")]
    script = tmp_path / "script.txt"
    script.write_text("malloc 32\nmalloc 4096\nfree 0\n")
    out = rng.choice([tmp_path, tmp_path / "missing" / "x.bin", tmp_path / "heap.bin", os.devnull])
    return ["dump", "--allocator", allocator, "--script", str(script), "--out", str(out)]


# bench options by the Workload parameter each sets
BENCH_OPTIONS = {
    "--size": "size", "--seed": "seed", "--min-size": "min_size", "--max-size": "max_size",
}
# lines that give options their workload kind ignores values it would refuse
IGNORED_OPTION_LINES = [
    ["bench", "churn", "--allocator", "jemalloc", "--ops", "3", "--seed", "0"],
    ["bench", "randsize", "--allocator", "jemalloc", "--ops", "3", "--size", "0"],
    ["bench", "reallocramp", "--allocator", "jemalloc", "--ops", "3",
     "--seed", "-1", "--min-size", "9", "--max-size", "1"],
]


def without_ignored_options(argv: list[str]) -> list[str] | None:
    """A ``bench`` line without the options its workload kind does not
    read; None for an unknown kind, or where an ignored value is no int
    (``argparse`` refuses that for every kind)."""
    if argv[1] not in WORKLOADS:
        return None
    reads = WORKLOADS[argv[1]][0]
    kept = argv[:2]
    for option, value in zip(argv[2::2], argv[3::2]):
        if option not in BENCH_OPTIONS or BENCH_OPTIONS[option] in reads:
            kept += [option, value]
        elif not value.lstrip("-").isdigit():
            return None
    return kept


def ignores_a_refused_value(argv: list[str]) -> bool:
    """Whether an option a ``bench`` line's kind does not read holds a
    value the ``Workload`` would refuse if the kind read it."""
    args = cli.build_parser().parse_args(argv)
    reads = WORKLOADS[args.workload][0]
    ignored = {name: getattr(args, name) for name in BENCH_OPTIONS.values() if name not in reads}
    refused = any(value < 1 for value in ignored.values()) or ignored.get("seed", 1) > SEED_MAX
    return refused or ("min_size" in ignored and ignored["min_size"] > ignored["max_size"])


def csv_without_elapsed(text: str) -> list[list[str]]:
    rows = [line.split(",") for line in text.splitlines()]
    column = rows[0].index("elapsed_ns") if rows else 0
    return [row[:column] + row[column + 1 :] for row in rows]


def test_seeded_sweep_of_command_lines_at_their_limits(tmp_path, capsys):
    rng = random.Random("cli edges")
    codes = {command: set() for command in DOCUMENTED_EXIT_CODES}
    ignored_refusals = 0
    for argv in [*(edge_argv(rng, tmp_path) for _ in range(120)), *IGNORED_OPTION_LINES]:
        rc = main(argv)
        out = capsys.readouterr()
        assert rc in DOCUMENTED_EXIT_CODES[argv[0]], argv
        assert "Traceback" not in out.err, argv
        if rc == 2:
            assert out.out == "", argv
        codes[argv[0]].add(rc)
        stripped = without_ignored_options(argv) if argv[0] == "bench" else None
        if stripped is not None and stripped != argv:
            # an option the kind does not read changes nothing, even a
            # value the kind would refuse: the same exit code and CSV
            assert main(stripped) == rc, argv
            assert csv_without_elapsed(capsys.readouterr().out) == csv_without_elapsed(out.out)
            ignored_refusals += rc == 0 and ignores_a_refused_value(argv)
    # every command both ran and refused a command line
    assert all({0, 2} <= seen for seen in codes.values()), codes
    assert ignored_refusals >= len(IGNORED_OPTION_LINES)


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
