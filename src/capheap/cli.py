"""Command-line entry point.

Subcommands: ``matrix`` (run the conformance grid, optionally diffing
against the reference matrix), ``attack`` (one probe with an optional
step trace), ``bench`` (micro-benchmarks as CSV), ``list`` (canonical
allocator names), and ``dump`` (drive an allocator from a script and
write a raw heap snapshot).

A dump script is the probes' op language, one op per line: ``malloc
N``, ``free K``, ``realloc K N``, ``store K HEX``, ``load K ADDR LEN``
and ``set_bounds K BASE LEN``, where ``K`` names the K-th capability an
earlier op returned (a trace's ``rK``) and ``#`` starts a comment.  This
module only parses the lines, ``K`` into ``rK``; ``attacks.Tape`` runs
them and is the one check of a ref: one no op returned (``free 5``
before a sixth capability, or ``free -1``) is malformed, as ``free:
unknown ref 'r5'``.  The first op the allocator refuses, whose text the
tape leaves in ``Tape.error``, ends the script.

Exit codes: 0 on success or a matching matrix, 1 when ``--expect``
finds mismatches or the allocator refuses a dump script op, 2 on
malformed input (a dump script's syntax, an index no op returned, or
an argument the model rejects) or a file ``dump`` cannot read, decode
as UTF-8, or write.
"""

from __future__ import annotations

import argparse
import sys

from .attacks import ATTACK_IDS, OP_FIELDS, Tape, run_attack
from .bench import WORKLOADS, Workload, emit_csv, run_workload
from .harness import EXPECTED_MATRIX, diff_matrix, render, run_matrix
from .registry import ALLOCATOR_NAMES, TRAITS, create

__all__ = ["main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capheap",
        description="Capability-heap laboratory: reference allocators, attack probes, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", help="run the allocator-by-attack conformance matrix")
    p_matrix.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p_matrix.add_argument("--expect", action="store_true",
                          help="diff against the reference matrix; exit 1 on mismatch")
    p_matrix.add_argument("--rounding-bounds", action="store_true",
                          help="enable power-of-two bounds rounding above 4096 bytes")
    p_matrix.set_defaults(func=cmd_matrix)

    p_attack = sub.add_parser("attack", help="run a single attack probe")
    p_attack.add_argument("attack", choices=ATTACK_IDS)
    p_attack.add_argument("--allocator", required=True, choices=ALLOCATOR_NAMES)
    p_attack.add_argument("--trace", action="store_true", help="print the recorded steps")
    p_attack.set_defaults(func=cmd_attack)

    p_bench = sub.add_parser("bench", help="run a micro-benchmark workload")
    p_bench.add_argument("workload", choices=tuple(WORKLOADS))
    p_bench.add_argument("--allocator", required=True,
                         choices=ALLOCATOR_NAMES + ("all",))
    p_bench.add_argument("--ops", type=int, default=1000)
    p_bench.add_argument("--size", type=int, default=32)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--min-size", type=int, default=16)
    p_bench.add_argument("--max-size", type=int, default=256)
    p_bench.set_defaults(func=cmd_bench)

    p_list = sub.add_parser("list", help="list the canonical allocators in table order")
    p_list.add_argument("--traits", action="store_true")
    p_list.set_defaults(func=cmd_list)

    p_dump = sub.add_parser("dump", help="run an allocation script and dump the heap")
    p_dump.add_argument("--allocator", required=True, choices=ALLOCATOR_NAMES)
    p_dump.add_argument("--script", required=True)
    p_dump.add_argument("--out", default="-", help="snapshot path, '-' for stdout")
    p_dump.set_defaults(func=cmd_dump)

    return parser


def cmd_matrix(args) -> int:
    matrix = run_matrix(rounding_bounds=args.rounding_bounds)
    sys.stdout.write(render(matrix, args.format).decode("utf-8"))
    if not args.expect:
        return 0
    diffs = diff_matrix(matrix, EXPECTED_MATRIX)
    if not diffs:
        total = len(matrix.names) * len(matrix.attacks)
        print(f"all {total} cells match the reference matrix", file=sys.stderr)
        return 0
    for name, attack, actual, expected in diffs:
        print(
            f"mismatch {name} {attack}: got {actual.token}, expected {expected.token}",
            file=sys.stderr,
        )
    return 1


def cmd_attack(args) -> int:
    report = run_attack(args.attack, create(args.allocator))
    print(f"{args.attack} {args.allocator}: {report.headline()}")
    if args.trace:
        for i, step in enumerate(report.trace):
            rendered = ", ".join(repr(a) for a in step.args)
            print(f"  {i:>2} {step.op}({rendered}) -> {step.result}")
    return 0


def cmd_bench(args) -> int:
    # the workload's parameters are the options of the same name
    params = {name: getattr(args, name) for name in WORKLOADS[args.workload][0]}
    try:
        workload = Workload(args.workload, args.ops, **params)
    except ValueError as exc:
        print(f"bad workload: {exc}", file=sys.stderr)
        return 2
    names = ALLOCATOR_NAMES if args.allocator == "all" else (args.allocator,)
    results = [run_workload(create(name), workload) for name in names]
    sys.stdout.write(emit_csv(results).decode("utf-8"))
    return 0


def cmd_list(args) -> int:
    if not args.traits:
        for name in ALLOCATOR_NAMES:
            print(name)
        return 0
    width = max(len(n) for n in ALLOCATOR_NAMES)
    print(f"{'allocator'.ljust(width)}  narrow deferred exec_strip validation      dfdetect inplace")
    for name in ALLOCATOR_NAMES:
        t = TRAITS[name]
        print(
            f"{name.ljust(width)}  "
            f"{str(t.narrow_bounds).ljust(6)} {str(t.deferred_free).ljust(8)} "
            f"{str(t.strips_exec).ljust(10)} {t.free_validation.value.ljust(15)} "
            f"{str(t.double_free_detect).ljust(8)} {t.realloc_grows_in_place}"
        )
    return 0


# the script ops are the tape's heap ops; each field is a result index (K),
# a number (N) or bytes written in hex (H), which the tape decodes
_SCRIPT_OPS = {op: kinds for op, kinds in OP_FIELDS.items() if op not in ("traits", "note")}


def _run_script(tape: Tape, text: str) -> int:
    """Run each script line through ``tape`` and return the exit code: 0,
    1 at the first op the allocator refuses, 2 at the first malformed
    line.  Either failure is reported on stderr."""

    # K names the K-th capability returned, the tape's rK, which refuses
    # a ref no op returned
    convert = {"K": lambda field: f"r{int(field)}", "N": int, "H": str}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        op, *fields = line.split()
        kinds = _SCRIPT_OPS.get(op)
        if kinds is None or len(fields) != len(kinds):
            print(f"line {lineno}: cannot parse {line!r}", file=sys.stderr)
            return 2
        try:
            tape.do(op, *(convert[k](f) for k, f in zip(kinds, fields)))
        except ValueError as exc:  # a bad field or ref, or an argument the model refuses
            print(f"line {lineno}: {exc}", file=sys.stderr)
            return 2
        if tape.error is not None:
            print(f"line {lineno}: {line!r} failed: {tape.error}", file=sys.stderr)
            return 1
    return 0


def cmd_dump(args) -> int:
    try:
        with open(args.script, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read script: {exc}", file=sys.stderr)
        return 2
    tape = Tape(create(args.allocator))
    status = _run_script(tape, text)
    if status:
        return status
    snapshot = tape.alloc.heap.snapshot()
    if args.out == "-":
        sys.stdout.buffer.write(snapshot)
        sys.stdout.buffer.flush()
    else:
        try:
            with open(args.out, "wb") as fh:
                fh.write(snapshot)
        except OSError as exc:
            print(f"cannot write snapshot: {exc}", file=sys.stderr)
            return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
