"""Command-line front end: graph export, theorem verification, operator words.

Exit codes: 0 all checks pass / output written, 1 a verification check
failed or the model is faulty, 2 usage error or output that cannot be
written (`--out` or stdout).  A reader that closes stdout early (`| head`)
ends the output quietly, with the exit code of the run.
Identical invocations produce byte-identical output.
A command imports the module of the one family it runs, and no other.

`verify --check all` on a crystal of at least FORK_MIN_ELEMENTS elements,
in a one-thread process that may use two CPUs, builds the level-l table and
then forks once: a child runs one section that reads only the table
(`alpha`, the largest, for a1; the level-l axioms for c1 and d2, whose
`all` has just two sections) while this process runs the rest, and the
child's checks take their place in the report, so the output is the same
bytes as in one process.  A child that ends without sending them is an
error, exit code 1.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from dataclasses import replace
from functools import partial
from itertools import accumulate
from typing import Iterable, Optional

from .crystal_graph import (
    SECTIONS,
    all_passed,
    axiom_checks,
    OperatorTable,
    render_report,
    stream_graph,
)
from .root_data import RootDatum

SIZE_LIMIT = 10**6
# The fork costs about 5 ms of CPU.  Measured on 2 vCPUs, 40 alternating
# CLI pairs each, it lost at 610-1,036 elements and won from 1,782 up.
FORK_MIN_ELEMENTS = 2_000
MAX_RANK = sys.maxsize // 16  # beyond it a value's 2n + 2 coordinates, 8 B each, outgrow the address space
FAMILIES = {"a1": "affine_a", "c1": "affine_c", "d2": "affine_d2"}

A1_ONLY_CHECKS = ("promotion", "alpha")
CHECK_NAMES = ("all", "axioms") + SECTIONS + A1_ONLY_CHECKS


def integer(text: str) -> int:
    """An optional '-' and ASCII digits; int() also takes '+', '_', spaces and '٢'."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def family_module(family: str):
    """The module of a family, imported on first use."""
    return importlib.import_module(f".{FAMILIES[family]}", __package__)


def _check_bounds(args, module) -> Optional[int]:
    try:  # the root datum decides which ranks exist: C needs 2, A and B take 1
        RootDatum(module.SPEC.model.datum_family, args.rank)
    except ValueError as err:
        return _fail_usage(str(err))
    if args.rank > MAX_RANK:
        return _fail_usage(f"rank must be at most {MAX_RANK}, got {args.rank}")
    if args.level < 0:
        return _fail_usage(f"level must be >= 0, got {args.level}")
    enumerates = args.command != "apply"  # apply walks one word from one value
    if enumerates and not args.force and _too_large(args.family, args.rank, args.level):
        return _fail_usage(
            f"crystal has more than {SIZE_LIMIT} elements; pass --force to proceed"
        )
    return None


def _too_large(family: str, n: int, l: int) -> bool:
    """Whether the crystal has more than SIZE_LIMIT elements.  The count is
    summed from its smallest parts up and the sum stops once past the limit,
    so no number much larger than the limit is formed."""
    parts = (family_module(family).shell_size(n, k) for k in range(l + 1))  # the components k = 0..l
    return any(total > SIZE_LIMIT for total in accumulate(parts))


def _write_output(chunks: Iterable[str], out: Optional[str]) -> int:
    """Write the text chunks to stdout, or as UTF-8 to the file `out`."""
    if out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as err:
            # send what is still buffered to /dev/null, so the flush at exit
            # does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            # a broken pipe is a reader that stopped early, as `| head` does
            if not isinstance(err, BrokenPipeError):
                return _fail_usage(f"cannot write stdout: {err.strerror or err}")
        return 0
    try:
        with open(out, "wb") as handle:
            handle.writelines(chunk.encode("utf-8") for chunk in chunks)
    except OSError as err:
        return _fail_usage(f"cannot write {out}: {err.strerror or err}")
    return 0


def cmd_graph(args, module) -> int:
    if args.component is not None and not 0 <= args.component <= args.level:
        return _fail_usage(f"component {args.component} out of range 0..{args.level}")
    model = module.SPEC.model(args.rank, args.level, args.component)
    try:
        chunks = stream_graph(model, args.format)
    except ValueError as err:  # an f_i leaves the enumeration: a model fault
        print(f"error: {err}", file=sys.stderr)
        return 1
    return _write_output(chunks, args.out)


def _factor_axioms(module, rank: int, level: int) -> list:
    """The axioms of `a1`'s one-row and n-row factor crystals, as row-*/col-*."""
    return [
        replace(c, name=f"{prefix}-{c.name}")
        for prefix, factor in (("row", module.RowCrystal), ("col", module.ColCrystal))
        for c in axiom_checks(factor(rank, level))
    ]


def _verification_report(family: str, rank: int, level: int, selector: str):
    """The checks of `verify --check selector`, in report order.  Each
    section reads the level-l table and writes nothing another reads, so
    with `all`, once the table holds its e rows, one section runs in a
    forked child when `_fork_available()` and the table has at least
    FORK_MIN_ELEMENTS elements: `alpha`, the largest, for a1; the axioms of
    c1 and d2, whose `all` has two sections."""
    module = family_module(family)
    sections = []  # each gives its checks when called
    table = None  # the level-l table, shared by every check that reads it
    if selector in ("all", "axioms") + SECTIONS:
        model = module.SPEC.model(rank, level)
        table = OperatorTable(model)
        if selector in ("all", "axioms"):
            sections.append(partial(axiom_checks, model, table))
            if family == "a1":
                sections.append(partial(_factor_axioms, module, rank, level))
        if selector in ("all",) + SECTIONS:
            sections.append(partial(module.verify_theorems, rank, level, selector, table))
    if family == "a1":
        if selector in ("all", "promotion"):
            sections.append(partial(module.promotion_checks, rank, level))
        if selector in ("all", "alpha"):
            sections.append(partial(module.alpha_checks, rank, level, table))
    if selector == "all" and len(table.elems) >= FORK_MIN_ELEMENTS and _fork_available():
        table.e  # both processes read the e rows: recorded once, before the fork
        return _run_forked(sections, len(sections) - 1 if family == "a1" else 0)
    return [c for section in sections for c in section()]


def _fork_available() -> bool:
    """Whether a forked child can run beside this process: the platform
    forks, the process may use two CPUs, and it runs one thread, which is
    what a fork copies safely."""
    threading = sys.modules.get("threading")
    return (
        hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and (threading is None or threading.active_count() == 1)
    )


class ForkedSectionLost(RuntimeError):
    """The forked child ended without sending its checks."""


def _run_forked(sections: list, forked: int) -> list:
    """Every section's checks in order, `sections[forked]` run in a forked
    child while this process runs the others.  The child pickles (True,
    checks) or (False, exception) into a pipe and leaves by `os._exit`, so it
    writes nothing to stdout and runs no exit handler; the exception is
    raised here.  The child is always reaped, and killed first when this
    process's own sections raise.  When no process can be forked, every
    section runs here."""
    import gc
    import pickle

    read_fd, write_fd = os.pipe()
    gc.freeze()  # the collector then leaves the shared objects' pages uncopied
    try:
        pid = os.fork()
    except OSError:
        gc.unfreeze()
        os.close(read_fd)
        os.close(write_fd)
        return [c for section in sections for c in section()]
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, sections[forked]())
            except Exception as err:
                payload = (False, err)
            with open(write_fd, "wb") as pipe:
                pickle.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with open(read_fd, "rb") as pipe:
        try:
            parts = [[] if k == forked else section() for k, section in enumerate(sections)]
            data = pipe.read()
        except BaseException:
            os.kill(pid, 9)  # SIGKILL: its checks are no longer wanted
            raise
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            gc.unfreeze()
    if status != 0 or not data:
        import signal

        how = f"killed by {signal.Signals(-status).name}" if status < 0 else f"exit status {status}"
        raise ForkedSectionLost(f"the child process checking a section ended without a result ({how})")
    ok, result = pickle.loads(data)
    if not ok:
        raise result
    parts[forked] = result
    return [c for part in parts for c in part]


def cmd_verify(args, module) -> int:
    if args.check in A1_ONLY_CHECKS and args.family != "a1":
        return _fail_usage(f"check {args.check!r} only applies to family a1")
    try:
        report = _verification_report(args.family, args.rank, args.level, args.check)
    except ForkedSectionLost as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    header = (
        f"== adjcrys verify family={args.family} rank={args.rank}"
        f" level={args.level} check={args.check} ==\n"
    )
    written = _write_output([header + render_report(report)], args.out)
    return written or (0 if all_passed(report) else 1)


def _parse_start(args, module):
    """The value `--start` names: highest-of, coordinates in model order, or
    an element id, whose `=` fields are the coordinates in the same order."""
    n, l = args.rank, args.level
    text = args.start.strip()
    if text == "highest-of":
        return module.highest(n, l, args.k if args.k is not None else l)
    fields = [field.split(";")[0] for field in text.split("=")[1:]] or [text.strip("()")]
    try:
        coords = tuple(integer(part) for field in fields for part in field.split(","))
    except ValueError:
        raise ValueError(f"cannot parse coordinates from {args.start!r}")
    size = {"a1": 2 * n + 2, "c1": 2 * n, "d2": 2 * n + 1}[args.family]
    if len(coords) != size:
        raise ValueError(f"expected {size} coordinates, got {len(coords)}")
    value = (coords[:n + 1], coords[n + 1:]) if args.family == "a1" else coords
    if not module.KERNEL.contains(value, l):
        raise ValueError(f"coordinates do not describe a level-{l} element")
    if "=" in text and module.KERNEL.element_id(value, n) != text:
        raise ValueError(f"{args.start!r} is not the id of a {args.family} rank-{n} element")
    return value


def _format_value(b) -> str:
    """The `(coords)` line of a value; a pair (x, y) prints x then y."""
    coords = b[0] + b[1] if isinstance(b[0], tuple) else b
    return "(" + ",".join(map(str, coords)) + ")"


def _parse_word(text: str, n: int) -> list[tuple[str, int]]:
    """The operators of a word such as "f0 f1 e2", each index in 0..n."""
    ops = []
    for token in text.split():
        digits = token[1:]  # ASCII only: str.isdigit() also takes '²' and '٣'
        if token[0] not in ("e", "f") or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse operator token {token!r}")
        i = int(digits)
        if i > n:
            raise ValueError(f"operator index {i} out of range 0..{n}")
        ops.append((token[0], i))
    return ops


def cmd_apply(args, module) -> int:
    try:
        current = _parse_start(args, module)
        ops = _parse_word(args.word, args.rank)
    except ValueError as err:
        return _fail_usage(str(err))
    kernel = module.KERNEL
    lines = [_format_value(current)]
    for direction, i in ops:
        current = getattr(kernel, direction)(current, i, args.level)
        if current is None:
            lines.append("0")
            break
        lines.append(_format_value(current))
    return _write_output(["\n".join(lines) + "\n"], args.out)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", required=True, choices=tuple(FAMILIES))
    parser.add_argument("--rank", required=True, type=integer,
                        help="classical rank n (>= 1; >= 2 for c1)")
    parser.add_argument("--level", required=True, type=integer, help="level l (>= 0)")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument(
        "--force", action="store_true",
        help=f"graph or verify crystals larger than {SIZE_LIMIT} elements",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adjcrys",
        description="Adjoint-type affine crystals: graphs, verification, operator words.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="export the crystal graph")
    _add_common(graph)
    graph.add_argument("--component", type=integer, default=None,
                       help="restrict to one classical component (labels 1..n only)")
    graph.add_argument("--format", choices=("dot", "json"), default="json")
    graph.set_defaults(func=cmd_graph)

    verify = sub.add_parser("verify", help="run the exhaustive structure checks")
    _add_common(verify)
    verify.add_argument("--check", choices=CHECK_NAMES, default="all")
    verify.set_defaults(func=cmd_verify)

    apply_ = sub.add_parser("apply", help="apply a word of operators to an element")
    _add_common(apply_)
    apply_.add_argument(
        "--start", required=True,
        help="comma-separated coordinates in model order, an element id as failure"
             " messages print it, or the token highest-of",
    )
    apply_.add_argument("--word", default="", help='operator word, e.g. "f0 f1 e2"')
    apply_.add_argument("--k", type=integer, default=None,
                        help="component for highest-of (default: the level)")
    apply_.set_defaults(func=cmd_apply)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    module = family_module(args.family)
    return _check_bounds(args, module) or args.func(args, module)


if __name__ == "__main__":
    sys.exit(main())
