"""Command-line driver: verify / solve / chain / admissible / fold / diagonalize.

Exit codes: 0 all checks pass, 1 a check failed, 2 input error,
3 solver non-convergence.  Reports are JSON on stdout; solver iteration
records stream to stderr as JSON lines.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

from . import fileio
from .backlund import CombinatorialDatum, chain, check_admissible
from .bethe import BetheRoots, SolveOptions, seed_and_continue, solve_newton, verify_bethe, roots_to_solution
from .errors import (
    BadPartition,
    BetheqqError,
    ChainBroken,
    FactorizationFailed,
    InconsistentSystem,
    InvalidCartanType,
    NoConvergence,
    ParseError,
    PathCollision,
    SingularJacobian,
)
from .polyalg import roots as poly_roots
from .opermat import diagonalize_type_a, regularity_residues, verify_mp_twist
from .qqcore import check_nondegenerate, equation_holds, fold, qq_residual
from .scalars import residual_repr

EXIT_OK, EXIT_CHECK, EXIT_INPUT, EXIT_SOLVER = 0, 1, 2, 3


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: the document must be a JSON object, not {type(doc).__name__}")
    return doc


def _write_json(path: str | None, doc: dict) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_instance(args, doc: dict | None = None):
    """The instance file ``args.instance``, or its already parsed ``doc``."""
    doc = _load_json(args.instance) if doc is None else doc
    # each flag given edits the document key that sets it
    if args.backend is not None:
        doc["backend"] = args.backend
    if args.precision is not None:
        doc["precision_bits"] = args.precision
    if args.tol is not None:  # a malformed "tolerances" is left for fileio to refuse
        tols = doc.get("tolerances") or {}
        doc["tolerances"] = {**tols, "tau": args.tol} if isinstance(tols, dict) else tols
    return fileio.instance_from_doc(doc)


def _emit_log(records) -> None:
    for rec in records:
        print(json.dumps(rec, sort_keys=True), file=sys.stderr)


def _extract_roots(sol):
    try:
        return BetheRoots(tuple(tuple(poly_roots(p)) for p in sol.q_plus))
    except (ValueError, NotImplementedError):
        return None


def _one_per_color(inst, what: str, got: int) -> None:
    """ParseError unless an input file gave one of ``what`` per color (``got`` of them)."""
    if got != inst.rank:
        raise ParseError(f"{what} needs {inst.rank} entries, one per color, got {got}")


def _load_pair(args):
    """The instance file and the solution file, read in the instance's field."""
    inst = _load_instance(args)
    sol = fileio.solution_from_doc(inst.field, _load_json(args.solution))
    _one_per_color(inst, "solution file 'q_plus'", len(sol.q_plus))
    _one_per_color(inst, "solution file 'q_minus'", len(sol.q_minus))
    for i, p in enumerate(sol.q_plus, start=1):
        if p.is_zero:
            raise ParseError(f"solution file 'q_plus' entry {i} is the zero polynomial")
    return inst, sol


def _out_or_artifact(report, path, name: str, doc) -> None:
    """Write ``doc`` to ``path`` when one is given, else keep it in the report."""
    if path:
        _write_json(path, doc)
    else:
        report.artifact(name, doc)


def _check_equations(inst, sol, report, prefix: str = "") -> None:
    for i in range(1, inst.rank + 1):
        res = qq_residual(inst, sol, i)
        report.check(f"{prefix}qq_residual_{i}", equation_holds(inst, sol, i, res),
                     residual_repr(inst.field, res.norm()))


def _verify_one(inst, sol, report, rts=None) -> None:
    """The checks of ``sol``; the regularity and Bethe checks read the roots
    ``rts``, by default those extracted from q+."""
    field = inst.field
    _check_equations(inst, sol, report)
    nd = check_nondegenerate(inst, sol.q_plus)
    report.check("nondegenerate", nd.ok)
    for i in range(1, inst.rank + 1):
        res = verify_mp_twist(inst, sol, i)
        report.check(f"mp_twist_{i}", field.is_zero(res), residual_repr(field, res))
    rts = _extract_roots(sol) if rts is None else rts
    if rts is None:
        report.check("regularity_residues", None, "skipped: roots not extractable")
        return
    try:
        reg = regularity_residues(inst, sol, rts)
    except BetheqqError as exc:
        report.check("regularity_residues", False, str(exc))
        return
    worst = field.max_abs(list(reg.values()))
    report.check("regularity_residues", field.is_zero(worst), residual_repr(field, worst))
    bet = verify_bethe(inst, rts)
    report.check("bethe_residuals", bet.ok, residual_repr(field, bet.max_residual))


def cmd_verify(args):
    if args.solution is None:
        raise ParseError("verify needs a solution file (or --batch over *.instance.json)")
    inst, sol = _load_pair(args)
    report = fileio.Report("verify", inst)
    _verify_one(inst, sol, report)
    return report, args.out


def cmd_solve(args):
    inst = _load_instance(args)
    field = inst.field
    seed_doc = _load_json(args.start)
    report = fileio.Report("solve", inst, seed=args.seed)
    log: list = []
    if "partition" in seed_doc:
        part = fileio.partition_from_doc(field, seed_doc)
        roots = seed_and_continue(inst, part, SolveOptions(seed=args.seed), log=log)
    elif "roots" in seed_doc:
        start = fileio.roots_from_doc(field, seed_doc)
        _one_per_color(inst, "start file 'roots'", start.rank)
        roots = solve_newton(inst, start, log)
    else:
        raise ParseError("start file needs a 'partition' or 'roots' key")
    _emit_log(log)
    sol = roots_to_solution(inst, roots)
    _verify_one(inst, sol, report, roots)
    report.artifact("roots", fileio.roots_to_doc(field, roots)["roots"])
    sol_doc = fileio.solution_to_doc(field, sol)
    report.artifact("solution", sol_doc)
    if args.out:
        _write_json(args.out, sol_doc)
    return report, None


def cmd_chain(args):
    inst, sol = _load_pair(args)
    word = fileio.word_from_arg(args.word, inst.ctype)
    report = fileio.Report("chain", inst)
    try:
        trace = chain(inst, sol, word)
    except ChainBroken as exc:
        report.check(f"chain_step_{exc.step}", False, str(exc.cause))
        trace = exc.trace  # the steps before the break
    else:
        for n, step in enumerate(trace.steps, start=1):
            report.check(f"step_{n}_s{step.index}_generic", step.generic)
    _out_or_artifact(report, args.out, "trace", fileio.trace_to_doc(trace))
    return report, None


def cmd_admissible(args):
    doc = _load_json(args.instance)
    if "d" in doc and "N" in doc:  # bare combinatorial datum
        ctype, datum = fileio.datum_from_doc(doc)
        report = fileio.Report("admissible")
    else:
        inst = _load_instance(args, doc)
        if args.degrees is None:
            raise ParseError("an instance file needs --degrees d1,d2,... for admissibility")
        ctype = inst.ctype
        datum = CombinatorialDatum.from_instance(inst, fileio.degrees_from_arg(args.degrees, inst.rank))
        report = fileio.Report("admissible", inst)
    adm = check_admissible(datum, fileio.word_from_arg(args.word, ctype), ctype.cartan)
    for pc in adm.prefixes:
        report.check(f"prefix_{pc.prefix}", pc.holds, residual=str(list(pc.degrees)))
    return report, None


def cmd_fold(args):
    inst, sol = _load_pair(args)
    report = fileio.Report("fold", inst)
    new_inst, new_sol = fold(inst, sol)
    _check_equations(new_inst, new_sol, report, prefix="folded_")
    base, ext = os.path.splitext(args.out or "")
    for name, doc in (("instance", fileio.instance_to_doc(new_inst)),
                      ("solution", fileio.solution_to_doc(new_inst.field, new_sol))):
        _out_or_artifact(report, args.out and f"{base}.{name}{ext or '.json'}", name, doc)
    return report, None


def cmd_diagonalize(args):
    inst, sol = _load_pair(args)
    word = fileio.word_from_arg(args.word, inst.ctype, longest=True)
    report = fileio.Report("diagonalize", inst)
    diag = diagonalize_type_a(inst, sol, word)
    field = inst.field
    report.check("conjugation_identity", field.is_zero(diag.residual), residual_repr(field, diag.residual))
    _out_or_artifact(report, args.out, "matrix", fileio.matrix_to_doc(field, diag.v))
    return report, None


def _command(args) -> int:
    """Run the subcommand ``args.fn``, which returns its report and where
    the report goes (a path, or None for stdout); write the report, timed
    over the whole subcommand, and exit 0 when every check passed, else 1."""
    t0 = time.monotonic()
    report, dest = args.fn(args)
    _write_json(dest, report.finish(time.monotonic() - t0))
    return EXIT_OK if report.all_pass else EXIT_CHECK


#: exit code and stderr prefix per error type, first match wins
_FAILURES = (
    ((ParseError, BadPartition, InvalidCartanType), EXIT_INPUT, "input error"),
    ((NoConvergence, SingularJacobian, PathCollision), EXIT_SOLVER, "solver failed"),
    ((InconsistentSystem, ChainBroken, FactorizationFailed), EXIT_CHECK, "check failed"),
    (BetheqqError, EXIT_INPUT, "error"),
)


def _run(fn, args, where: str = "") -> int:
    """Run ``fn(args)``; a package error becomes its exit code and one stderr line."""
    try:
        return fn(args)
    except BetheqqError as exc:
        code, kind = next((c, k) for types, c, k in _FAILURES if isinstance(exc, types))
        print(f"{where}{kind}: {exc}", file=sys.stderr)
        return code


def _run_captured(args) -> tuple:
    """Worker entry: run one batch item with its output buffered, for orderly reports."""
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _run(_command, args, where=f"{args.instance}: ")
    return code, out.getvalue(), err.getvalue()


def _batch(args) -> int:
    paths = sorted(glob.glob(args.instance))
    if not paths:
        raise ParseError(f"batch glob {args.instance!r} matched nothing")
    from concurrent.futures import ProcessPoolExecutor

    codes = []
    with ProcessPoolExecutor() as pool:
        futures = []
        for p in paths:
            sub = argparse.Namespace(**vars(args))
            sub.instance = p
            sub.solution = p.replace(".instance.json", ".solution.json")
            sub.batch = False
            futures.append(pool.submit(_run_captured, sub))
        for f in futures:  # reports print in input order, never interleaved
            code, out, err = f.result()
            codes.append(code)
            sys.stdout.write(out)
            sys.stderr.write(err)
    return max(codes)


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--backend", choices=["exact", "numeric"], default=None,
                        help="override the instance file's scalar backend")
    common.add_argument("--precision", type=int, default=None,
                        help="binary precision for the numeric backend")
    common.add_argument("--tol", default=None,
                        help="the numeric field's tau: solver convergence and every check")

    parser = argparse.ArgumentParser(
        prog="betheqq",
        description="verify, solve, transform, fold, and diagonalize Wronskian "
                    "qq-systems and their Bethe root configurations",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check a solution file against an instance")
    p.add_argument("instance")
    p.add_argument("solution", nargs="?")
    p.add_argument("--out", default=None)
    p.add_argument("--batch", action="store_true",
                   help="treat INSTANCE as a glob of *.instance.json with sibling solutions")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solve", parents=[common], help="solve Bethe equations from a partition or initial roots")
    p.add_argument("instance")
    p.add_argument("start", help="JSON file with a 'partition' or 'roots' key")
    p.add_argument("--out", default=None, help="write the solution file here")
    p.add_argument("--seed", type=int, default=0, help="seed of the continuation's complex detour")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("chain", parents=[common], help="iterate Backlund transformations along a word")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--word", required=True, help="comma-separated reflection indices")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("admissible", parents=[common], help="check the degree inequalities along a word")
    p.add_argument("instance", help="instance file (with --degrees) or bare datum file")
    p.add_argument("--word", required=True)
    p.add_argument("--degrees", default=None)
    p.set_defaults(fn=cmd_admissible)

    p = sub.add_parser("fold", parents=[common], help="fold a B-type or G-type system to its simply-laced shadow")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--out", default=None, help="basename for folded instance/solution files")
    p.set_defaults(fn=cmd_fold)

    p = sub.add_parser("diagonalize", parents=[common], help="type-A diagonalizing gauge along a longest word")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--word", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_diagonalize)

    args = parser.parse_args(argv)
    return _run(_batch if getattr(args, "batch", False) else _command, args)


if __name__ == "__main__":
    sys.exit(main())
