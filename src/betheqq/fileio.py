"""File formats (JSON documents) and reports for batch use.

Scalars serialize as exact strings, never binary floats: rationals as
"p/q", numeric values as decimal strings carrying the full stored
precision, complex values as two-element arrays [re, im].  Documents are
rendered with sorted keys and fixed separators so reports are byte-stable
under re-runs (timestamps excluded).
"""

from __future__ import annotations

import json
import zlib
from typing import Any

from .backlund import ChainTrace, CombinatorialDatum
from .bethe import BetheRoots, InfinitePartition
from .errors import ParseError
from .opermat import RatMatrix
from .polyalg import Poly, RationalFn
from .qqcore import QQInstance, QQSolution
from .rootsys import CartanType, WeylWord, is_reduced
from .scalars import Field, NumericField, make_field


def scalar_to_doc(field: Field, x) -> Any:
    return field.to_literal(field(x))


def poly_to_doc(field: Field, p: Poly) -> list:
    return [scalar_to_doc(field, c) for c in p.coeffs]


def _array(doc, name: str) -> list:
    """``doc`` itself, which must be a JSON array: a string is refused, not
    read character by character."""
    if not isinstance(doc, list):
        raise ParseError(f"{name} must be a JSON array, not {type(doc).__name__}")
    return doc


def _integer(doc, name: str) -> int:
    """``doc`` as an int; ``true`` or a number with a fraction is refused, not truncated."""
    if isinstance(doc, bool) or (isinstance(doc, float) and not doc.is_integer()):
        raise ParseError(f"{name} must be an integer, not {json.dumps(doc)}")
    return int(doc)


def _read(what: str, build):
    """``build()``; a missing key or a value of the wrong type or range in
    the document it reads is a ``ParseError``, "bad ``what`` document"."""
    try:
        return build()
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {what} document: {exc}") from exc


def poly_from_doc(field: Field, doc) -> Poly:
    return Poly.make(field, [field(c) for c in _array(doc, "polynomial")])


def rational_to_doc(field: Field, r: RationalFn) -> dict:
    return {"num": poly_to_doc(field, r.num), "den": poly_to_doc(field, r.den)}


# -- instance ---------------------------------------------------------------


def field_from_doc(doc: dict) -> Field:
    backend = doc.get("backend", "exact")
    precision = _integer(doc.get("precision_bits", 256), "'precision_bits'")
    tols = doc.get("tolerances") or {}
    if not isinstance(tols, dict):
        raise TypeError(f"'tolerances' must be an object, not {type(tols).__name__}")
    return make_field(backend, precision, tau=tols.get("tau"), tau_root=tols.get("tau_root"))


def instance_from_doc(doc: dict) -> QQInstance:
    def build():
        field = field_from_doc(doc)
        ctype = CartanType(doc["cartan"]["family"], _integer(doc["cartan"]["rank"], "'rank'"))
        points = [(p["z"], [_integer(w, "'weights' entry") for w in _array(p["weights"], "'weights'")])
                  for p in doc.get("points", [])]
        twist = _array(doc["twist"], "'twist'")
        lead = doc.get("lead")
        if lead is not None:
            lead = _array(lead, "'lead'")
        extra_doc = doc.get("extra")
        extra = None
        if extra_doc is not None:
            extra = [poly_from_doc(field, e) if e is not None else None for e in extra_doc]
        return QQInstance.make(ctype, field, points, twist, lead=lead, extra=extra)
    return _read("instance", build)


def instance_to_doc(inst: QQInstance) -> dict:
    field = inst.field
    doc = {
        "backend": field.backend,
        "cartan": {"family": inst.ctype.family, "rank": inst.ctype.rank},
        "points": [{"z": scalar_to_doc(field, z), "weights": list(exps)}
                   for z, exps in inst.points],
        "twist": [scalar_to_doc(field, z) for z in inst.twist.zeta],
        "lead": [scalar_to_doc(field, x) for x in inst.lead],
    }
    if isinstance(field, NumericField):
        doc["precision_bits"] = field.precision
    if any(e is not None for e in inst.extra):
        doc["extra"] = [poly_to_doc(field, e) if e is not None else None for e in inst.extra]
    return doc


def instance_digest(inst: QQInstance) -> str:
    blob = canonical_json(instance_to_doc(inst)).encode()
    return f"{zlib.crc32(blob):08x}"


# -- solutions, roots, partitions, traces, matrices --------------------------


def solution_to_doc(field: Field, sol: QQSolution) -> dict:
    return {
        "q_plus": [poly_to_doc(field, p) for p in sol.q_plus],
        "q_minus": [poly_to_doc(field, p) for p in sol.q_minus],
    }


def solution_from_doc(field: Field, doc: dict) -> QQSolution:
    return _read("solution", lambda: QQSolution.make([poly_from_doc(field, p) for p in doc["q_plus"]],
                                                     [poly_from_doc(field, p) for p in doc["q_minus"]]))


def roots_to_doc(field: Field, roots: BetheRoots) -> dict:
    sorted_roots = roots.canonical(field)
    return {"roots": [[scalar_to_doc(field, w) for w in color] for color in sorted_roots.roots]}


def _colors(doc, name: str) -> list:
    """One JSON array of scalar literals per color."""
    return [_array(c, f"{name} color") for c in _array(doc, name)]


def roots_from_doc(field: Field, doc: dict) -> BetheRoots:
    return _read("roots", lambda: BetheRoots.make(field, _colors(doc["roots"], "'roots'")))


def partition_from_doc(field: Field, doc: dict) -> InfinitePartition:
    return _read("partition", lambda: InfinitePartition.make(field, _colors(doc["partition"], "'partition'")))


def trace_to_doc(trace: ChainTrace) -> dict:
    field = trace.initial_instance.field
    steps = []
    for step in trace.steps:
        steps.append({
            "index": step.index,
            "twist": [scalar_to_doc(field, z) for z in step.instance.twist.zeta],
            "lead": [scalar_to_doc(field, x) for x in step.instance.lead],
            "mu": rational_to_doc(field, step.mu),
            "solution": solution_to_doc(field, step.solution),
            "generic": step.generic,
        })
    return {
        "word": list(trace.word.letters),
        "initial": {
            "instance": instance_to_doc(trace.initial_instance),
            "solution": solution_to_doc(field, trace.initial_solution),
        },
        "steps": steps,
        "fully_generic": trace.fully_generic,
    }


def matrix_to_doc(field: Field, mat: RatMatrix) -> dict:
    return {"entries": [[rational_to_doc(field, e) for e in row] for row in mat.entries]}


def word_from_arg(text, ctype: CartanType, longest: bool = False) -> WeylWord:
    """A reduced word of ``ctype`` from "1,2,1"; with ``longest``, one as
    long as the longest element."""
    try:
        word = WeylWord.make(str(text).replace(",", " ").split(), ctype.rank)
    except ValueError as exc:
        raise ParseError(f"bad word {text!r}: {exc}") from None
    if not is_reduced(word, ctype.cartan):
        raise ParseError(f"word {text!r} is not reduced")
    if longest and len(word) != ctype.n_positive_roots:
        raise ParseError(f"word {text!r} needs {ctype.n_positive_roots} letters for the longest element")
    return word


def degrees_from_arg(values, rank: int, name: str = "--degrees") -> tuple:
    """One integer per color, from "1,2" or a sequence."""
    try:
        items = values.replace(",", " ").split() if isinstance(values, str) else values
        out = tuple(_integer(x, name) for x in items)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad {name} {values!r}: {exc}") from None
    if len(out) != rank:
        raise ParseError(f"{name} needs {rank} entries, one per color, got {len(out)}")
    return out


def datum_from_doc(doc: dict) -> tuple[CartanType, CombinatorialDatum]:
    """The type and combinatorial datum of a bare datum document."""
    def build():
        ctype = CartanType(doc["cartan"]["family"], _integer(doc["cartan"]["rank"], "'rank'"))
        return ctype, CombinatorialDatum(degrees_from_arg(doc["d"], ctype.rank, "d"),
                                         degrees_from_arg(doc["N"], ctype.rank, "N"))
    return _read("datum", build)


# -- reports ----------------------------------------------------------------


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


class Report:
    """Accumulates named checks and artifacts for one command run."""

    def __init__(self, command: str, inst: QQInstance | None = None, seed=None):
        self.doc: dict = {"command": command, "checks": [], "artifacts": {}}
        if inst is not None:
            self.doc["instance_digest"] = instance_digest(inst)
        if seed is not None:
            self.doc["seed"] = seed

    def check(self, name: str, ok: bool | None, residual: str | None = None) -> None:
        entry: dict = {"name": name, "pass": ok}
        if residual is not None:
            entry["residual"] = residual
        self.doc["checks"].append(entry)

    def artifact(self, name: str, value) -> None:
        self.doc["artifacts"][name] = value

    @property
    def all_pass(self) -> bool:
        return all(c["pass"] for c in self.doc["checks"] if c["pass"] is not None)

    def finish(self, wall_time_s: float | None = None) -> dict:
        if wall_time_s is not None:
            self.doc["wall_time_s"] = round(wall_time_s, 6)
        self.doc["pass"] = self.all_pass
        return self.doc
