"""JSON model and schedule documents, plus the canonical report writer.

The on-disk format is plain JSON; ``docs/model_schema.md`` defines both
documents field by field. Parsing reports the offending field path in every
diagnostic. Serialisation emits matrices entry by entry with Python float
repr, so a round trip through ``to_document`` and ``from_document``
reproduces every coefficient matrix bit for bit.

Reports are rendered with a canonical writer (insertion-ordered keys,
floats at 17 significant digits) so identical analyses produce identical
bytes, modulo the wall-time field.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from . import hamiltonians as ham
from .chain import ChainSpec, build_chain
from .evolution import ControlModel, ControlSchedule
from .hamiltonians import QuadraticHamiltonian

__all__ = [
    "DocumentError",
    "ModelDocument",
    "ScheduleDocument",
    "render_report",
    "write_report",
    "file_digest",
    "data_digest",
]


class DocumentError(ValueError):
    """Invalid document content; the message names the offending field."""


def _err(path: str, message: str) -> DocumentError:
    return DocumentError(f"{path}: {message}")


def _get(data: dict, key: str, path: str) -> Any:
    if key not in data:
        raise _err(path, f"missing required field {key!r}")
    return data[key]


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_number(value: Any, path: str) -> float:
    if not _is_number(value):
        raise _err(path, f"expected a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:  # JSON integers are unbounded
        raise _err(
            path, "expected a number within the double range, got a larger integer"
        ) from None


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _err(path, f"expected an integer, got {type(value).__name__}")
    return value


def _as_matrix(value: Any, dim: int, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != dim:
        raise _err(path, f"expected a {dim} x {dim} matrix (list of {dim} rows)")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise _err(f"{path}[{i}]", f"expected a row of {dim} numbers")
        rows.append([_as_number(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return np.array(rows)


def _load_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


_TERM_KINDS = ("number", "hop", "pair", "squeeze", "generic")


def _parse_term(data: Any, n: int, path: str) -> ham.HamiltonianTerm:
    if not isinstance(data, dict):
        raise _err(path, "expected an object")
    kind = _get(data, "kind", path)
    if kind not in _TERM_KINDS:
        raise _err(f"{path}.kind", f"unknown term kind {kind!r} (expected one of {', '.join(_TERM_KINDS)})")
    try:
        if kind in ("number", "squeeze"):
            mode = _as_int(_get(data, "mode", path), f"{path}.mode")
            coeff = _as_number(_get(data, "coeff", path), f"{path}.coeff")
            return ham.number(mode, coeff) if kind == "number" else ham.squeeze(mode, coeff)
        if kind in ("hop", "pair"):
            modes = _get(data, "modes", path)
            if not isinstance(modes, list) or len(modes) != 2:
                raise _err(f"{path}.modes", "expected a list of two mode indices")
            j = _as_int(modes[0], f"{path}.modes[0]")
            k = _as_int(modes[1], f"{path}.modes[1]")
            coeff = _as_number(_get(data, "coeff", path), f"{path}.coeff")
            return ham.hop(j, k, coeff) if kind == "hop" else ham.pair(j, k, coeff)
        return ham.generic(_as_matrix(_get(data, "matrix", path), 2 * n, f"{path}.matrix"))
    except DocumentError:
        raise
    except ValueError as exc:
        raise _err(path, str(exc)) from exc


_CHAIN_KEYS = {"n", "omega", "g1", "g2", "omega1", "chi"}


@dataclass(frozen=True, eq=False)
class ModelDocument:
    """A parsed control model: named Hamiltonians plus drift/control roles."""

    modes: int
    hamiltonians: dict[str, QuadraticHamiltonian]
    drift: str
    controls: tuple[str, ...]

    @classmethod
    def from_document(cls, data: Any) -> "ModelDocument":
        if not isinstance(data, dict):
            raise DocumentError("model document: expected a top-level object")

        if "chain" in data:
            extra = set(data) - {"chain"}
            if extra:
                raise _err("chain", f"chain shorthand excludes other top-level fields, found {sorted(extra)}")
            raw = data["chain"]
            if not isinstance(raw, dict):
                raise _err("chain", "expected an object")
            unknown = set(raw) - _CHAIN_KEYS
            if unknown:
                raise _err("chain", f"unknown fields {sorted(unknown)}")
            kwargs = {"n": _as_int(_get(raw, "n", "chain"), "chain.n")}
            for key in sorted(_CHAIN_KEYS - {"n"}):
                if key in raw:
                    kwargs[key] = _as_number(raw[key], f"chain.{key}")
            try:
                spec = ChainSpec(**kwargs)
            except ValueError as exc:
                raise _err("chain", str(exc)) from exc
            model = build_chain(spec)
            named = {"H0": model.drift, "H1": model.controls[0], "H2": model.controls[1]}
            return cls(modes=spec.n, hamiltonians=named, drift="H0", controls=("H1", "H2"))

        n = _as_int(_get(data, "modes", "model"), "modes")
        if n < 1:
            raise _err("modes", f"must be a positive integer, got {n}")
        entries = _get(data, "hamiltonians", "model")
        if not isinstance(entries, list) or not entries:
            raise _err("hamiltonians", "expected a nonempty list")
        named: dict[str, QuadraticHamiltonian] = {}
        for i, entry in enumerate(entries):
            path = f"hamiltonians[{i}]"
            if not isinstance(entry, dict):
                raise _err(path, "expected an object")
            name = _get(entry, "name", path)
            if not isinstance(name, str) or not name:
                raise _err(f"{path}.name", "expected a nonempty string")
            if name in named:
                raise _err(f"{path}.name", f"duplicate Hamiltonian name {name!r}")
            has_terms, has_matrix = "terms" in entry, "matrix" in entry
            if has_terms == has_matrix:
                raise _err(path, "exactly one of 'terms' or 'matrix' is required")
            if has_terms:
                terms_raw = entry["terms"]
                if not isinstance(terms_raw, list):
                    raise _err(f"{path}.terms", "expected a list")
                terms = [
                    _parse_term(t, n, f"{path}.terms[{j}]") for j, t in enumerate(terms_raw)
                ]
                try:
                    named[name] = ham.from_terms(n, terms, label=name)
                except ValueError as exc:
                    raise _err(f"{path}.terms", str(exc)) from exc
            else:
                A = _as_matrix(entry["matrix"], 2 * n, f"{path}.matrix")
                try:
                    named[name] = QuadraticHamiltonian(n=n, A=A, label=name)
                except ValueError as exc:
                    raise _err(f"{path}.matrix", str(exc)) from exc

        drift = _get(data, "drift", "model")
        if drift not in named:
            raise _err("drift", f"unknown Hamiltonian name {drift!r}")
        controls_raw = _get(data, "controls", "model")
        if not isinstance(controls_raw, list):
            raise _err("controls", "expected a list of Hamiltonian names")
        for i, c in enumerate(controls_raw):
            if c not in named:
                raise _err(f"controls[{i}]", f"unknown Hamiltonian name {c!r}")
        return cls(modes=n, hamiltonians=named, drift=drift, controls=tuple(controls_raw))

    @classmethod
    def from_path(cls, path) -> "ModelDocument":
        return cls.from_document(_load_json(path))

    def hamiltonian(self, name: str) -> QuadraticHamiltonian:
        if name not in self.hamiltonians:
            known = ", ".join(self.hamiltonians)
            raise DocumentError(f"unknown Hamiltonian name {name!r} (model defines: {known})")
        return self.hamiltonians[name]

    def control_model(self) -> ControlModel:
        return ControlModel(
            drift=self.hamiltonians[self.drift],
            controls=tuple(self.hamiltonians[c] for c in self.controls),
        )

    def to_document(self) -> dict:
        return {
            "modes": self.modes,
            "hamiltonians": [
                {"name": name, "matrix": [[float(x) for x in row] for row in H.A]}
                for name, H in self.hamiltonians.items()
            ],
            "drift": self.drift,
            "controls": list(self.controls),
        }


_NUMBER_TYPES = {int, float}  # exact types, so bool is not a number here


def _schedule_columns(raw: list) -> Optional[np.ndarray]:
    """The (k, 1 + m) array of a regular ``segments`` list, or None.

    Regular means every entry is an object with a number ``duration`` and a
    ``controls`` list of numbers, all lists of one length, and every number
    within the double range. Anything else is None, for
    :func:`_parse_schedule` to diagnose entry by entry.
    """
    if not set(map(type, raw)) <= {dict}:
        return None
    try:
        durations = [entry["duration"] for entry in raw]
        controls = [entry["controls"] for entry in raw]
    except KeyError:
        return None
    if not (set(map(type, durations)) <= _NUMBER_TYPES and set(map(type, controls)) <= {list}):
        return None
    m = len(controls[0]) if controls else 0
    if not (set(map(len, controls)) <= {m}
            and set(map(type, itertools.chain.from_iterable(controls))) <= _NUMBER_TYPES):
        return None
    segments = np.empty((len(raw), 1 + m))
    try:
        segments[:, 0] = durations
        segments[:, 1:] = controls
    except OverflowError:  # an integer beyond the double range
        return None
    return segments


def _parse_schedule(raw: list) -> ControlSchedule:
    """The schedule of a ``segments`` list.

    A regular list is read as columns (:func:`_schedule_columns`); any other
    is checked entry by entry, which names the first offending field. The
    value checks (positive durations, finite controls, one control count)
    are the schedule's own.
    """
    segments = _schedule_columns(raw)
    if segments is None:
        pairs = []
        for i, entry in enumerate(raw):
            path = f"segments[{i}]"
            if not isinstance(entry, dict):
                raise _err(path, "expected an object")
            duration = _as_number(_get(entry, "duration", path), f"{path}.duration")
            values = _get(entry, "controls", path)
            if not isinstance(values, list):
                raise _err(f"{path}.controls", "expected a list of numbers")
            values = [_as_number(v, f"{path}.controls[{j}]") for j, v in enumerate(values)]
            pairs.append((duration, values))
    try:
        if segments is None:
            return ControlSchedule.from_pairs(pairs)
        return ControlSchedule(segments)
    except ValueError as exc:  # its message already names segments[i]
        raise DocumentError(str(exc)) from exc


@dataclass(frozen=True, eq=False)
class ScheduleDocument:
    """A parsed control schedule, with an optional initial covariance."""

    schedule: ControlSchedule
    initial_covariance: Optional[np.ndarray] = None

    @classmethod
    def from_document(cls, data: Any) -> "ScheduleDocument":
        if not isinstance(data, dict):
            raise DocumentError("schedule document: expected a top-level object")
        raw = _get(data, "segments", "schedule")
        if not isinstance(raw, list):
            raise _err("segments", "expected a list")
        schedule = _parse_schedule(raw)
        sigma = None
        if "initial_covariance" in data:
            rows = data["initial_covariance"]
            if not isinstance(rows, list) or not rows:
                raise _err("initial_covariance", "expected a nonempty matrix")
            sigma = _as_matrix(rows, len(rows), "initial_covariance")
        return cls(schedule=schedule, initial_covariance=sigma)

    @classmethod
    def from_path(cls, path) -> "ScheduleDocument":
        return cls.from_document(_load_json(path))

    def to_document(self) -> dict:
        doc: dict = {
            "segments": [
                {"duration": row[0], "controls": row[1:]}
                for row in self.schedule.segments.tolist()
            ]
        }
        if self.initial_covariance is not None:
            doc["initial_covariance"] = [
                [float(x) for x in row] for row in self.initial_covariance
            ]
        return doc


# ---------------------------------------------------------------------------
# canonical report rendering: floats at 17 significant digits, keys in
# insertion order, so identical analyses give byte-identical reports
# ---------------------------------------------------------------------------


def _render(value: Any, indent: int, out: list) -> None:
    pad = "  " * indent
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        v = float(value)
        if not np.isfinite(v):
            raise ValueError(f"report values must be finite, got {v}")
        out.append(format(v, ".17g"))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.append(f"{pad}  {json.dumps(str(k))}: ")
            _render(v, indent + 1, out)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        seq = list(value)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            _render(v, indent + 1, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot render {type(value).__name__} in a report")


def render_report(report: dict) -> str:
    out: list = []
    _render(report, 0, out)
    out.append("\n")
    return "".join(out)


def write_report(report: dict, out_path: Optional[str] = None) -> str:
    text = render_report(report)
    if out_path is None:
        print(text, end="")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def data_digest(data: Any) -> str:
    """Digest of an in-memory document through its canonical rendering."""
    return "sha256:" + hashlib.sha256(render_report(data).encode()).hexdigest()
