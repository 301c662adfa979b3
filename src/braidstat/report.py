"""Uniform result record for all verification checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


@dataclass
class CheckReport:
    """Outcome of one named check.

    ``defect`` is the maximal observed deviation (0 for exact passes);
    ``witness`` localizes a failure (indices, words, grades, ...); ``data``
    carries auxiliary structured results.
    """

    name: str
    status: str
    defect: float = 0.0
    witness: Any = None
    data: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_defect(cls, name: str, defect: float, tol: float,
                    witness: Any = None, data: dict | None = None) -> "CheckReport":
        status = PASS if defect <= tol else FAIL
        return cls(name, status, float(defect), witness, data if data is not None else {})

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "defect": float(self.defect),
            "witness": jsonable(self.witness),
            "data": jsonable(self.data),
        }


def jsonable(value: Any) -> Any:
    """Recursively convert check payloads to JSON-serializable values."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    tolist = getattr(value, "tolist", None)
    if tolist is not None:  # numpy arrays and scalars, read without importing numpy
        return jsonable(tolist())
    # Domain objects: phases and group elements expose exact fields.
    exponent = getattr(value, "exponent", None)
    if isinstance(exponent, Fraction):
        return str(exponent)
    residues = getattr(value, "residues", None)
    if residues is not None:
        return list(residues)
    return str(value)
