"""Classical measurement model for simultaneous multi-qubit readout.

Readout errors are described by a column-stochastic assignment matrix R whose
column j gives the distribution of assigned outcomes when the qubits were
prepared in computational basis state j.  Correction inverts R on measured
probability vectors; sampling draws multinomial shots from R·p_true.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
import warnings
from dataclasses import dataclass

import numpy as np

from cavitysim.errors import ValidationError

# Column deviations from unit sum below this are silently renormalized (they
# arise from rounding, e.g. percent entries quoted to one decimal); larger
# deviations trigger a warning before renormalization.
_QUIET_COLUMN_TOL = 5e-3
_MAX_COLUMN_DEVIATION = 0.5
_SINGULAR_COND = 1e12


@dataclass(frozen=True)
class AssignmentMatrix:
    """Column-stochastic matrix of assignment probabilities for n qubits: a
    square R whose side is 2ⁿ.

    Column index: prepared computational basis state (first qubit is the most
    significant bit).  Row index: assigned outcome.
    """

    R: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.R, dtype=float)
        side = len(r) if r.ndim == 2 and r.shape[0] == r.shape[1] else 0
        if side < 1 or side & (side - 1):
            raise ValidationError(f"assignment matrix of shape {r.shape} is not square with a power-of-2 side")
        if np.any(r < 0):
            raise ValidationError("assignment probabilities may not be negative")
        sums = r.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > 1e-6:
            raise ValidationError(
                "assignment matrix columns must sum to 1 within 1e-6 "
                "(use load_assignment to renormalize raw tables)"
            )
        if self.condition_number > _SINGULAR_COND:
            raise ValidationError("assignment matrix is singular")
        r.setflags(write=False)
        object.__setattr__(self, "R", r)

    @property
    def dim(self) -> int:
        return len(self.R)

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @property
    def condition_number(self) -> float:
        return float(np.linalg.cond(np.asarray(self.R, dtype=float)))

    @property
    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.R)

    def outcome_labels(self) -> list[str]:
        return [format(i, f"0{self.n_qubits}b") for i in range(self.dim)]


def load_assignment(table) -> AssignmentMatrix:
    """Validate a raw assignment table (probabilities, columns ≈ stochastic).

    Columns whose sums deviate from 1 are renormalized; deviations beyond
    rounding noise emit a warning, and gross deviations are rejected.
    """
    r = np.asarray(table, dtype=float)
    sums = r.sum(axis=0) if r.ndim == 2 else 1.0  # AssignmentMatrix refuses any other shape
    if np.any(sums <= 0):
        raise ValidationError("assignment table has a column whose sum is not positive")
    dev = np.max(np.abs(sums - 1.0), initial=0.0)
    if dev > _MAX_COLUMN_DEVIATION:
        raise ValidationError(
            f"assignment table columns deviate from unit sum by {dev:.3f}"
        )
    if dev > _QUIET_COLUMN_TOL:
        warnings.warn(
            f"renormalizing assignment columns (worst sum deviation {dev:.3f})",
            stacklevel=2,
        )
    return AssignmentMatrix(r / sums)


def load_assignment_csv(text: str) -> AssignmentMatrix:
    """Parse a labeled CSV table (rows 000..111, columns ggg..eee).

    Entries quoted in percent (columns summing to ≈100) are converted to
    probabilities automatically.
    """
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if len(rows) < 2:
        raise ValidationError("assignment CSV has no data rows")
    header = [c.strip() for c in rows[0][1:]]
    n = len(header[0]) if header else 0
    if n < 1 or any(sorted(set(lab)) not in (["g"], ["e"], ["e", "g"]) for lab in header):
        raise ValidationError("assignment CSV column labels must use g/e letters")
    expected_cols = [
        "".join("ge"[b] for b in map(int, format(i, f"0{n}b"))) for i in range(2**n)
    ]
    if header != expected_cols:
        raise ValidationError(f"assignment CSV columns must be {expected_cols}")
    expected_rows = [format(i, f"0{n}b") for i in range(2**n)]
    labels = [row[0].strip() for row in rows[1:]]
    if labels != expected_rows:
        raise ValidationError(f"assignment CSV rows must be {expected_rows}")
    r = np.zeros((2**n, 2**n))
    for i, (label, row) in enumerate(zip(labels, rows[1:])):
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            values = []
        if len(values) != 2**n:
            raise ValidationError(f"assignment CSV row {label} needs {2**n} numbers, got {row[1:]}")
        r[i] = values
    if np.all(np.abs(r.sum(axis=0) - 100.0) < 100.0 * _MAX_COLUMN_DEVIATION):
        r = r / 100.0
    return load_assignment(r)


def default_assignment() -> AssignmentMatrix:
    """Bundled three-qubit assignment matrix for the simulated device."""
    text = (
        importlib.resources.files("cavitysim.data")
        .joinpath("three_qubit_assignment.csv")
        .read_text()
    )
    return load_assignment_csv(text)


def _check_probability_vector(p, dim: int) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.shape != (dim,):
        got = f"{p.size} entries" if p.ndim == 1 else f"shape {p.shape}"
        raise ValidationError(f"probability vector has {got}, matrix expects {dim}")
    if not np.all(np.isfinite(p)):
        raise ValidationError("probabilities must be finite")
    if np.any(p < -1e-12):
        raise ValidationError("probabilities may not be negative")
    if abs(p.sum() - 1.0) > 1e-6:
        raise ValidationError("probabilities must sum to 1 within 1e-6")
    return np.clip(p, 0.0, None)


def project_to_simplex(v) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.arange(1, v.size + 1)
    rho = np.max(k[u - css / k > 0])
    theta = css[rho - 1] / rho
    return np.clip(v - theta, 0.0, None)


def correct_readout(p_measured, R: AssignmentMatrix, project: bool = False):
    """Invert the assignment channel: p_corr = R⁻¹·p_measured.

    In raw mode the result can have (informative) negative components but
    always sums to 1; with project=True it is additionally projected onto the
    probability simplex.
    """
    p = _check_probability_vector(p_measured, R.dim)
    corrected = np.linalg.solve(R.R, p)
    if project:
        return project_to_simplex(corrected)
    return corrected


def sample_assignment(p_true, R: AssignmentMatrix, shots: int, seed: int):
    """Seeded multinomial draw of assigned-outcome counts from R·p_true."""
    if shots <= 0:
        raise ValidationError("shots must be positive")
    p = _check_probability_vector(p_true, R.dim)
    assigned = R.R @ p
    assigned = assigned / assigned.sum()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, assigned)
