"""Truncated-Fock-space simulator for geometric phase gates on bosonic logical qubits."""

from cavitysim.fock import (
    ModeSpec,
    CompositeSpace,
    LinearOp,
    Ket,
    DensityOp,
    annihilation,
    number_op,
    parity_op,
    displacement,
    coherent,
    fock_ket,
    tensor,
    embed,
    expectation,
    partial_trace,
    recommended_dim,
)

__all__ = [
    "ModeSpec",
    "CompositeSpace",
    "LinearOp",
    "Ket",
    "DensityOp",
    "annihilation",
    "number_op",
    "parity_op",
    "displacement",
    "coherent",
    "fock_ket",
    "tensor",
    "embed",
    "expectation",
    "partial_trace",
    "recommended_dim",
]
