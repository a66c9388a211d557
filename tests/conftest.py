"""Oracles shared by the test modules."""

import numpy as np
import pytest

from cavitysim.device import drive_operator
from cavitysim.evolution import segment_propagator
from cavitysim.fock import LinearOp


def _dense_evolve(x, h0, pulse, layout):
    """Reference evolution: the time-ordered product over the samples of
    `segment_propagator(diag(h0) + Σ_c (u_c O_c + ū_c O_c†), dt)`, O_c the
    drive operator of channel c, applied to x, a state vector (dim,) or a
    stack of columns (dim, k).  h0 is the static energy vector; the pulse may
    drive any qubits and cavities."""
    ops = {ch: drive_operator(layout, ch).matrix for ch in pulse.channels}
    x = np.asarray(x, dtype=complex)
    for j in range(pulse.n_steps):
        h = np.diag(np.asarray(h0, dtype=complex))
        for ch, op in ops.items():
            u = pulse.channels[ch][j]
            h = h + u * op + np.conj(u) * op.conj().T
        x = segment_propagator(LinearOp(layout.space, h), pulse.dt).matrix @ x
    return x


@pytest.fixture(scope="session")
def dense_evolve():
    """The dense per-sample reference evolution, `_dense_evolve`."""
    return _dense_evolve
