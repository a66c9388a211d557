"""Oracles shared by the test modules."""

import numpy as np
import pytest

from cavitysim.evolution import segment_propagator
from cavitysim.fock import LinearOp
from cavitysim.grape import control_operator


def _dense_evolve(x, h0, channels, dt, layout):
    """Reference evolution: the time-ordered product over the samples of
    `segment_propagator(diag(h0) + Σ_c (u_c O_c + ū_c O_c†), dt)`, O_c the
    `grape.control_operator` of label c, applied to x, a state vector (dim,)
    or a stack of columns (dim, k).  h0 is the static energy vector; channels
    maps layout labels to equally long sample arrays, so it may drive any
    qubits and cavities, as GRAPE's channels do."""
    ops = {label: control_operator(layout, label) for label in channels}
    n_steps = len(next(iter(channels.values())))
    x = np.asarray(x, dtype=complex)
    for j in range(n_steps):
        h = np.diag(np.asarray(h0, dtype=complex))
        for label, op in ops.items():
            u = channels[label][j]
            h = h + u * op + np.conj(u) * op.conj().T
        x = segment_propagator(LinearOp(layout.space, h), dt) @ x
    return x


def _dense_play(x, h0, pulse, layout):
    """`_dense_evolve` of a `PulseSequence`: its samples on its qubit."""
    return _dense_evolve(x, h0, {pulse.qubit: pulse.samples}, pulse.dt, layout)


@pytest.fixture(scope="session")
def dense_evolve():
    """The dense per-sample reference evolution, `_dense_evolve`."""
    return _dense_evolve


@pytest.fixture(scope="session")
def dense_play():
    """The dense reference evolution of a pulse, `_dense_play`."""
    return _dense_play
