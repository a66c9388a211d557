"""Oracles shared by the test modules."""

import numpy as np
import pytest

from cavitysim.device import drive_operator
from cavitysim.evolution import segment_propagator
from cavitysim.fock import LinearOp


def _dense_evolve(x, h0, channels, dt, layout):
    """Reference evolution: the time-ordered product over the samples of
    `segment_propagator(diag(h0) + Σ_c (u_c O_c + ū_c O_c†), dt)`, O_c the
    `drive_operator` of channel c, applied to x, a state vector (dim,) or a
    stack of columns (dim, k).  h0 is the static energy vector; channels maps
    (label, kind) to equally long sample arrays, so it may drive any qubits
    and cavities, as GRAPE's channels do."""
    ops = {ch: drive_operator(layout, ch).matrix for ch in channels}
    n_steps = len(next(iter(channels.values())))
    x = np.asarray(x, dtype=complex)
    for j in range(n_steps):
        h = np.diag(np.asarray(h0, dtype=complex))
        for ch, op in ops.items():
            u = channels[ch][j]
            h = h + u * op + np.conj(u) * op.conj().T
        x = segment_propagator(LinearOp(layout.space, h), dt).matrix @ x
    return x


def _dense_play(x, h0, pulse, layout):
    """`_dense_evolve` of a `PulseSequence`: its samples on its qubit."""
    return _dense_evolve(x, h0, {(pulse.qubit, "qubit"): pulse.samples}, pulse.dt, layout)


@pytest.fixture(scope="session")
def dense_evolve():
    """The dense per-sample reference evolution, `_dense_evolve`."""
    return _dense_evolve


@pytest.fixture(scope="session")
def dense_play():
    """The dense reference evolution of a pulse, `_dense_play`."""
    return _dense_play
