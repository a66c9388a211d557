import numpy as np
import pytest

from cavitysim import grape
from cavitysim.device import SystemLayout, load_params, default_config_text, static_hamiltonian
from cavitysim.errors import ValidationError
from cavitysim.evolution import PulseSequence, evolve_pulse
from cavitysim.fock import CompositeSpace, Ket, LinearOp, fock_ket, qubit_ket, tensor
from cavitysim.grape import (
    DEFAULT_AMPLITUDE_BOUND,
    OptimizerReport,
    TransferTask,
    optimize,
    transfer_fidelity,
    transfer_gradient,
)


def _qubit_task(n_steps=50):
    layout = SystemLayout.build(["Q1"], [], {})
    h0 = LinearOp(layout.space, np.zeros((2, 2), dtype=complex))
    return TransferTask(
        pairs=((qubit_ket(0), qubit_ket(1)),),
        H0=h0,
        layout=layout,
        channels=(("Q1", "qubit"),),
        n_steps=n_steps,
    )


def _dispersive_task(n_steps=10, dim=4):
    params = load_params(default_config_text())
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": dim})
    h0 = LinearOp(layout.space, np.diag(static_hamiltonian(params, layout)))
    init = tensor([qubit_ket(0), fock_ket(layout.mode("S1"), 0)])
    targ = tensor([qubit_ket(1), fock_ket(layout.mode("S1"), 0)])
    init2 = tensor([qubit_ket(1), fock_ket(layout.mode("S1"), 1)])
    targ2 = tensor([qubit_ket(0), fock_ket(layout.mode("S1"), 1)])
    return TransferTask(
        pairs=((init, targ), (init2, targ2)),
        H0=h0,
        layout=layout,
        channels=(("Q1", "qubit"), ("S1", "cavity")),
        n_steps=n_steps,
    )


def _random_pulse(task, seed, scale=0.05):
    rng = np.random.default_rng(seed)
    channels = {
        ch: scale
        * (rng.standard_normal(task.n_steps) + 1j * rng.standard_normal(task.n_steps))
        for ch in task.channels
    }
    return PulseSequence(dt=task.dt, channels=channels)


def test_exact_pi_pulse_has_unit_fidelity():
    task = _qubit_task(n_steps=50)
    # constant Rabi rate ε over 50 ns with ε·T = π
    eps = np.pi / 50.0
    pulse = PulseSequence(channels={("Q1", "qubit"): np.full(50, -1j * eps)})
    f = transfer_fidelity(pulse, task)
    assert f > 1.0 - 1e-12


def test_zero_pulse_orthogonal_states_zero_fidelity():
    task = _qubit_task(n_steps=10)
    pulse = PulseSequence(channels={("Q1", "qubit"): np.zeros(10)})
    assert transfer_fidelity(pulse, task) < 1e-12


def test_fidelity_invariant_under_global_target_phase():
    task = _dispersive_task()
    pulse = _random_pulse(task, 3)
    f1 = transfer_fidelity(pulse, task)
    phase = np.exp(0.7j)
    rotated = TransferTask(
        pairs=tuple(
            (i, Ket(t.space, phase * t.amplitudes)) for i, t in task.pairs
        ),
        H0=task.H0,
        layout=task.layout,
        channels=task.channels,
        n_steps=task.n_steps,
    )
    assert abs(transfer_fidelity(pulse, rotated) - f1) < 1e-12


def test_fidelity_matches_full_pulse_evolution():
    task = _dispersive_task(n_steps=8)
    pulse = _random_pulse(task, 11)
    overlaps = []
    for init, targ in task.pairs:
        out = evolve_pulse(init, np.diag(task.H0.matrix).real, pulse, task.layout)
        overlaps.append(targ.overlap(out))
    f_direct = abs(np.mean(overlaps)) ** 2
    assert abs(transfer_fidelity(pulse, task) - f_direct) < 1e-12


def test_length_mismatch_rejected():
    task = _qubit_task(n_steps=10)
    pulse = PulseSequence(channels={("Q1", "qubit"): np.zeros(9)})
    with pytest.raises(ValidationError):
        transfer_fidelity(pulse, task)


def test_gradient_matches_finite_differences():
    task = _dispersive_task(n_steps=6)
    pulse = _random_pulse(task, 7)
    grad = transfer_gradient(pulse, task)
    h = 1e-6
    for ch in task.channels:
        base = pulse.channels[ch]
        for step in range(0, task.n_steps, 2):
            for direction in (1.0, 1.0j):

                def shifted_fidelity(delta):
                    chans = {k: np.array(v) for k, v in pulse.channels.items()}
                    chans[ch][step] = base[step] + delta
                    return transfer_fidelity(PulseSequence(channels=chans), task)

                fp = shifted_fidelity(h * direction)
                fm = shifted_fidelity(-h * direction)
                fd = (fp - fm) / (2 * h)
                g = grad[ch][step]
                analytic = g.real if direction == 1.0 else g.imag
                assert abs(analytic - fd) < 1e-5 * max(1.0, abs(fd))


def test_gradient_vanishes_at_unit_fidelity():
    task = _qubit_task(n_steps=50)
    eps = np.pi / 50.0
    pulse = PulseSequence(channels={("Q1", "qubit"): np.full(50, -1j * eps)})
    grad = transfer_gradient(pulse, task)
    norm = np.linalg.norm(
        np.concatenate([np.abs(grad[ch]) for ch in task.channels])
    )
    assert norm < 1e-6


def test_no_channels_means_no_gradient():
    layout = SystemLayout.build(["Q1"], [], {})
    h0 = LinearOp(layout.space, np.zeros((2, 2), dtype=complex))
    task = TransferTask(
        pairs=((qubit_ket(0), qubit_ket(0)),),
        H0=h0,
        layout=layout,
        channels=(),
        n_steps=5,
    )
    pulse = PulseSequence(channels={})
    assert transfer_gradient(pulse, task) == {}
    assert transfer_fidelity(pulse, task) == pytest.approx(1.0)


def test_optimize_qubit_pi_pulse():
    task = _qubit_task(n_steps=50)
    pulse, report = optimize(task, max_iters=300, target_fidelity=0.9999, seed=1)
    assert report.final_fidelity >= 0.9999
    assert report.converged
    # the optimized pulse reproduces the reported fidelity
    assert abs(transfer_fidelity(pulse, task) - report.final_fidelity) < 1e-12
    assert np.all(np.abs(pulse.channels[("Q1", "qubit")].real) <= DEFAULT_AMPLITUDE_BOUND + 1e-12)


def test_optimize_target_zero_returns_initial_pulse():
    task = _qubit_task(n_steps=20)
    init = _random_pulse(task, 5)
    pulse, report = optimize(task, target_fidelity=0.0, initial_pulse=init)
    assert report.iterations == 0
    assert np.allclose(pulse.channels[("Q1", "qubit")], init.channels[("Q1", "qubit")])


def test_optimize_monotone_fidelity_history():
    task = _qubit_task(n_steps=30)
    _, report = optimize(task, max_iters=50, target_fidelity=1.1, seed=2)
    hist = np.array(report.fidelity_history)
    assert np.all(np.diff(hist) >= -1e-9)
    assert not report.converged or report.gradient_norms[-1] < 1e-8


def test_fidelity_invariant_under_commuting_rotation():
    task = _dispersive_task(n_steps=6)
    pulse = PulseSequence(
        dt=1.0,
        channels={("Q1", "qubit"): _random_pulse(task, 9).channels[("Q1", "qubit")]},
    )
    # rotation by a cavity-number phase commutes with the dispersive H0 and
    # with the qubit-only drive
    cav = task.layout.mode("S1")
    number_phase = LinearOp(
        CompositeSpace.single(cav),
        np.diag(np.exp(0.31j * np.arange(cav.dim))).astype(complex),
    )
    v = task.layout.lift(number_phase, "S1")
    vmat = v.matrix
    rotated = TransferTask(
        pairs=tuple(
            (Ket(i.space, vmat @ i.amplitudes), Ket(t.space, vmat @ t.amplitudes))
            for i, t in task.pairs
        ),
        H0=task.H0,
        layout=task.layout,
        channels=(("Q1", "qubit"),),
        n_steps=task.n_steps,
    )
    base = TransferTask(
        pairs=task.pairs,
        H0=task.H0,
        layout=task.layout,
        channels=(("Q1", "qubit"),),
        n_steps=task.n_steps,
    )
    assert abs(
        transfer_fidelity(pulse, rotated) - transfer_fidelity(pulse, base)
    ) < 1e-12
    assert v.assert_unitary(1e-9)


def test_rediscretization_consistency():
    # with H0 = 0, doubling steps at half amplitude leaves the propagator fixed
    layout = SystemLayout.build(["Q1"], [], {})
    h0 = LinearOp(layout.space, np.zeros((2, 2), dtype=complex))
    u = 0.11 - 0.07j
    task1 = TransferTask(
        pairs=((qubit_ket(0), qubit_ket(1)),),
        H0=h0,
        layout=layout,
        channels=(("Q1", "qubit"),),
        n_steps=10,
    )
    task2 = TransferTask(
        pairs=((qubit_ket(0), qubit_ket(1)),),
        H0=h0,
        layout=layout,
        channels=(("Q1", "qubit"),),
        n_steps=20,
    )
    p1 = PulseSequence(channels={("Q1", "qubit"): np.full(10, u)})
    p2 = PulseSequence(channels={("Q1", "qubit"): np.full(20, 0.5 * u)})
    assert abs(transfer_fidelity(p1, task1) - transfer_fidelity(p2, task2)) < 1e-12


def test_report_validates_fidelity_range():
    with pytest.raises(ValidationError):
        OptimizerReport(
            final_fidelity=1.5,
            iterations=0,
            gradient_norms=(),
            fidelity_history=(),
            wall_time=0.0,
            converged=False,
        )


def _per_step_loewner(w, dt):
    e = np.exp(-1j * w * dt)
    dw = w[:, None] - w[None, :]
    de = e[:, None] - e[None, :]
    small = np.abs(dw) < 1e-12
    return np.where(small, e[:, None], de / np.where(small, 1.0, -1j * dt * dw))


def _per_step_fidelity_and_gradient(amps, task):
    """Reference: one eigh, one Loewner matrix and one V†OV per step."""
    ops = task.control_operators()
    dt, k = task.dt, len(task.pairs)
    psi = np.stack([p[0].amplitudes for p in task.pairs], axis=1)
    targ = np.stack([p[1].amplitudes for p in task.pairs], axis=1)
    fwd, eigs = [psi], []
    for j in range(task.n_steps):
        h = np.array(task.H0.matrix)
        for c, op in enumerate(ops):
            u = amps[c, j]
            if u != 0:
                h += u * op + np.conjugate(u) * op.conj().T
        w, v = np.linalg.eigh(h)
        eigs.append((w, v))
        psi = (v * np.exp(-1j * w * dt)) @ (v.conj().T @ psi)
        fwd.append(psi)
    a_mean = np.sum(np.conjugate(targ) * psi, axis=0).mean()
    grad = np.zeros_like(amps)
    lam = targ
    for j in range(task.n_steps - 1, -1, -1):
        w, v = eigs[j]
        phi = _per_step_loewner(w, dt)
        x = v.conj().T @ lam
        y = v.conj().T @ fwd[j]
        weight = np.conjugate(x) @ y.T
        for c, op in enumerate(ops):
            o_t = v.conj().T @ op @ v
            da_re = np.sum(phi * -1j * dt * (o_t + o_t.conj().T) * weight) / k
            da_im = np.sum(phi * dt * (o_t - o_t.conj().T) * weight) / k
            grad[c, j] = 2.0 * np.real(np.conjugate(a_mean) * da_re) + 2.0j * np.real(
                np.conjugate(a_mean) * da_im
            )
        lam = (v * np.exp(1j * w * dt)) @ (v.conj().T @ lam)
    return float(abs(a_mean) ** 2), grad


def test_batched_gradient_matches_per_step_loop():
    task = _dispersive_task(n_steps=150)  # d = 8: chunks of 64, 64 and 22 steps
    chunk = grape._chunks(task.n_steps, 8)
    assert len(chunk) > 1 and task.n_steps % (chunk[0][1] - chunk[0][0]) != 0
    amps = np.stack([_random_pulse(task, 13).channels[ch] for ch in task.channels])
    # drive-free steps see only the degenerate H0 spectrum (the limit branch
    # of the Loewner matrix)
    amps[:, [0, 40, 63, 64, 65, 149]] = 0.0
    assert np.any(np.abs(np.diff(np.linalg.eigvalsh(task.H0.matrix))) < 1e-12)
    pulse = PulseSequence(channels=dict(zip(task.channels, amps)))
    f_ref, g_ref = _per_step_fidelity_and_gradient(amps, task)
    assert abs(transfer_fidelity(pulse, task) - f_ref) < 1e-12
    grad = transfer_gradient(pulse, task)
    for i, ch in enumerate(task.channels):
        assert np.max(np.abs(grad[ch] - g_ref[i])) < 1e-12


def test_optimize_evaluates_each_point_once(monkeypatch):
    seen = []
    exact = grape._fidelity_and_gradient

    def counting(amps, task):
        assert not any(np.array_equal(amps, a) for a in seen), "point evaluated twice"
        seen.append(amps.copy())
        return exact(amps, task)

    monkeypatch.setattr(grape, "_fidelity_and_gradient", counting)
    task = _qubit_task(n_steps=30)
    _, report = optimize(task, max_iters=20, target_fidelity=1.1, seed=2)
    assert report.iterations >= 2
    # one history entry for the start, one per iteration, one for the result
    assert len(report.fidelity_history) == report.iterations + 2


def test_optimize_zero_iterations_returns_clipped_start(monkeypatch):
    def no_optimizer(*args, **kwargs):
        raise AssertionError("the optimizer must not run")

    monkeypatch.setattr(grape, "minimize", no_optimizer)
    task = _qubit_task(n_steps=20)
    init = _random_pulse(task, 5, scale=1.0)
    bound = 0.3
    pulse, report = optimize(
        task, max_iters=0, target_fidelity=1.1, amplitude_bound=bound, initial_pulse=init
    )
    start = init.channels[("Q1", "qubit")]
    clipped = np.clip(start.real, -bound, bound) + 1j * np.clip(start.imag, -bound, bound)
    assert np.any(clipped != start)
    assert np.array_equal(pulse.channels[("Q1", "qubit")], clipped)
    assert report.iterations == 0
    assert report.fidelity_history == (pytest.approx(transfer_fidelity(pulse, task)),)


def test_optimize_rejects_negative_max_iters():
    with pytest.raises(ValidationError):
        optimize(_qubit_task(n_steps=5), max_iters=-1)


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
def test_optimize_rejects_non_finite_target(target):
    with pytest.raises(ValidationError):
        optimize(_qubit_task(n_steps=5), target_fidelity=target)
