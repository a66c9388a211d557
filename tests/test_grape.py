import dataclasses

import numpy as np
import pytest
import scipy.optimize

from cavitysim import grape
from cavitysim.device import SystemLayout, levels, load_params, default_config_text, static_hamiltonian
from cavitysim.errors import ValidationError
from cavitysim.fock import CompositeSpace, LinearOp, ModeSpec, fock_ket, qubit_ket
from cavitysim.grape import (
    DEFAULT_AMPLITUDE_BOUND,
    OptimizerReport,
    TransferTask,
    optimize,
)

from oracles import annihilation, lift, normalized, sigma_plus, tensor


def _qubit_task(n_steps=50):
    layout = SystemLayout.build(["Q1"], [], {})
    return TransferTask(
        pairs=((qubit_ket(0), qubit_ket(1)),),
        H0=np.zeros(2),
        layout=layout,
        channels=("Q1",),
        n_steps=n_steps,
    )


def _dispersive_task(n_steps=10, dim=4):
    params = load_params(default_config_text())
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": dim})
    init = tensor([qubit_ket(0), fock_ket(layout.mode("S1"), 0)])
    targ = tensor([qubit_ket(1), fock_ket(layout.mode("S1"), 0)])
    init2 = tensor([qubit_ket(1), fock_ket(layout.mode("S1"), 1)])
    targ2 = tensor([qubit_ket(0), fock_ket(layout.mode("S1"), 1)])
    return TransferTask(
        pairs=((init, targ), (init2, targ2)),
        H0=static_hamiltonian(params, layout),
        layout=layout,
        channels=("Q1", "S1"),
        n_steps=n_steps,
    )


def _random_pulse(task, seed):
    """Random amplitudes, one row per channel of the task."""
    rng = np.random.default_rng(seed)
    return np.array(
        [
            0.05 * (rng.standard_normal(task.n_steps) + 1j * rng.standard_normal(task.n_steps))
            for _ in task.channels
        ]
    )


def _objective(amps, task):
    """GRAPE's fidelity and gradient, an (n_channels, n_steps) array, at the
    amplitudes."""
    return grape._fidelity_and_gradient(np.asarray(amps, dtype=complex), task)


def _fidelity(amps, task):
    return _objective(amps, task)[0]


def _dense_fidelity(dense_evolve, amps, task):
    """Reference: |(1/K) Σ_k ⟨target_k|U|init_k⟩|², U by the dense oracle."""
    ins = np.stack([p[0] for p in task.pairs], axis=1)
    targets = np.stack([p[1] for p in task.pairs], axis=1)
    channels = dict(zip(task.channels, amps))
    out = dense_evolve(ins, task.H0, channels, grape._DT, task.layout)
    return float(abs(np.mean(np.sum(targets.conj() * out, axis=0))) ** 2)


def test_exact_pi_pulse_has_unit_fidelity():
    task = _qubit_task(n_steps=50)
    # constant Rabi rate ε over 50 ns with ε·T = π
    eps = np.pi / 50.0
    f = _fidelity(np.full((1, 50), -1j * eps), task)
    assert f > 1.0 - 1e-12


def test_zero_pulse_orthogonal_states_zero_fidelity():
    task = _qubit_task(n_steps=10)
    assert _fidelity(np.zeros((1, 10)), task) < 1e-12


def test_fidelity_invariant_under_global_target_phase():
    task = _dispersive_task()
    pulse = _random_pulse(task, 3)
    f1 = _fidelity(pulse, task)
    phase = np.exp(0.7j)
    rotated = TransferTask(
        pairs=tuple(
            (i, phase * t) for i, t in task.pairs
        ),
        H0=task.H0,
        layout=task.layout,
        channels=task.channels,
        n_steps=task.n_steps,
    )
    assert abs(_fidelity(pulse, rotated) - f1) < 1e-12


def test_fidelity_matches_full_pulse_evolution(dense_evolve):
    task = _dispersive_task(n_steps=8)
    pulse = _random_pulse(task, 11)
    assert abs(_fidelity(pulse, task) - _dense_fidelity(dense_evolve, pulse, task)) < 1e-12


def test_gradient_matches_finite_differences(dense_evolve):
    """GRAPE's analytic gradient against central differences of the dense
    oracle's fidelity."""
    task = _dispersive_task(n_steps=6)
    pulse = _random_pulse(task, 7)
    _, grad = _objective(pulse, task)
    h = 1e-6
    for i in range(len(task.channels)):
        for step in range(0, task.n_steps, 2):
            for direction in (1.0, 1.0j):

                def shifted_fidelity(delta):
                    amps = pulse.copy()
                    amps[i, step] += delta
                    return _dense_fidelity(dense_evolve, amps, task)

                fp = shifted_fidelity(h * direction)
                fm = shifted_fidelity(-h * direction)
                fd = (fp - fm) / (2 * h)
                g = grad[i, step]
                analytic = g.real if direction == 1.0 else g.imag
                assert abs(analytic - fd) < 1e-5 * max(1.0, abs(fd))


def test_gradient_vanishes_at_unit_fidelity():
    task = _qubit_task(n_steps=50)
    eps = np.pi / 50.0
    _, grad = _objective(np.full((1, 50), -1j * eps), task)
    assert np.linalg.norm(grad) < 1e-6


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("H0", np.zeros(2, dtype=complex), "energy vector"),
        ("H0", np.zeros(3), "energy vector"),
        ("H0", np.zeros((2, 2)), "energy vector"),
        ("H0", LinearOp(CompositeSpace((ModeSpec.qubit(),)), np.zeros((2, 2))), "energy vector"),
        ("channels", (), "at least one drive channel"),
        ("channels", ("S1",), "not a label of the layout"),
        ("channels", ("Q1", "Q1"), "'Q1' is listed more than once"),
    ],
    ids=[
        "complex-h0", "h0-length", "h0-matrix", "h0-linear-op", "no-channels", "absent-label",
        "repeated-label",
    ],
)
def test_transfer_task_refuses_what_it_cannot_drive(field, value, message):
    """H0 is the layout's real energy vector, and every channel a label of
    the layout, listed once: a task with no channel has nothing to optimize,
    and a repeated label would write two column pairs of the same name."""
    with pytest.raises(ValidationError, match=message):
        dataclasses.replace(_qubit_task(n_steps=5), **{field: value})


def test_optimize_qubit_pi_pulse(dense_evolve):
    task = _qubit_task(n_steps=50)
    pulse, report = optimize(task, max_iters=300, target_fidelity=0.9999, seed=1)
    assert report.final_fidelity >= 0.9999
    assert report.converged
    # the optimized pulse reproduces the reported fidelity
    assert abs(_dense_fidelity(dense_evolve, pulse, task) - report.final_fidelity) < 1e-12
    assert pulse.shape == (1, 50)
    amps = pulse[0]
    assert np.all(np.abs(amps.real) <= DEFAULT_AMPLITUDE_BOUND + 1e-12)
    assert np.all(np.abs(amps.imag) <= DEFAULT_AMPLITUDE_BOUND + 1e-12)


def _no_optimizer(*args, **kwargs):
    raise AssertionError("the optimizer must not run")


def test_optimize_target_zero_returns_initial_pulse(monkeypatch):
    """A target that the seeded start already meets returns that start
    without optimizing: the pulse that max_iters = 0 returns."""
    monkeypatch.setattr(scipy.optimize, "minimize", _no_optimizer)
    task = _qubit_task(n_steps=20)
    start, _ = optimize(task, max_iters=0, target_fidelity=1.1, seed=5)
    pulse, report = optimize(task, max_iters=500, target_fidelity=0.0, seed=5)
    assert report.iterations == 0 and report.converged
    assert report.message == "initial pulse already meets the target"
    assert np.array_equal(pulse, start)


def test_optimize_monotone_fidelity_history():
    task = _qubit_task(n_steps=30)
    _, report = optimize(task, max_iters=50, target_fidelity=1.1, seed=2)
    hist = np.array(report.fidelity_history)
    assert np.all(np.diff(hist) >= -1e-9)
    assert not report.converged or report.gradient_norms[-1] < 1e-8


def test_fidelity_invariant_under_commuting_rotation():
    task = _dispersive_task(n_steps=6)
    pulse = _random_pulse(task, 9)[:1]  # the qubit channel alone
    # rotation by a cavity-number phase commutes with the dispersive H0 and
    # with the qubit-only drive
    cav = task.layout.mode("S1")
    number_phase = np.diag(np.exp(0.31j * np.arange(cav.dim)))
    vmat = lift(number_phase, task.layout.index["S1"], task.layout.space)
    rotated = TransferTask(
        pairs=tuple((vmat @ i, vmat @ t) for i, t in task.pairs),
        H0=task.H0,
        layout=task.layout,
        channels=("Q1",),
        n_steps=task.n_steps,
    )
    base = TransferTask(
        pairs=task.pairs,
        H0=task.H0,
        layout=task.layout,
        channels=("Q1",),
        n_steps=task.n_steps,
    )
    assert abs(_fidelity(pulse, rotated) - _fidelity(pulse, base)) < 1e-12
    assert np.max(np.abs(vmat.conj().T @ vmat - np.eye(len(vmat)))) < 1e-9


def test_rediscretization_consistency():
    # with H0 = 0, doubling steps at half amplitude leaves the propagator fixed
    layout = SystemLayout.build(["Q1"], [], {})
    h0 = np.zeros(2)
    u = 0.11 - 0.07j
    task1 = TransferTask(
        pairs=((qubit_ket(0), qubit_ket(1)),),
        H0=h0,
        layout=layout,
        channels=("Q1",),
        n_steps=10,
    )
    task2 = TransferTask(
        pairs=((qubit_ket(0), qubit_ket(1)),),
        H0=h0,
        layout=layout,
        channels=("Q1",),
        n_steps=20,
    )
    p1 = np.full((1, 10), u)
    p2 = np.full((1, 20), 0.5 * u)
    assert abs(_fidelity(p1, task1) - _fidelity(p2, task2)) < 1e-12


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
    dt, k = grape._DT, len(task.pairs)
    psi = np.stack([p[0] for p in task.pairs], axis=1)
    targ = np.stack([p[1] for p in task.pairs], axis=1)
    fwd, eigs = [psi], []
    for j in range(task.n_steps):
        h = np.diag(task.H0).astype(complex)
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
    amps = _random_pulse(task, 13)
    # drive-free steps see only the degenerate H0 spectrum (the limit branch
    # of the Loewner matrix)
    amps[:, [0, 40, 63, 64, 65, 149]] = 0.0
    assert np.any(np.abs(np.diff(np.sort(task.H0))) < 1e-12)
    f_ref, g_ref = _per_step_fidelity_and_gradient(amps, task)
    f, grad = _objective(amps, task)
    assert abs(f - f_ref) < 1e-12
    assert np.max(np.abs(grad - g_ref)) < 1e-12


def _three_mode_task(n_steps=12):
    """A Q3 + S1 + S2 task driven in an order that is not the layout's, with
    two pairs of random kets."""
    params = load_params(default_config_text())
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 3, "S2": 4})
    rng = np.random.default_rng(5)

    def ket():
        amps = rng.standard_normal(layout.space.dim) + 1j * rng.standard_normal(layout.space.dim)
        return normalized(amps)

    return TransferTask(
        pairs=((ket(), ket()), (ket(), ket())),
        H0=static_hamiltonian(params, layout),
        layout=layout,
        channels=("S2", "Q3", "S1"),
        n_steps=n_steps,
    )


def test_gauge_holds_on_three_modes_out_of_layout_order():
    """Each step's drive phases are a diagonal gauge of its Hamiltonian on
    any layout and channel order: steps with no drive, with one channel
    off and with a negative real amplitude agree with the per-step loop."""
    task = _three_mode_task()
    amps = _random_pulse(task, 21)
    amps[:, [0, 7]] = 0.0
    amps[1, 3] = 0.0  # only Q3 off
    amps[0, 5] = -0.04  # S2 at a negative real amplitude
    f_ref, g_ref = _per_step_fidelity_and_gradient(amps, task)
    f, grad = _objective(amps, task)
    assert f_ref > 1e-3
    assert abs(f - f_ref) < 1e-12
    assert np.max(np.abs(grad - g_ref)) < 1e-12


def test_grape_diagonalises_only_real_stacks(monkeypatch):
    """The stacked eigh sees real symmetric Hamiltonians, whatever the
    amplitudes' phases."""
    seen = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append((a.dtype, a.ndim))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    task = _dispersive_task(n_steps=150)
    _objective(_random_pulse(task, 3), task)
    assert seen and all(s == (np.dtype(np.float64), 3) for s in seen)


def test_control_operators_raise_only_their_own_level():
    """The gauge's precondition: each label's control is real and couples
    only basis states where that label's level rises by exactly one and
    every other label's level is unchanged."""
    layout = SystemLayout.build(["Q3"], ["S1", "S2"], {"S1": 3, "S2": 4})
    n = {label: np.broadcast_to(g, layout.space.dims).ravel() for label, g in levels(layout).items()}
    for label in layout.index:
        op = grape.control_operator(layout, label)
        assert np.all(op.imag == 0)
        rows, cols = np.nonzero(op)
        assert len(rows) > 0
        for other, lv in n.items():
            rise = 1 if other == label else 0
            assert np.all(lv[rows] - lv[cols] == rise), (label, other)


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


def test_optimize_zero_iterations_returns_clipped_start(monkeypatch, dense_evolve):
    """The start is clipped to ±DEFAULT_AMPLITUDE_BOUND: drawn 100× wider
    than optimize draws it, it comes back clipped, and that is the pulse
    returned at max_iters = 0."""
    draw = np.random.default_rng

    class Wide:
        def __init__(self, seed):
            self.rng = draw(seed)

        def standard_normal(self, shape):
            return 100.0 * self.rng.standard_normal(shape)

    monkeypatch.setattr(scipy.optimize, "minimize", _no_optimizer)
    monkeypatch.setattr(np.random, "default_rng", Wide)
    task = _qubit_task(n_steps=20)
    pulse, report = optimize(task, max_iters=0, target_fidelity=1.1, seed=5)
    bound = DEFAULT_AMPLITUDE_BOUND
    rng = Wide(5)
    start = 0.1 * bound * (rng.standard_normal((1, 20)) + 1j * rng.standard_normal((1, 20)))[0]
    clipped = np.clip(start.real, -bound, bound) + 1j * np.clip(start.imag, -bound, bound)
    assert np.any(clipped != start)
    assert np.array_equal(pulse[0], clipped)
    assert report.iterations == 0
    assert report.fidelity_history == (pytest.approx(_dense_fidelity(dense_evolve, pulse, task)),)


def test_optimize_rejects_negative_max_iters():
    with pytest.raises(ValidationError):
        optimize(_qubit_task(n_steps=5), max_iters=-1, target_fidelity=0.9999, seed=0)


@pytest.mark.parametrize("target", [np.nan, np.inf, -np.inf])
def test_optimize_rejects_non_finite_target(target):
    with pytest.raises(ValidationError):
        optimize(_qubit_task(n_steps=5), max_iters=500, target_fidelity=target, seed=0)


@pytest.mark.parametrize("qubits, cavities", [(["Q1"], []), (["Q3"], ["S1", "S2"]), ([], ["S1"])], ids=["qubit", "three-mode", "cavity"])
def test_control_operators_are_the_lifted_ladder_operators(qubits, cavities):
    """Built from the level numbers, each control equals the dense lift of
    ½σ⁺ or a† bit for bit, and is complex, as the lift was."""
    layout = SystemLayout.build(qubits, cavities, {"S1": 3, "S2": 4})
    for label, i in layout.index.items():
        local = 0.5 * sigma_plus() if layout.is_qubit(label) else annihilation(layout.mode(label)).conj().T
        op = grape.control_operator(layout, label)
        assert op.dtype == complex
        assert np.array_equal(op, lift(local, i, layout.space))


@pytest.mark.parametrize(
    "pair, message",
    [
        ((np.ones(3) / np.sqrt(3), np.array([0.0, 1.0])), "shape"),
        ((np.array([1.0, 0.0]), np.array([[0.0, 1.0]])), "shape"),
        ((np.array([1.0, 1.0]), np.array([0.0, 1.0])), "normalized"),
    ],
    ids=["init-length", "target-2d", "unnormalized"],
)
def test_transfer_task_refuses_pairs_it_cannot_transfer(pair, message):
    with pytest.raises(ValidationError, match=message):
        TransferTask(
            pairs=(pair,),
            H0=np.zeros(2),
            layout=SystemLayout.build(["Q1"], [], {}),
            channels=("Q1",),
            n_steps=4,
        )
