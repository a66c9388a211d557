"""Gradient-based optimization of piecewise-constant control pulses.

Optimizes an ensemble state-transfer fidelity
F = |(1/K) Σ_k ⟨target_k| U(pulse) |init_k⟩|² with exact analytic gradients.
The phase-coherent average makes the objective sensitive to relative phases
between ensemble members, so K training pairs pin down an isometry on the
subspace they span.

The static Hamiltonian H0 is diagonal in the rotating frame and is held as
its energy vector, as in `evolution`; each drive channel is a layout label,
whose control O_c is ½σ⁺ on a qubit or a† on a cavity (`control_operator`).
Every O_c is real and raises only its own mode's level n_c, by one, so a
step's drive phases are a diagonal gauge: with θ_j = Σ_c n_c arg u_cj and
D_j = diag(e^{iθ_j}),
h_j = diag(H0) + Σ_c (u_cj O_c + ū_cj O_c†) = D_j r_j D_j†,
r_j = diag(H0) + Σ_c |u_cj| (O_c + O_cᵀ),
with r_j real symmetric.  The pulse is evaluated in chunks of consecutive
steps.  Each chunk's r_j are built in one broadcast and diagonalised by one
real stacked eigh, r_j = R_j diag(w_j) R_jᵀ, so h_j = V_j diag(w_j) V_j† with
V_j = D_j R_j, and the chunk's propagators come from one batched product;
only the forward states and the backward adjoints are stepped one small
matmul at a time.
The gradient uses the exact divided-difference derivative of each step
(de Fouquières et al., J. Magn. Reson. 212, 412 (2011)) in trace form: with
x = V†λ and y = V†ψ the eigenbasis adjoints and states of the K pairs,
W_ab = Σ_k conj(x_ak) y_bk and Φ the Loewner matrix of e^{−i w dt},
B = V (Φ ∘ W)ᵀ V† gives ∂A/∂E = −i dt tr(B E)/K for the mean overlap A
and every Hermitian direction E: O + O† for Re u and i(O − O†) for Im u.
That is one d×d contraction per channel and step, with B shared by all
channels.  Only the eigenpairs and forward states of all steps are kept;
every other per-step temporary lives for one chunk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from cavitysim.codes import binomial_encoding, logical_ket
from cavitysim.device import DeviceParams, SystemLayout, levels, static_hamiltonian
from cavitysim.errors import ValidationError
from cavitysim.fock import fock_ket, qubit_ket

DEFAULT_AMPLITUDE_BOUND = 2.0 * np.pi * 50e-3  # |amplitude| cap: 50 MHz in rad/ns

#: Duration (ns) of each piecewise-constant step of an optimized pulse
_DT = 1.0


def control_operator(layout: SystemLayout, label: str) -> np.ndarray:
    """Dense raising-type control O of a drive on `label`: ½σ⁺ for a qubit,
    a† for a cavity.  A step amplitude u contributes u·O + ū·O† to the
    Hamiltonian.

    Built from the level numbers, as the Lindblad dissipator is: O maps the
    joint basis state j, at level n of `label`, to the state j + stride at
    level n + 1, with amplitude ½ on a qubit and √(n + 1) on a cavity, and
    the top level to 0.  It is complex, as the lifted ½σ⁺ and a† were, so
    every product it enters rounds as theirs did.
    """
    dims, axis = layout.space.dims, layout.index[label]
    n = np.broadcast_to(levels(layout)[label], dims).ravel()
    stride = int(np.prod(dims[axis + 1 :]))
    amp = np.where(n < dims[axis] - 1, 0.5 if layout.is_qubit(label) else np.sqrt(n + 1.0), 0.0)
    return np.diag(amp[:-stride], k=-stride).astype(complex)


@dataclass(frozen=True)
class TransferTask:
    """Ensemble of state-transfer pairs plus the controlled system.

    Each pair is (init, target), two normalized amplitude vectors on the
    layout's space.  H0 is the static Hamiltonian as its real (dim,) energy
    vector.  channels lists the layout labels the optimizer drives; each
    label's control is its `control_operator` O, and a complex amplitude u
    contributes u·O + ū·O† to the Hamiltonian of its step of _DT ns.
    """

    pairs: tuple
    H0: np.ndarray
    layout: SystemLayout
    channels: tuple
    n_steps: int

    def __post_init__(self):
        dim = self.layout.space.dim
        h0 = np.asarray(self.H0)
        if h0.shape != (dim,) or np.iscomplexobj(h0):
            raise ValidationError(
                f"H0 must be the real energy vector of shape ({dim},), "
                f"got {h0.dtype} of shape {h0.shape}"
            )
        if not self.channels:
            raise ValidationError("transfer task needs at least one drive channel")
        for label in self.channels:
            if label not in self.layout.index:
                raise ValidationError(f"drive channel {label!r} is not a label of the layout")
            if self.channels.count(label) > 1:
                raise ValidationError(f"drive channel {label!r} is listed more than once")
        if not self.pairs:
            raise ValidationError("transfer task needs at least one state pair")
        for init, target in self.pairs:
            for k in (init, target):
                if np.shape(k) != (dim,):
                    raise ValidationError(f"all states must be amplitude vectors of shape ({dim},), got {np.shape(k)}")
                if abs(np.linalg.norm(k) - 1.0) > 1e-9:
                    raise ValidationError("all states must be normalized")
        if self.n_steps < 1:
            raise ValidationError("n_steps must be >= 1")
        h0 = np.array(h0, dtype=float)
        h0.setflags(write=False)
        object.__setattr__(self, "H0", h0)
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(self, "channels", tuple(self.channels))

    def control_operators(self) -> list[np.ndarray]:
        return [control_operator(self.layout, label) for label in self.channels]


def binomial_encode_task(params: DeviceParams, dim: int, n_steps: int) -> TransferTask:
    """Map (c0|g⟩ + c1|e⟩)|0⟩ to |g⟩(c0|0⟩_L + c1|1⟩_L) of the binomial code on S1,
    driving Q1 and S1.

    The four pairs (c0, c1) = (1, 0), (0, 1), (1, 1), (1, i), normalized, pin
    down the encoding isometry up to one global phase.
    """
    layout = SystemLayout.build(["Q1"], ["S1"], {"S1": dim})
    enc = binomial_encoding(dim)
    g, e = qubit_ket(0), qubit_ket(1)
    vac = fock_ket(layout.mode("S1"), 0)

    def pair(c0, c1):
        init = c0 * np.kron(g, vac) + c1 * np.kron(e, vac)
        return (init / float(np.linalg.norm(init)), np.kron(g, logical_ket(enc, c0, c1)))

    return TransferTask(
        pairs=(pair(1.0, 0.0), pair(0.0, 1.0), pair(1.0, 1.0), pair(1.0, 1.0j)),
        H0=static_hamiltonian(params, layout),
        layout=layout,
        channels=("Q1", "S1"),
        n_steps=n_steps,
    )


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of a pulse optimization run."""

    final_fidelity: float
    iterations: int
    gradient_norms: tuple
    fidelity_history: tuple
    wall_time: float
    converged: bool
    message: str = ""

    def __post_init__(self):
        if not -1e-9 <= self.final_fidelity <= 1.0 + 1e-9:
            raise ValidationError("fidelity must lie in [0, 1]")


#: Target element count of one chunk's (steps × d × d) temporaries: the
#: propagators, Loewner matrices, weights and trace matrices.  Larger chunks
#: buy no measurable time and raise the peak memory.
_CHUNK_ELEMENTS = 4096


def _chunks(n_steps: int, dim: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) step ranges of at most _CHUNK_ELEMENTS / d² steps."""
    length = max(1, _CHUNK_ELEMENTS // (dim * dim))
    return [(s, min(s + length, n_steps)) for s in range(0, n_steps, length)]


def _propagators(w: np.ndarray, v: np.ndarray, dt: float) -> np.ndarray:
    """Stacked V diag(e^{−i w dt}) V† of eigenpairs w (m, d), v (m, d, d)."""
    return (v * np.exp(-1j * w * dt)[:, None, :]) @ v.conj().transpose(0, 2, 1)


def _forward(amps: np.ndarray, task: TransferTask):
    """Propagate the ensemble and keep what the gradient needs.

    Returns the mean overlap (1/K) Σ_k ⟨target_k|U|init_k⟩, the per-step
    eigenpairs w (n, d) and v (n, d, d), the forward states fwd (n + 1, d, K)
    with fwd[j] the ensemble before step j, the targets (d, K) and the
    stacked control operators (n_channels, d, d).
    """
    h0 = np.diag(task.H0)
    n, d = task.n_steps, h0.shape[0]
    ops = np.array(task.control_operators())
    grids, dims = levels(task.layout), task.layout.space.dims
    n_c = np.array([np.broadcast_to(grids[c], dims).ravel() for c in task.channels])  # (channels, d)
    targ = np.stack([p[1] for p in task.pairs], axis=1)
    w = np.empty((n, d))
    v = np.empty((n, d, d), dtype=complex)
    fwd = np.empty((n + 1, d, len(task.pairs)), dtype=complex)
    fwd[0] = np.stack([p[0] for p in task.pairs], axis=1)
    for s, e in _chunks(n, d):
        drive = np.tensordot(np.abs(amps[:, s:e]).T, ops.real, axes=1)  # Σ_c |u_c| O_c per step
        w[s:e], r = np.linalg.eigh(h0 + drive + drive.transpose(0, 2, 1))
        theta = np.angle(amps[:, s:e]).T @ n_c  # the gauge phases θ_j (steps, d)
        v[s:e] = np.exp(1j * theta)[:, :, None] * r
        u = _propagators(w[s:e], v[s:e], _DT)
        for j in range(s, e):
            fwd[j + 1] = u[j - s] @ fwd[j]
    a_mean = np.sum(np.conjugate(targ) * fwd[n], axis=0).mean()
    return a_mean, w, v, fwd, targ, ops


def _loewner(w: np.ndarray, dt: float) -> np.ndarray:
    """Divided differences of z ↦ e^{−i z dt} over the spectrum w (last axis).

    Entry (a, b) is (e^{−i w_a dt} − e^{−i w_b dt})/(−i dt (w_a − w_b)) with
    the limit e^{−i w_a dt} on (near-)degenerate pairs, so that the exact
    Fréchet derivative of the segment propagator in a Hermitian direction E
    is V (Φ ∘ (−i dt V†EV)) V†.
    """
    e = np.exp(-1j * w * dt)
    dw = w[..., :, None] - w[..., None, :]
    de = e[..., :, None] - e[..., None, :]
    small = np.abs(dw) < 1e-12
    return np.where(small, e[..., :, None], de / np.where(small, 1.0, -1j * dt * dw))


def _fidelity_and_gradient(amps: np.ndarray, task: TransferTask):
    a_mean, w, v, fwd, targ, ops = _forward(amps, task)
    n, d, k = task.n_steps, w.shape[1], targ.shape[1]
    dt = _DT
    # tr(B O) = Σ_ab B_ab O_ba and tr(B O†) = Σ_ab B_ab conj(O_ab): one
    # contraction of the flattened B with these rows gives both per channel
    probes = np.concatenate([ops.transpose(0, 2, 1), ops.conj()]).reshape(-1, d * d)
    traces = np.empty((n, len(probes)), dtype=complex)
    lam = targ  # adjoint states (U_{n-1} ... U_{j+1})† target, from the end
    for s, e in reversed(_chunks(n, d)):
        vh = v[s:e].conj().transpose(0, 2, 1)
        u_dag = _propagators(w[s:e], v[s:e], -dt)
        lams = np.empty((e - s, d, k), dtype=complex)
        for j in range(e - s - 1, -1, -1):
            lams[j] = lam
            lam = u_dag[j] @ lam
        x = vh @ lams  # eigenbasis adjoints after each step
        y = vh @ fwd[s:e]  # eigenbasis forward states before each step
        weight = np.conjugate(x) @ y.transpose(0, 2, 1)  # (a,b) = Σ_k conj(x_ak) y_bk
        b = v[s:e] @ (_loewner(w[s:e], dt) * weight).transpose(0, 2, 1) @ vh
        traces[s:e] = b.reshape(e - s, d * d) @ probes.T
    t_op, t_dag = traces.T[: len(ops)], traces.T[len(ops) :]
    # directions: d/d(re u) → E = O + O†, d/d(im u) → E = i(O − O†)
    da_re = -1j * dt * (t_op + t_dag) / k
    da_im = dt * (t_op - t_dag) / k
    f = float(abs(a_mean) ** 2)
    grad = 2.0 * np.real(np.conjugate(a_mean) * da_re) + 2.0j * np.real(
        np.conjugate(a_mean) * da_im
    )
    return f, grad


def _pack(amps: np.ndarray) -> np.ndarray:
    return np.concatenate([amps.real.reshape(-1), amps.imag.reshape(-1)])


def _unpack(x: np.ndarray, n_channels: int, n_steps: int) -> np.ndarray:
    half = n_channels * n_steps
    return (x[:half] + 1j * x[half:]).reshape(n_channels, n_steps)


class _TargetReached(Exception):
    pass


def optimize(
    task: TransferTask,
    max_iters: int,
    target_fidelity: float,
    seed: int,
) -> tuple[np.ndarray, OptimizerReport]:
    """Limited-memory quasi-Newton ascent on the transfer fidelity, from a
    seeded random start.

    Returns the best amplitudes found, a complex (n_channels, n_steps) array
    in task.channels order, and the report.  Amplitude components are
    box-clipped to ±DEFAULT_AMPLITUDE_BOUND, the start included.
    Non-convergence is reported in the OptimizerReport, never raised.
    """
    # imported here, not at module level, so that no other command pays for scipy.optimize
    from scipy.optimize import minimize

    if max_iters < 0:
        raise ValidationError("max_iters must be >= 0")
    if not np.isfinite(target_fidelity):
        raise ValidationError("target_fidelity must be finite")
    nc, ns = len(task.channels), task.n_steps
    bound = DEFAULT_AMPLITUDE_BOUND
    rng = np.random.default_rng(seed)
    amps0 = 0.1 * bound * (rng.standard_normal((nc, ns)) + 1j * rng.standard_normal((nc, ns)))
    amps0 = np.clip(amps0.real, -bound, bound) + 1j * np.clip(amps0.imag, -bound, bound)

    start = time.perf_counter()
    grad_norms: list[float] = []
    fids: list[float] = []
    last = {"x": None}
    best = {}

    def evaluate(x):
        """Fidelity and packed gradient at x; a repeat of the last point is free."""
        if last["x"] is None or not np.array_equal(x, last["x"]):
            f, g = _fidelity_and_gradient(_unpack(x, nc, ns), task)
            last.update(x=x.copy(), f=f, g=_pack(g))
            if not best or f > best["f"]:
                best.update(last)
        return last["f"], last["g"]

    def record(f, g):
        grad_norms.append(float(np.linalg.norm(g)))
        fids.append(f)

    f0, g0 = evaluate(_pack(amps0))
    record(f0, g0)

    def objective(x):
        f, g = evaluate(x)
        if f >= target_fidelity:
            raise _TargetReached
        return -f, -g

    def callback(x):
        record(*evaluate(x))

    iterations = 0
    if f0 >= target_fidelity:
        message = "initial pulse already meets the target"
    elif max_iters == 0:
        message = "max_iters is 0"
    else:
        try:
            res = minimize(
                objective,
                _pack(amps0),
                jac=True,
                method="L-BFGS-B",
                bounds=[(-bound, bound)] * (2 * nc * ns),
                callback=callback,
                options={"maxiter": max_iters, "gtol": 1e-8, "ftol": 1e-14},
            )
            message = str(res.message)
            iterations = int(res.nit)
        except _TargetReached:
            message = "target fidelity reached"
            iterations = len(fids)
        record(best["f"], best["g"])

    return _unpack(best["x"], nc, ns), OptimizerReport(
        final_fidelity=min(best["f"], 1.0),
        iterations=iterations,
        gradient_norms=tuple(grad_norms),
        fidelity_history=tuple(fids),
        wall_time=time.perf_counter() - start,
        converged=best["f"] >= target_fidelity or grad_norms[-1] < 1e-8,
        message=message,
    )
