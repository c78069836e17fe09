"""Logical unitary gates from small-angle measurement bases.

The per-step channel is computed exactly from the full virtual-space evolution
(measure one site in a tilted basis, reverse the byproduct, add all outcome
paths, condition the junk with an oblivious wire), never from the first-order
formula; the first-order rotation law is a test target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# eigenphase_groups stays importable from here; channel.Analysis.pair is its one caller
from .channel import Analysis, check_pair, eigenphase_groups, pair_operator, unvec, vec  # noqa: F401
from .errors import ClosureTooSmall, MaxDimExceeded, ValidationError
from .model import PhasePoint

DALPHA_SOFT_CAP = 0.2


# ---------------------------------------------------------------------------
# program data types

@dataclass(frozen=True)
class GateStep:
    """One small-angle measurement step, repeated `repeats` times.

    `wire_n` is the oblivious-wire length following each step; None picks the
    model default (30 correlation lengths, floor 20).
    """

    pair: tuple[int, int]
    dalpha: float
    beta: float = 0.0
    wire_n: int | None = None
    repeats: int = 1

    def __post_init__(self):
        if abs(self.dalpha) > DALPHA_SOFT_CAP:
            warnings.warn(f"|dalpha| = {abs(self.dalpha):.3f} exceeds the small-angle cap {DALPHA_SOFT_CAP}")


@dataclass(frozen=True)
class MeasureStep:
    """Accumulated weak measurement of the pair observable C = C_i^-1 C_j."""

    pair: tuple[int, int]
    alpha: float
    n_m: int
    wire_n: int | None = None

    @property
    def schedule(self) -> tuple[tuple[int, float], tuple[int, float]]:
        """The (steps, beta) blocks of the measurement: n_m // 2 steps at beta = 0,
        which estimate cos(phi - delta), then the rest at beta = pi/2, which
        estimate sin(phi - delta)."""
        n_real = self.n_m // 2
        return ((n_real, 0.0), (self.n_m - n_real, np.pi / 2))


@dataclass(frozen=True)
class WireStep:
    """A block of oblivious wire sites."""

    n: int


ProgramStep = GateStep | MeasureStep | WireStep


@dataclass(frozen=True)
class GateProgram:
    steps: tuple[ProgramStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    def site_budget(self, analysis: Analysis) -> int:
        """Number of physical sites the program consumes."""
        total = 0
        for s in self.steps:
            wire = s.wire_n if getattr(s, "wire_n", None) is not None else analysis.wire_length
            if isinstance(s, GateStep):
                total += s.repeats * (1 + wire)
            elif isinstance(s, MeasureStep):
                total += s.n_m * (1 + wire)
            else:
                total += s.n
        return total


# ---------------------------------------------------------------------------
# generator set and Lie closure

def generator_set(point: PhasePoint) -> list[np.ndarray]:
    """Hermitian combinations (C + C^dag)/2 and (C - C^dag)/2i for all pairs i < j."""
    gens = []
    for i in range(point.d):
        for j in range(i + 1, point.d):
            c = pair_operator(point, (i, j))
            gens.append((c + c.conj().T) / 2)
            gens.append((c - c.conj().T) / 2j)
    return gens


@dataclass(frozen=True)
class LieClosure:
    basis: tuple[np.ndarray, ...]
    dim: int


def lie_closure(gens, tol: float = 1e-10, max_dim: int | None = None, traceless: bool = False) -> LieClosure:
    """Close the real span of Hermitian generators under the commutator [.,.]/i.

    Gram-Schmidt runs over the real vector space of Hermitian matrices with the
    Hilbert-Schmidt inner product Tr(AB).
    """
    dim = gens[0].shape[0]
    if max_dim is None:
        max_dim = dim * dim

    def to_vec(h):
        return np.concatenate([h.real.reshape(-1), h.imag.reshape(-1)])

    basis_mats: list[np.ndarray] = []
    basis_vecs: list[np.ndarray] = []

    def try_add(h):
        if traceless:
            h = h - np.trace(h) / dim * np.eye(dim)
        v = to_vec(h)
        norm0 = np.linalg.norm(v)
        if norm0 < tol:
            return False
        for bv in basis_vecs:
            v = v - np.dot(bv, v) * bv
        if np.linalg.norm(v) <= tol * max(1.0, norm0):
            return False
        v = v / np.linalg.norm(v)
        half = dim * dim
        m = (v[:half] + 1j * v[half:]).reshape(dim, dim)
        basis_mats.append((m + m.conj().T) / 2)
        basis_vecs.append(v)
        if len(basis_mats) > max_dim:
            raise MaxDimExceeded(f"Lie closure exceeded max_dim={max_dim}")
        return True

    for g in gens:
        try_add(np.asarray(g, dtype=complex))
    frontier = list(range(len(basis_mats)))
    while frontier:
        new_frontier = []
        n_old = len(basis_mats)
        for a in frontier:
            for b in range(len(basis_mats)):
                comm = (basis_mats[a] @ basis_mats[b] - basis_mats[b] @ basis_mats[a]) / 1j
                if try_add(comm):
                    new_frontier.append(len(basis_mats) - 1)
        # commutators among newly added elements are covered in the next sweep
        frontier = new_frontier if len(basis_mats) > n_old else []
    return LieClosure(tuple(basis_mats), len(basis_mats))


# ---------------------------------------------------------------------------
# logical channels

@dataclass(frozen=True)
class LogicalChannel:
    """Superoperator on the logical space, row-major vectorization."""

    superop: np.ndarray
    D: int

    def apply(self, sigma: np.ndarray) -> np.ndarray:
        return unvec(self.superop @ vec(sigma))

    def compose(self, other: "LogicalChannel") -> "LogicalChannel":
        """self after other."""
        return LogicalChannel(self.superop @ other.superop, self.D)

    def power(self, n: int) -> "LogicalChannel":
        return LogicalChannel(np.linalg.matrix_power(self.superop, n), self.D)


def identity_channel(D: int) -> LogicalChannel:
    return LogicalChannel(np.eye(D * D, dtype=complex), D)


def unitary_channel(U: np.ndarray) -> LogicalChannel:
    return LogicalChannel(np.kron(U, U.conj()), U.shape[0])


def channel_distance(a: LogicalChannel, b: LogicalChannel) -> float:
    """Frobenius distance between superoperators, normalized by the logical dimension."""
    return float(np.linalg.norm(a.superop - b.superop) / a.D)


def choi_matrix(ch: LogicalChannel) -> np.ndarray:
    D = ch.D
    s4 = ch.superop.reshape(D, D, D, D)
    return s4.transpose(2, 0, 3, 1).reshape(D * D, D * D)


def choi_min_eigenvalue(ch: LogicalChannel) -> float:
    j = choi_matrix(ch)
    return float(np.linalg.eigvalsh((j + j.conj().T) / 2)[0])


def trace_preservation_defect(ch: LogicalChannel) -> float:
    D = ch.D
    s4 = ch.superop.reshape(D, D, D, D)
    tp = np.einsum("aacd->cd", s4)
    return float(np.max(np.abs(tp - np.eye(D))))


def choi_fidelity(ch: LogicalChannel, U: np.ndarray) -> float:
    """Fidelity <psi| J |psi> of the normalized Choi state J of ch with the pure Choi state of U.

    For a unitary target this equals the Uhlmann fidelity, without its matrix
    square roots, whose rounding near a pure state costs ~1e-8.
    """
    psi = U.T.reshape(-1) / np.sqrt(ch.D)  # the Choi matrix of U is D psi psi^dag
    return float((psi.conj() @ choi_matrix(ch) @ psi).real / ch.D)


def validate_channel(ch: LogicalChannel, tp_tol: float = 1e-10, cp_tol: float = 1e-10) -> None:
    tp = trace_preservation_defect(ch)
    if tp > tp_tol:
        raise ValidationError(f"channel is not trace preserving: defect {tp:.3e}")
    cmin = choi_min_eigenvalue(ch)
    if cmin < -cp_tol:
        raise ValidationError(f"channel is not completely positive: Choi min eigenvalue {cmin:.3e}")


# ---------------------------------------------------------------------------
# exact step channels

def basis_matrix(d: int, pair: tuple[int, int], alpha: float, beta: float) -> np.ndarray:
    """Unitary whose columns are the tilted measurement basis vectors.

    Column i: cos(a)|i> + e^{i b} sin(a)|j>;  column j: sin(a)|i> - e^{i b} cos(a)|j>;
    remaining columns stay in the wire basis.
    """
    i, j = check_pair(d, pair)
    u = np.eye(d, dtype=complex)
    ca, sa, ph = np.cos(alpha), np.sin(alpha), np.exp(1j * beta)
    u[i, i] = ca
    u[j, i] = ph * sa
    u[i, j] = sa
    u[j, j] = -ph * ca
    return u


def step_virtual_ops(point: PhasePoint, pair: tuple[int, int], alpha: float, beta: float) -> np.ndarray:
    """Byproduct-corrected virtual action for each outcome of one tilted-basis site, shape (d, Db, Db).

    Outcome k is labeled by the wire-basis index its basis vector is dominated
    by; the correction applied is C_k^-1 on the logical factor.
    """
    u = basis_matrix(point.d, pair, alpha, beta)
    tensors = point.site_tensors()
    ident_j = np.eye(point.Dj)
    ops = []
    for k in range(point.d):
        m = sum(np.conj(u[i, k]) * tensors[i] for i in range(point.d) if u[i, k] != 0)
        ops.append(np.kron(point.C[k].conj().T, ident_j) @ m)
    return np.stack(ops)


def wire_superop(point: PhasePoint) -> np.ndarray:
    """Superoperator of one oblivious-wire site on the full bond space: I (x) L.

    A dense reference for `Analysis.wire`, which applies the same map on the
    junk factor only.
    """
    ident = np.eye(point.D)
    return sum(np.kron(np.kron(ident, b), np.kron(ident, b).conj()) for b in point.B)


def outcome_states(analysis: Analysis, ops: np.ndarray, x: np.ndarray,
                   wire_n: int | None = None) -> np.ndarray:
    """The tilted-site map: op_k x op_k^dag followed by wire_n wire sites, for each outcome k.

    `ops` (n_out, Db, Db) are per-outcome virtual actions (`step_virtual_ops`),
    `x` bond-space operators of shape (..., Db, Db); the result has shape
    (n_out, ..., Db, Db) and is not renormalized.  wire_n None picks the model's
    wire length.
    """
    if wire_n is None:
        wire_n = analysis.wire_length
    x = np.asarray(x, dtype=complex)
    ops = np.asarray(ops).reshape((-1,) + (1,) * (x.ndim - 2) + x.shape[-2:])
    return analysis.wire(ops @ x @ ops.conj().swapaxes(-1, -2), wire_n)


def step_channel(
    analysis: Analysis,
    pair: tuple[int, int],
    alpha: float,
    beta: float,
    wire_n: int | None = None,
) -> LogicalChannel:
    """Exact logical channel of one tilted-basis step on a fixed-point junk input.

    Column c D + d is the junk trace of the outcome sum of `outcome_states` on
    |c><d| (x) rho_fix; the channel is scaled so that the mean trace of the
    images of |c><c| is one.
    """
    point = analysis.point
    D, Dj = point.D, point.Dj
    units = np.kron(np.eye(D * D, dtype=complex).reshape(D * D, D, D), analysis.fix.rho)
    out = outcome_states(analysis, step_virtual_ops(point, pair, alpha, beta), units, wire_n).sum(axis=0)
    T = out.reshape(D * D, D, Dj, D, Dj).trace(axis1=2, axis2=4).reshape(D * D, D * D).T
    scale = np.trace(np.einsum("aacd->cd", T.reshape(D, D, D, D))).real / D
    return LogicalChannel(T / scale, D)


def rotation_step_channel(analysis: Analysis, step: GateStep) -> LogicalChannel:
    """One small-angle gate step; the basis angle is arctan(dalpha) so the
    unnormalized first-order basis vectors |i> + dalpha e^{i beta}|j> are reproduced exactly."""
    return step_channel(analysis, step.pair, np.arctan(step.dalpha), step.beta, wire_n=step.wire_n)


def rotation_target_unitary(analysis: Analysis, pair: tuple[int, int],
                            alpha: float, beta: float) -> np.ndarray:
    """exp(i alpha h) for the Hermitian generator h = |nu_ji| (e^{-i(beta+delta)} C - h.c.)/i
    of the realized rotation."""
    obs = analysis.pair(pair)
    f = obs.filter
    m = abs(f.nu_ji) * np.exp(-1j * (beta + f.delta)) * obs.C
    h = (m - m.conj().T) / 1j
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(1j * alpha * w)) @ v.conj().T


@dataclass(frozen=True)
class FiniteRotation:
    channel: LogicalChannel
    target: np.ndarray
    distance: float
    choi_fid: float


def finite_rotation(
    analysis: Analysis,
    pair: tuple[int, int],
    alpha: float,
    beta: float,
    N: int,
    wire_n: int | None = None,
) -> FiniteRotation:
    """Finite-angle rotation as N small steps of dalpha = alpha/N, with its distance to the target."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    if not (np.isfinite(alpha) and np.isfinite(beta)):
        raise ValidationError(f"rotation angles must be finite, got alpha={alpha}, beta={beta}")
    step = step_channel(analysis, pair, np.arctan(alpha / N), beta, wire_n=wire_n)
    chan = step.power(N)
    target = rotation_target_unitary(analysis, pair, alpha, beta)
    return FiniteRotation(
        channel=chan,
        target=target,
        distance=channel_distance(chan, unitary_channel(target)),
        choi_fid=choi_fidelity(chan, target),
    )


# ---------------------------------------------------------------------------
# composition

def nonselective_measurement_channel(analysis: Analysis, step: MeasureStep) -> LogicalChannel:
    """Path sum over all outcomes of the full accumulated weak measurement block."""
    real, imag = (step_channel(analysis, step.pair, step.alpha, beta, wire_n=step.wire_n).power(steps)
                  for steps, beta in step.schedule)
    return imag.compose(real)


def principal_vector(projector: np.ndarray) -> np.ndarray:
    """Eigenvector of the largest eigenvalue of a Hermitian matrix (a projector's range, if rank one)."""
    w, v = np.linalg.eigh(projector)
    return v[:, -1]


def compose_program(analysis: Analysis, program: GateProgram) -> LogicalChannel:
    """Sequential step channels; valid because byproducts propagate through adapted bases.

    Raises SymmetryConditionViolated when the byproduct operators are not
    (phases times) elements of the Heisenberg-Weyl representation, which is the
    condition that makes the basis rewriting possible.
    """
    analysis.labels  # the symmetry condition, checked before any step
    point = analysis.point
    total = identity_channel(point.D)
    for step in program.steps:
        if isinstance(step, GateStep):
            ch = rotation_step_channel(analysis, step)
            if step.repeats > 1:
                ch = ch.power(step.repeats)
        elif isinstance(step, MeasureStep):
            ch = nonselective_measurement_channel(analysis, step)
        elif isinstance(step, WireStep):
            ch = identity_channel(point.D)  # wire acts as identity on the logical factor
        else:
            raise ValidationError(f"unknown step type {type(step).__name__}")
        total = ch.compose(total)
    return total


# ---------------------------------------------------------------------------
# SU(2) compilation

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_AXIS_VEC = {"x": np.array([1.0, 0, 0]), "y": np.array([0, 1.0, 0]), "z": np.array([0, 0, 1.0])}


@dataclass(frozen=True)
class PauliAxis:
    pair: tuple[int, int]
    key: str
    gamma: float  # C = e^{i gamma} sigma_key
    weight: float  # |nu_ji|
    delta: float


def available_axes(analysis: Analysis) -> dict[str, PauliAxis]:
    """Best realizable Pauli rotation axis per direction, weighted by |nu_ji|.

    Pauli axes exist only on a qubit logical space; for D != 2 there are none.
    """
    point = analysis.point
    axes: dict[str, PauliAxis] = {}
    if point.D != 2:
        return axes
    for i in range(point.d):
        for j in range(i + 1, point.d):
            c = pair_operator(point, (i, j))
            if abs(np.trace(c)) > 1e-10:
                continue
            coeffs = {k: np.trace(p @ c) / 2 for k, p in _PAULI.items()}
            mags = {k: abs(v) for k, v in coeffs.items()}
            key = max(mags, key=mags.get)
            rest = sum(m for k, m in mags.items() if k != key)
            if mags[key] < 1 - 1e-10 or rest > 1e-10:
                continue
            off = complex(analysis.nu.nu[j, i])  # nu_ji sets the rotation speed and phase
            if abs(off) < 1e-12:
                continue
            axis = PauliAxis(pair=(i, j), key=key, gamma=float(np.angle(coeffs[key])),
                             weight=abs(off), delta=float(-np.angle(off)))
            if key not in axes or axis.weight > axes[key].weight:
                axes[key] = axis
    return axes


def _su2_normalize(U: np.ndarray) -> np.ndarray:
    det = np.linalg.det(U)
    return U / np.sqrt(det)


def _su2_quaternion(U: np.ndarray) -> np.ndarray:
    u = _su2_normalize(U)
    w = np.trace(u) / 2
    comps = [1j * np.trace(p @ u) / 2 for p in (_PAULI["x"], _PAULI["y"], _PAULI["z"])]
    q = np.array([w.real, comps[0].real, comps[1].real, comps[2].real])
    return q / np.linalg.norm(q)


def _su2_to_so3(U: np.ndarray) -> np.ndarray:
    u = _su2_normalize(U)
    keys = ("x", "y", "z")
    r = np.empty((3, 3))
    for a, ka in enumerate(keys):
        for b, kb in enumerate(keys):
            r[a, b] = 0.5 * np.trace(_PAULI[ka] @ u @ _PAULI[kb] @ u.conj().T).real
    return r


def _euler_angles(target: np.ndarray, k1: str, k2: str) -> tuple[float, float, float]:
    """Angles (a, b, c) with target ~ R_{k1}(a) R_{k2}(b) R_{k1}(c) up to global phase."""
    e1, e2 = _AXIS_VEC[k1], _AXIS_VEC[k2]
    e3 = np.cross(e1, e2)
    m = np.stack([-e3, e2, e1])  # maps e1 -> z, e2 -> y, det +1
    r = m @ _su2_to_so3(target) @ m.T
    sb = np.hypot(r[0, 2], r[1, 2])
    b = np.arctan2(sb, r[2, 2])
    if sb > 1e-12:
        a = np.arctan2(r[1, 2], r[0, 2])
        c = np.arctan2(r[2, 1], -r[2, 0])
    else:
        a = np.arctan2(r[1, 0], r[0, 0]) if r[2, 2] > 0 else np.arctan2(-r[1, 0], -r[0, 0])
        c = 0.0
        if r[2, 2] < 0:
            b = np.pi
    return float(a), float(b), float(c)


@dataclass(frozen=True)
class CompiledRotation:
    program: GateProgram
    predicted_sites: int
    predicted_error: float


def compile_su2(
    target: np.ndarray,
    analysis: Analysis,
    error_budget: float,
) -> CompiledRotation:
    """Euler-style decomposition of a 2x2 special unitary into realizable finite rotations."""
    point = analysis.point
    if point.D != 2:
        raise ClosureTooSmall("compile_su2 requires a qubit logical space")
    closure = lie_closure(generator_set(point), traceless=True)
    if closure.dim < 3:
        raise ClosureTooSmall(f"realizable algebra has dimension {closure.dim} < 3")
    axes = available_axes(analysis)
    if len(axes) < 2:
        raise ClosureTooSmall("fewer than two non-commuting Pauli axes available")

    q = _su2_quaternion(target)
    if abs(q[0]) > 1 - 1e-12:
        return CompiledRotation(GateProgram(()), 0, 0.0)

    ranked = sorted(axes.values(), key=lambda ax: -ax.weight)
    rotations: list[tuple[PauliAxis, float]] = []
    vec_part = q[1:]
    vnorm = np.linalg.norm(vec_part)
    aligned = None
    for ax in ranked:
        if abs(abs(np.dot(vec_part / vnorm, _AXIS_VEC[ax.key])) - 1) < 1e-12:
            aligned = ax
            break
    if aligned is not None:
        theta = 2 * np.arctan2(vnorm, q[0])
        if np.dot(vec_part, _AXIS_VEC[aligned.key]) < 0:
            theta = -theta
        rotations.append((aligned, theta))
    else:
        ax1, ax2 = ranked[0], ranked[1]
        a, b, c = _euler_angles(target, ax1.key, ax2.key)
        rotations = [(ax1, c), (ax2, b), (ax1, a)]  # applied left to right in program order

    steps = []
    predicted_error = 0.0
    n_rot = max(1, len([1 for _, th in rotations if abs(th) > 1e-12]))
    for ax, theta in rotations:
        theta = float(np.angle(np.exp(1j * theta)))
        if abs(theta) < 1e-12:
            continue
        alpha_tot = -theta / (4 * ax.weight)
        beta = ax.gamma - ax.delta - np.pi / 2
        per_budget = error_budget / n_rot
        n_steps = max(1, int(np.ceil(abs(alpha_tot) / 0.19)), int(np.ceil(30 * alpha_tot ** 2 / per_budget)))
        steps.append(GateStep(pair=ax.pair, dalpha=alpha_tot / n_steps, beta=beta, repeats=n_steps))
        predicted_error += 10 * alpha_tot ** 2 / n_steps
    program = GateProgram(tuple(steps))
    return CompiledRotation(program, program.site_budget(analysis), predicted_error)


# ---------------------------------------------------------------------------
# interaction picture

def controlled_byproduct(point: PhasePoint) -> np.ndarray:
    """Lambda(C) = sum_i |i><i| (x) C_i, physical control, logical target."""
    d, D = point.d, point.D
    lam = np.zeros((d * D, d * D), dtype=complex)
    for i in range(d):
        lam[i * D:(i + 1) * D, i * D:(i + 1) * D] = point.C[i]
    return lam


def interaction_step(analysis: Analysis, sigma: np.ndarray, U: np.ndarray) -> np.ndarray:
    """One gate by coupling an ancilla prepared in the state nu to the logical system.

    Evaluates Tr_P[ G (nu (x) sigma) G^dag ] with G = Lambda(C)^dag (U (x) I) Lambda(C).
    """
    point = analysis.point
    lam = controlled_byproduct(point)
    g = lam.conj().T @ np.kron(U, np.eye(point.D)) @ lam
    full = g @ np.kron(analysis.nu.nu, sigma) @ g.conj().T
    return full.reshape(point.d, point.D, point.d, point.D).trace(axis1=0, axis2=2)


def step_interaction_unitary(point: PhasePoint, step: GateStep) -> np.ndarray:
    """Ancilla unitary reproducing the gate step: the measurement-to-wire basis change."""
    return basis_matrix(point.d, step.pair, np.arctan(step.dalpha), step.beta).conj().T
