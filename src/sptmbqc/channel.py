"""Transfer-channel machinery on the junk and virtual spaces.

Vectorization is row-major throughout: vec(rho) = rho.reshape(-1), so the
superoperator of rho -> sum_k K_k rho K_k^dag is sum_k kron(K_k, conj(K_k)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateLeadingEigenvalue,
    NonPositiveFixedPoint,
    SymmetryConditionViolated,
    ValidationError,
)
from .model import PhasePoint, check_byproduct_symmetry, encode_matrix, weyl_symmetry_data, weyl_unitary

DEGENERACY_TOL = 1e-12
NU_TOL = 1e-10
WIRE_FLOOR = 20
WIRE_XI_FACTOR = 30.0
PI_WRAP_TOL = 1e-12  # eigenphases this close to -pi are reported as +pi
RESIDUAL_CHUNK = 128  # wire lengths per batched SVD in residual_curve; bounds its memory


def vec(rho: np.ndarray) -> np.ndarray:
    return rho.reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    dim = int(round(np.sqrt(v.size)))
    return v.reshape(dim, dim)


@dataclass(frozen=True)
class Channel:
    """Completely positive map given by a Kraus family; superoperator built on first use."""

    kraus: tuple[np.ndarray, ...]

    @classmethod
    def from_kraus(cls, kraus) -> "Channel":
        mats = tuple(np.asarray(k, dtype=complex) for k in kraus)
        dim = mats[0].shape[0]
        if any(k.shape != (dim, dim) for k in mats):
            raise ValidationError("all Kraus operators must be square and of equal dimension")
        return cls(kraus=mats)

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @cached_property
    def superop(self) -> np.ndarray:
        return sum(np.kron(k, k.conj()) for k in self.kraus)

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and right eigenvectors of the superoperator, computed once."""
        return np.linalg.eig(self.superop)

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        k = np.stack(self.kraus)
        return k, k.conj().swapaxes(-1, -2)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        k, k_dag = self._stacked
        return (k @ rho @ k_dag).sum(axis=0)

    def adjoint(self) -> "Channel":
        return Channel.from_kraus([k.conj().T for k in self.kraus])


def junk_channel(point: PhasePoint) -> Channel:
    """L(rho) = sum_i B_i rho B_i^dag on the junk space."""
    return Channel.from_kraus(point.B)


def reverse_junk_channel(point: PhasePoint) -> Channel:
    """Lbar(rho) = sum_i B_i^dag rho B_i (the adjoint of the junk channel)."""
    return Channel.from_kraus([b.conj().T for b in point.B])


def reverse_full_channel(point: PhasePoint) -> Channel:
    """Fbar(tau) = sum_i A_i^dag tau A_i, the right-to-left transfer map."""
    return Channel.from_kraus([a.conj().T for a in point.site_tensors()])


@dataclass(frozen=True)
class ChannelSpectrum:
    eigenvalues: np.ndarray  # sorted by decreasing magnitude
    correlation_length: float


def _spectrum_of(w: np.ndarray, degeneracy_tol: float = DEGENERACY_TOL) -> ChannelSpectrum:
    """Sort eigenvalues by decreasing magnitude; raise if the top one is degenerate in magnitude."""
    w = w[np.argsort(-np.abs(w))]
    if abs(w[0]) < degeneracy_tol:
        raise DegenerateLeadingEigenvalue("channel has no nonzero eigenvalue")
    if len(w) > 1 and abs(w[0]) - abs(w[1]) < degeneracy_tol:
        raise DegenerateLeadingEigenvalue(
            f"|lambda_0| - |lambda_1| = {abs(w[0]) - abs(w[1]):.3e} < {degeneracy_tol}"
        )
    xi = 0.0
    if len(w) > 1 and 0.0 < abs(w[1]) < 1.0:
        xi = -1.0 / np.log(abs(w[1]) / abs(w[0]))
    return ChannelSpectrum(eigenvalues=w, correlation_length=float(xi))


def spectrum(ch: Channel, degeneracy_tol: float = DEGENERACY_TOL) -> ChannelSpectrum:
    """Full superoperator spectrum; raises if the top eigenvalue is degenerate in magnitude."""
    return _spectrum_of(np.linalg.eigvals(ch.superop), degeneracy_tol)


def default_wire_length(point: PhasePoint) -> int:
    """Wire length after which the junk system is taken to be at its fixed point."""
    return analyze(point).wire_length


def _hermitian_from_eigvec(v: np.ndarray) -> np.ndarray:
    m = unvec(v)
    tr = np.trace(m)
    if abs(tr) > 1e-14:
        m = m * (tr.conjugate() / abs(tr))
    h = (m + m.conj().T) / 2
    return h


@dataclass(frozen=True)
class FixedPoint:
    """Right fixed point rho (PSD, trace one) and left fixed functional ell, <ell, rho> = 1."""

    rho: np.ndarray
    ell: np.ndarray
    eigenvalue: float


def fixed_point(ch: Channel, tol: float = 1e-12) -> FixedPoint:
    """Leading eigenoperators of a channel with non-degenerate top eigenvalue.

    rho is canonicalized to positive semidefinite with unit trace; ell is the
    Hermitian fixed point of the adjoint channel scaled so Tr(ell rho) = 1, so
    that lim L^n(X) = Tr(ell X) rho.
    """
    w, vecs = ch.eig
    lam0 = _spectrum_of(w).eigenvalues[0]  # raises DegenerateLeadingEigenvalue when appropriate
    idx = int(np.argmax(np.abs(w)))
    rho = _hermitian_from_eigvec(vecs[:, idx])
    eigs = np.linalg.eigvalsh(rho)
    scale = max(abs(eigs[0]), abs(eigs[-1]))
    if eigs[0] < -NU_TOL * scale and eigs[-1] > NU_TOL * scale:
        raise NonPositiveFixedPoint(
            f"fixed-point eigenvalues span [{eigs[0]:.3e}, {eigs[-1]:.3e}]; neither sign is PSD"
        )
    if np.trace(rho).real < 0:
        rho = -rho
    rho = rho / np.trace(rho).real

    wl, vl = np.linalg.eig(ch.superop.conj().T)
    idxl = int(np.argmax(np.abs(wl)))
    ell = _hermitian_from_eigvec(vl[:, idxl])
    overlap = np.trace(ell @ rho)
    if abs(overlap) < 1e-14:
        raise NonPositiveFixedPoint("left and right fixed points are orthogonal")
    ell = ell / overlap.real

    residual = np.linalg.norm(ch.apply(rho) - lam0 * rho)
    if residual > tol:
        raise ValidationError(f"fixed-point residual {residual:.3e} exceeds {tol}")
    return FixedPoint(rho=rho, ell=ell, eigenvalue=float(abs(lam0)))


@dataclass(frozen=True)
class NuMatrix:
    """Hermitian, trace-one, PSD matrix nu_ij with lim L^n(B_i rho_fix B_j^dag) = nu_ij rho_fix.

    delta is the phase convention nu_10 = |nu_10| exp(-i delta).
    """

    nu: np.ndarray
    delta: float

    def __post_init__(self):
        a = np.array(self.nu, dtype=complex)
        a.setflags(write=False)
        object.__setattr__(self, "nu", a)

    @property
    def d(self) -> int:
        return self.nu.shape[0]


def nu_matrix(analysis: Analysis | PhasePoint) -> NuMatrix:
    """nu_ij = <ell, B_i rho_fix B_j^dag> from the spectral fixed-point pair.

    A bare phase point is analyzed first.
    """
    if isinstance(analysis, PhasePoint):
        return analyze(analysis).nu
    fix, B = analysis.fix, analysis.point.B
    d = len(B)
    nu = np.empty((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            nu[i, j] = np.trace(fix.ell @ B[i] @ fix.rho @ B[j].conj().T)
    herm_dev = np.linalg.norm(nu - nu.conj().T)
    trace_dev = abs(np.trace(nu) - 1.0)
    min_eig = float(np.linalg.eigvalsh((nu + nu.conj().T) / 2)[0])
    if herm_dev > NU_TOL or trace_dev > NU_TOL or min_eig < -NU_TOL:
        raise ValidationError(
            f"nu-matrix invariants violated: hermiticity {herm_dev:.3e}, trace {trace_dev:.3e}, min eig {min_eig:.3e}"
        )
    delta = float(-np.angle(nu[1, 0])) if d >= 2 and abs(nu[1, 0]) > 1e-15 else 0.0
    return NuMatrix(nu=nu, delta=delta)


def pair_operator(point: PhasePoint, pair: tuple[int, int]) -> np.ndarray:
    """C = C_i^-1 C_j for the selected basis pair."""
    i, j = pair
    return point.C[i].conj().T @ point.C[j]


def eigenphase_groups(C: np.ndarray, tol: float = 1e-8) -> tuple[np.ndarray, list[np.ndarray]]:
    """Distinct eigenphases of a unitary and the projectors onto their eigenspaces.

    Phases lie in (-pi, pi]: an eigenvalue -1 has phase pi, whatever the sign
    of the rounding in its imaginary part.  Each projector comes from an
    orthonormal (QR) basis of its group's eigenvectors.
    """
    vals, vecs = np.linalg.eig(np.asarray(C, dtype=complex))
    phis = np.angle(vals)
    phis[phis < -np.pi + PI_WRAP_TOL] = np.pi
    groups: list[list[int]] = []
    reps: list[float] = []
    for idx, phi in enumerate(phis):
        placed = False
        for g, rep in enumerate(reps):
            diff = np.angle(np.exp(1j * (phi - rep)))
            if abs(diff) < tol:
                groups[g].append(idx)
                placed = True
                break
        if not placed:
            groups.append([idx])
            reps.append(phi)
    order = np.argsort(reps)
    out_phis = np.array([reps[g] for g in order])
    projectors = []
    for g in order:
        basis = np.linalg.qr(vecs[:, groups[g]])[0]
        projectors.append(basis @ basis.conj().T)
    return out_phis, projectors


@dataclass(frozen=True)
class PairFilter:
    """The three numbers that drive one pair's filter functions."""

    nu_ii: float
    nu_jj: float
    nu_ji: complex
    rest: float = 0.0  # total weight of outcomes outside the pair

    @classmethod
    def from_nu(cls, nu: NuMatrix, pair: tuple[int, int]) -> "PairFilter":
        i, j = pair
        rest = float(sum(nu.nu[k, k].real for k in range(nu.d) if k not in pair))
        return cls(nu_ii=float(nu.nu[i, i].real), nu_jj=float(nu.nu[j, j].real),
                   nu_ji=complex(nu.nu[j, i]), rest=rest)

    @property
    def delta(self) -> float:
        return float(-np.angle(self.nu_ji)) if abs(self.nu_ji) > 0 else 0.0


def check_pair(d: int, pair) -> tuple[int, int]:
    """The index pair (i, j) as ints, checked to name two of d outcomes with 0 <= i < j < d."""
    i, j = pair
    if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer)) and 0 <= i < j < d):
        raise ValidationError(f"pair {pair} is not an index pair with 0 <= i < j <= {d - 1}")
    return int(i), int(j)


@dataclass(frozen=True, eq=False)
class Pair:
    """The pair observable C = C_i^-1 C_j of one phase point, for a checked index pair.

    Eigenphases (ascending) and their projectors come from one
    `eigenphase_groups` call; the filter numbers are read from nu on first use.
    """

    analysis: Analysis = field(repr=False)
    index: tuple[int, int]
    C: np.ndarray = field(repr=False)
    eigenphases: np.ndarray
    projectors: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        for a in (self.C, self.eigenphases, *self.projectors):
            a.setflags(write=False)

    @cached_property
    def filter(self) -> PairFilter:
        return PairFilter.from_nu(self.analysis.nu, self.index)


@dataclass(frozen=True, eq=False)
class Analysis:
    """Everything the gates, measurements and wires of one phase point depend on.

    Each quantity is computed on first use and kept, so a command pays only
    for (and fails only on) the quantities it reads.
    """

    point: PhasePoint
    _powers: dict = field(default_factory=dict, init=False, repr=False)
    _pairs: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def junk(self) -> Channel:
        return junk_channel(self.point)

    @cached_property
    def xi(self) -> float:
        """Correlation length of the junk channel, from the eigenvalues the fixed point uses."""
        return _spectrum_of(self.junk.eig[0]).correlation_length

    @cached_property
    def fix(self) -> FixedPoint:
        return fixed_point(self.junk)

    @cached_property
    def fbar(self) -> Channel:
        """The right-to-left transfer map Fbar(tau) = sum_i A_i^dag tau A_i."""
        return reverse_full_channel(self.point)

    @cached_property
    def nu(self) -> NuMatrix:
        return nu_matrix(self)

    @cached_property
    def wire_length(self) -> int:
        """Wire length after which the junk system is taken to be at its fixed point."""
        return max(WIRE_FLOOR, int(np.ceil(WIRE_XI_FACTOR * self.xi)))

    @cached_property
    def labels(self) -> tuple[tuple[int, int], ...]:
        """Z_D x Z_D label g of each byproduct, C_i = phase * V(g): the symmetry condition.

        Raises SymmetryConditionViolated, naming the byproducts that fail it.
        """
        report = check_byproduct_symmetry(self.point, weyl_symmetry_data(self.point.D))
        bad = [m.index for m in report.matches if m.group_element is None]
        if bad:
            raise SymmetryConditionViolated(f"byproduct operators {bad} are not in the projective representation")
        return tuple(m.group_element for m in report.matches)

    @cached_property
    def weyl(self) -> np.ndarray:
        """V(g) (x) I_junk for every label g = (a, b), shape (D, D, Db, Db), indexed [a, b]."""
        D, ident_j = self.point.D, np.eye(self.point.Dj)
        return np.array([[np.kron(weyl_unitary(D, a, b), ident_j) for b in range(D)] for a in range(D)])

    def pair(self, ij) -> Pair:
        """The pair observable of the index pair ij = (i, j), checked, and cached per pair."""
        ij = check_pair(self.point.d, ij)
        if ij not in self._pairs:
            C = pair_operator(self.point, ij)
            phis, projectors = eigenphase_groups(C)
            self._pairs[ij] = Pair(self, ij, C, phis, tuple(projectors))
        return self._pairs[ij]

    def junk_power(self, n: int) -> np.ndarray:
        """Superoperator of L^n on the junk space, cached per n."""
        if n not in self._powers:
            self._powers[n] = np.linalg.matrix_power(self.junk.superop, n)
        return self._powers[n]

    def wire(self, x: np.ndarray, n: int) -> np.ndarray:
        """I (x) L^n applied to bond-space operators x of shape (..., Db, Db); no renormalization.

        The map acts on the junk factor only: x is regrouped into logical
        blocks of junk operators, each of which L^n maps.
        """
        x = np.asarray(x, dtype=complex)
        D, Dj = self.point.D, self.point.Dj
        blocks = logical_junk_blocks(x, D, Dj) @ self.junk_power(n).T
        return blocks.reshape(x.shape[:-2] + (D, D, Dj, Dj)).swapaxes(-3, -2).reshape(x.shape)


def logical_junk_blocks(x: np.ndarray, D: int, Dj: int) -> np.ndarray:
    """Bond operators (..., D*Dj, D*Dj) regrouped as (..., D*D, Dj*Dj): row (a, b) is the junk block <a|x|b>."""
    lead = x.shape[:-2]
    return x.reshape(lead + (D, Dj, D, Dj)).swapaxes(-3, -2).reshape(lead + (D * D, Dj * Dj))


def analyze(point: PhasePoint) -> Analysis:
    """Per-point analysis; nothing is computed until a field is read."""
    return Analysis(point)


def nu_iteration_deviation(analysis: Analysis, n: int | None = None) -> float:
    """Max entrywise norm of L^n(B_i rho_fix B_j^dag) - nu_ij rho_fix (gauge cross-check)."""
    if n is None:
        n = analysis.wire_length
    B, rho, nu = analysis.point.B, analysis.fix.rho, analysis.nu.nu
    powered = analysis.junk_power(n)
    worst = 0.0
    for i in range(len(B)):
        for j in range(len(B)):
            iterated = unvec(powered @ vec(B[i] @ rho @ B[j].conj().T))
            worst = max(worst, float(np.max(np.abs(iterated - nu[i, j] * rho))))
    return worst


@dataclass(frozen=True)
class VirtualState:
    """Density operator on the logical (x) junk bond space."""

    rho: np.ndarray
    D: int
    Dj: int

    def __post_init__(self):
        a = np.array(self.rho, dtype=complex)
        a.setflags(write=False)
        object.__setattr__(self, "rho", a)

    @property
    def dims(self) -> tuple[int, int]:
        return (self.D, self.Dj)

    def validate(self, tol: float = 1e-12, psd_tol: float = 1e-10) -> "VirtualState":
        if self.rho.shape != (self.D * self.Dj, self.D * self.Dj):
            raise ValidationError(f"state shape {self.rho.shape} does not match dims {self.dims}")
        if np.linalg.norm(self.rho - self.rho.conj().T) > tol:
            raise ValidationError("virtual state is not Hermitian")
        tr = np.trace(self.rho)
        if abs(tr.imag) > tol or tr.real <= 0:
            raise ValidationError(f"virtual state trace {tr} is not real and positive")
        if np.linalg.eigvalsh((self.rho + self.rho.conj().T) / 2)[0] < -psd_tol * tr.real:
            raise ValidationError("virtual state has a significantly negative eigenvalue")
        return self

    def normalized(self) -> "VirtualState":
        return VirtualState(self.rho / np.trace(self.rho).real, self.D, self.Dj)

    def logical_state(self) -> np.ndarray:
        return self.rho.reshape(self.D, self.Dj, self.D, self.Dj).trace(axis1=1, axis2=3)

    @classmethod
    def from_boundary_vector(cls, L: np.ndarray, D: int, Dj: int) -> "VirtualState":
        L = np.asarray(L, dtype=complex).reshape(-1)
        L = L / np.linalg.norm(L)
        return cls(np.outer(L, L.conj()), D, Dj)

    @classmethod
    def product(cls, sigma: np.ndarray, rho_junk: np.ndarray) -> "VirtualState":
        return cls(np.kron(sigma, rho_junk), sigma.shape[0], rho_junk.shape[0])


def random_unit_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random complex unit vector: n real then n imaginary standard-normal draws."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def oblivious_wire(state: VirtualState, analysis: Analysis, n: int) -> VirtualState:
    """Apply identity (x) L^n and renormalize to unit trace (exact finite-n map)."""
    if n == 0:
        return state.normalized()
    rho = analysis.wire(state.rho, n)
    return VirtualState(rho / np.trace(rho).real, state.D, state.Dj)


@dataclass(frozen=True)
class FactorizationResult:
    sigma: np.ndarray
    rho_junk: np.ndarray
    residual: float


def schmidt_residual(s: np.ndarray) -> np.ndarray:
    """s_1 / s_0 of descending singular values along the last axis; 0 where s_0 = 0 or only one exists."""
    s0 = s[..., 0]
    if s.shape[-1] < 2:
        return np.zeros_like(s0)
    return np.divide(s[..., 1], s0, out=np.zeros_like(s0), where=s0 > 0)


def factorization_check(state: VirtualState) -> FactorizationResult:
    """Best rank-one operator-Schmidt factor sigma (x) rho across the logical/junk cut.

    residual is the ratio of the second to the first operator-Schmidt value;
    rho is returned with unit trace and PSD orientation, sigma carries the scale.
    """
    D, Dj = state.D, state.Dj
    u, s, vh = np.linalg.svd(logical_junk_blocks(state.rho, D, Dj))
    residual = float(schmidt_residual(s))
    sigma = s[0] * u[:, 0].reshape(D, D)
    rho_j = vh[0, :].reshape(Dj, Dj)
    tr = np.trace(rho_j)
    if abs(tr) > 1e-14:
        sigma = sigma * tr
        rho_j = rho_j / tr
    sigma = (sigma + sigma.conj().T) / 2
    rho_j = (rho_j + rho_j.conj().T) / 2
    return FactorizationResult(sigma=sigma, rho_junk=rho_j, residual=residual)


def residual_curve(state: VirtualState, analysis: Analysis, n: int) -> np.ndarray:
    """factorization_check(oblivious_wire(state, analysis, k)).residual for k = 0..n.

    The wire multiplies the logical/junk block matrix by L^T from the right and
    the residual does not depend on scale.  Each chunk of RESIDUAL_CHUNK
    lengths stacks its block matrices by doubling (the stack so far, times L^T
    to the power of its length) and takes one batched SVD.
    """
    squares = [analysis.junk_power(1).T]  # (L^T)^(2^j)
    blocks = logical_junk_blocks(state.rho, state.D, state.Dj)
    out = np.empty(n + 1)
    for start in range(0, n + 1, RESIDUAL_CHUNK):
        size = min(RESIDUAL_CHUNK, n + 1 - start)
        stack = blocks[None]
        while len(stack) < size:
            j = len(stack).bit_length() - 1
            if j == len(squares):
                squares.append(squares[-1] @ squares[-1])
            stack = np.concatenate([stack, stack[:size - len(stack)] @ squares[j]])
        out[start:start + size] = schmidt_residual(np.linalg.svd(stack, compute_uv=False))
        blocks = stack[-1] @ squares[0]
        blocks = blocks / np.linalg.norm(blocks)  # keeps long wires clear of overflow and underflow
    return out


def nu_export(analysis: Analysis) -> dict:
    """JSON-ready {"nu": [[re, im], ...], "delta": float, "xi": float}."""
    nu = analysis.nu
    return {"nu": encode_matrix(nu.nu), "delta": nu.delta, "xi": analysis.xi}
