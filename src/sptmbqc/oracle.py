"""Dense state-vector simulator of the physical chain, for cross-validation.

Everything the channel and trajectory engines compute on the bond space is
recomputed here by explicit amplitude enumeration on the d^n-dimensional
physical Hilbert space (times the bond space for the state with a physical
right boundary).  Flat string indices put site 1 in the most significant
digit.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import gates
from .channel import Analysis, analyze, random_unit_vector, reverse_full_channel
from .errors import SizeCapExceeded, ValidationError, VanishingProbability
from .model import PhasePoint

DEFAULT_CAP = 1 << 18
HARD_CAP = 1 << 26


class OracleMode(enum.Enum):
    PHI = "phi"              # <R| contracted: amplitudes over strings only
    PHI_TILDE = "phi_tilde"  # physical right boundary: one bond-space vector per string


@dataclass
class DenseResource:
    point: PhasePoint
    n: int
    mode: OracleMode
    L: np.ndarray
    R: np.ndarray | None
    amps: np.ndarray     # shape (d,)*n (+ (Db,) in PHI_TILDE mode), unit norm, read-only
    norm: float          # norm of the raw amplitudes, which amps are divided by

    @functools.cached_property
    def byproducts(self) -> np.ndarray:
        """Sigma(s) for every string of the resource, built once per resource."""
        return byproduct_products(self.point, self.n)


def build_state_vector(
    point: PhasePoint,
    n: int,
    mode: OracleMode = OracleMode.PHI_TILDE,
    L: np.ndarray | None = None,
    R: np.ndarray | None = None,
    cap: int = DEFAULT_CAP,
) -> DenseResource:
    """Explicit amplitudes A[i_n]...A[i_1]|L> (contracted with <R| in PHI mode)."""
    d, Db = point.d, point.Db
    count = d ** n * (Db if mode is OracleMode.PHI_TILDE else 1)
    if count > HARD_CAP:
        raise SizeCapExceeded(f"{count} amplitudes exceed the hard cap {HARD_CAP}")
    if count > cap:
        raise SizeCapExceeded(f"{count} amplitudes exceed the configured cap {cap}")
    if L is None:
        L = np.zeros(Db, dtype=complex)
        L[0] = 1.0
    L = np.asarray(L, dtype=complex).reshape(Db)
    # one GEMM per site: rows (..., b) times the columns (b, (i, a)) of every A[i]
    columns = point.site_tensors().reshape(d * Db, Db).T
    amps = L
    for _ in range(n):
        amps = amps.reshape(-1, Db) @ columns
    amps = amps.reshape((d,) * n + (Db,))
    if mode is OracleMode.PHI:
        if R is None:
            raise ValidationError("PHI mode needs a right boundary vector")
        R = np.asarray(R, dtype=complex).reshape(Db)
        amps = amps @ R.conj()
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValidationError("resource state has zero norm")
    amps = amps / norm
    amps.setflags(write=False)  # one resource is shared by several scenarios
    return DenseResource(point=point, n=n, mode=mode, L=L, R=R, amps=amps, norm=float(norm))


def _apply_site_basis(amps: np.ndarray, U: np.ndarray, axis: int) -> np.ndarray:
    """Rotate one site's amplitudes into the measurement basis (coefficients <b_k|i>)."""
    out = np.tensordot(amps, U.conj(), axes=(axis, 0))
    return np.moveaxis(out, -1, axis)


def _string_products(mats, n: int) -> np.ndarray:
    """M_{s_n} ... M_{s_1} for every string, flat order (site 1 most significant)."""
    mats = np.stack(mats).astype(complex)
    prod = np.eye(mats.shape[-1], dtype=complex)[None]
    for _ in range(n):
        prod = (mats[None] @ prod[:, None]).reshape((-1,) + mats.shape[1:])
    return prod


def byproduct_products(point: PhasePoint, n: int) -> np.ndarray:
    """Sigma(s) = C_{s_n} ... C_{s_1} for every string, flat order (site 1 most significant)."""
    return _string_products(point.C, n)


def junk_products(point: PhasePoint, n: int) -> np.ndarray:
    """prod_k B_{s_k} in the same flat order."""
    return _string_products(point.B, n)


@dataclass
class OracleResult:
    q: np.ndarray                       # joint outcome-string distribution, shape (d^n,)
    boundary_states: np.ndarray | None  # reversed, unnormalized rows (d^n, Db); PHI_TILDE only
    joint: np.ndarray | None            # q_A(s, o) when a boundary observable is given
    observable_eigenvalues: np.ndarray | None
    samples: np.ndarray | None          # sampled (string, outcome) pairs


def simulate_measurements(
    resource: DenseResource,
    site_bases: list[np.ndarray | None],
    reverse_byproduct: bool = False,
    boundary_observable: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    samples: int = 0,
) -> OracleResult:
    """Exact joint outcome distribution (and per-record boundary data) by enumeration.

    site_bases holds one d x d basis-column unitary per site (None = wire
    basis).  With reverse_byproduct the record-dependent Sigma(s)^-1 is applied
    to the logical factor of the boundary system; the boundary observable is a
    Hermitian operator on the logical space, measured as P_o (x) I_junk.

    With samples > 0, `samples` strings are drawn from q and then, when a
    boundary observable is given, one outcome per drawn string from its row of
    the joint law.  Both draws follow the rule of Generator.choice(k, p=law):
    each law is clipped at zero and normalized, its cdf is the cumulative sum
    divided by its last entry, one rng.random(samples) gives the uniforms u,
    and each index is the right insertion point of u in its cdf.  Outcomes and
    generator state equal those of one choice call for the strings followed by
    one choice call per sample.
    """
    point, n = resource.point, resource.n
    if len(site_bases) != n:
        raise ValidationError(f"expected {n} site bases, got {len(site_bases)}")
    amps = resource.amps
    for k, U in enumerate(site_bases):
        if U is not None:
            amps = _apply_site_basis(amps, np.asarray(U, dtype=complex), k)
    if resource.mode is OracleMode.PHI:
        q = np.abs(amps.reshape(-1)) ** 2
        return OracleResult(q=q, boundary_states=None, joint=None,
                            observable_eigenvalues=None,
                            samples=_sample(rng, q, None, samples))
    rows = amps.reshape(-1, point.Db)
    q = np.einsum("sb,sb->s", rows, rows.conj()).real
    if reverse_byproduct:
        sig_dag = resource.byproducts.conj().swapaxes(-1, -2)
        rows = (sig_dag @ rows.reshape(-1, point.D, point.Dj)).reshape(-1, point.Db)
    joint = None
    eigvals = None
    if boundary_observable is not None:
        obs = np.asarray(boundary_observable, dtype=complex)
        w, v = np.linalg.eigh(obs)
        groups = _eig_groups(w)
        eigvals = np.array([w[g[0]] for g in groups])
        joint = np.empty((rows.shape[0], len(groups)))
        rows6 = rows.reshape(-1, point.D, point.Dj)
        for o, g in enumerate(groups):
            p = v[:, g] @ v[:, g].conj().T
            joint[:, o] = (np.abs(np.tensordot(p, rows6, axes=(1, 1))) ** 2).sum(axis=(0, 2))
    return OracleResult(q=q, boundary_states=rows, joint=joint,
                        observable_eigenvalues=eigvals, samples=_sample(rng, q, joint, samples))


def _sample(rng, q, joint, samples):
    """Drawn strings, shape (samples, 1), or (string, outcome) pairs when a joint law is given."""
    if samples <= 0:
        return None
    strs = draw_indices(rng, q, samples)
    if joint is None:
        return strs[:, None]
    return np.stack([strs, draw_indices(rng, joint[strs], samples)], axis=1)


def draw_indices(rng: np.random.Generator | None, weights: np.ndarray, samples: int) -> np.ndarray:
    """`samples` indices by the rule of Generator.choice(k, p=law) (see simulate_measurements).

    A 1-D `weights` is one law for every draw; a 2-D one holds one law per draw,
    one row per sample.  A law whose clipped sum is zero or not finite raises
    VanishingProbability.
    """
    if rng is None:
        raise ValidationError("sampling requires an rng")
    p = np.clip(weights, 0, None)
    total = p.sum(axis=-1, keepdims=True)
    if not np.all(np.isfinite(total) & (total > 0)):
        raise VanishingProbability("an oracle outcome law has zero (or non-finite) total probability")
    cdf = np.cumsum(p / total, axis=-1)
    cdf /= cdf[..., -1:]
    u = rng.random(samples)
    if cdf.ndim == 1:
        return cdf.searchsorted(u, side="right")
    return (cdf <= u[:, None]).sum(axis=1)


def marginal_over_tail(q_full: np.ndarray, d: int, n: int, measured: int) -> np.ndarray:
    """Marginal of the leading `measured` sites when the trailing sites are traced out."""
    return q_full.reshape(d ** measured, -1).sum(axis=1)


# ---------------------------------------------------------------------------
# conformance scenarios: the same physics through the dense and bond-space engines

def _wire_bases(n: int) -> list[None]:
    return [None] * n


def _channel_wire_state(point: PhasePoint, L: np.ndarray, n: int) -> np.ndarray:
    """I (x) L^n applied to |L><L| via per-site corrected actions (bond-space path)."""
    tau = np.outer(L, L.conj())
    ident = np.eye(point.D)
    kraus = np.stack([np.kron(ident, b) for b in point.B])
    kraus_dag = kraus.conj().swapaxes(-1, -2)
    for _ in range(n):
        tau = (kraus @ tau @ kraus_dag).sum(axis=0)
    return tau / np.trace(tau).real


def scenario_wire(res: DenseResource, rev: OracleResult, j: np.ndarray) -> dict:
    """Procedures I/II/III on the resource's wire (product boundary L = l (x) j), both engines.

    `rev` is the resource's wire-basis simulation with the byproducts reversed.
    """
    point, n, L = res.point, res.n, res.L

    # Procedure III: path-summed boundary state equals I (x) L^n (|L><L|)
    rows = rev.boundary_states
    tau_oracle = rows.T @ rows.conj()
    tau_oracle /= np.trace(tau_oracle).real
    tau_chan = _channel_wire_state(point, L, n)
    dev_p3 = float(np.max(np.abs(tau_oracle - tau_chan)))

    # Procedure II: per-record reversed logical state is record-independent
    rows6 = rev.boundary_states.reshape(-1, point.D, point.Dj)
    logicals = np.einsum("saj,sbj->sab", rows6, rows6.conj())
    logicals = logicals / np.einsum("saa->s", logicals)[:, None, None]
    dev_p2 = float(np.max(np.abs(logicals - logicals[0])))

    # Procedure I marginal against the product-boundary junk-norm formula
    jp = junk_products(point, n)
    q_formula = (np.abs(jp @ j) ** 2).sum(axis=1)
    q_formula = q_formula / q_formula.sum()
    dev_q = float(np.max(np.abs(rev.q / rev.q.sum() - q_formula)))
    return {"procedure_iii_state": dev_p3, "procedure_ii_invariance": dev_p2,
            "wire_marginal_formula": dev_q}


def scenario_gate_step(analysis: Analysis, res: DenseResource, pair, dalpha: float, beta: float) -> dict:
    """One tilted site + (n-1)-site wire with reversal, path-summed, both engines."""
    point, n, L = analysis.point, res.n, res.L
    bases = [gates.basis_matrix(point.d, pair, np.arctan(dalpha), beta)] + [None] * (n - 1)
    rev = simulate_measurements(res, bases, reverse_byproduct=True)
    rows = rev.boundary_states
    tau_oracle = rows.T @ rows.conj()
    tau_oracle /= np.trace(tau_oracle).real

    ops = gates.step_virtual_ops(point, pair, np.arctan(dalpha), beta)
    tau_chan = gates.outcome_states(analysis, ops, np.outer(L, L.conj()), n - 1).sum(axis=0)
    tau_chan /= np.trace(tau_chan).real
    return {"gate_step_state": float(np.max(np.abs(tau_oracle - tau_chan)))}


def scenario_weak_step(analysis: Analysis, res: DenseResource, pair, alpha: float, beta: float) -> dict:
    """Per-outcome probabilities and post states of one finite-angle site, both engines."""
    point, n, L = analysis.point, res.n, res.L
    bases = [gates.basis_matrix(point.d, pair, alpha, beta)] + [None] * (n - 1)
    rev = simulate_measurements(res, bases, reverse_byproduct=True)
    d = point.d
    q_k = rev.q.reshape(d, -1).sum(axis=1)
    rows = rev.boundary_states.reshape(d, -1, point.Db)

    ops = gates.step_virtual_ops(point, pair, alpha, beta)
    xs = gates.outcome_states(analysis, ops, np.outer(L, L.conj()), n - 1)
    dev_p = 0.0
    dev_state = 0.0
    p_chan = np.empty(d)
    for k, xk in enumerate(xs):
        p_chan[k] = np.trace(xk).real
        tau_k = rows[k].T @ rows[k].conj()
        if np.trace(tau_k).real > 1e-14:
            dev_state = max(dev_state, float(np.max(np.abs(
                tau_k / np.trace(tau_k).real - xk / np.trace(xk).real))))
    dev_p = float(np.max(np.abs(q_k / q_k.sum() - p_chan / p_chan.sum())))
    return {"weak_step_probs": dev_p, "weak_step_states": dev_state}


def scenario_appendix_a(out: OracleResult, l: np.ndarray, observable: np.ndarray) -> dict:
    """Joint law q_A(s, o) = q(s) p_A(o|s) with p_A independent of s, plus sampling.

    `out` is the wire-basis simulation, byproducts reversed, of a resource
    whose boundary is a product L = l (x) j, with `observable` measured on the
    boundary and sampled pairs drawn.
    """
    samples = len(out.samples)
    cond = out.joint / out.q[:, None]
    dev_cond = float(np.max(np.abs(cond - cond[0])))
    w, v = np.linalg.eigh(observable)
    p_born = np.empty(out.joint.shape[1])
    groups = _eig_groups(w)
    for o, g in enumerate(groups):
        p = v[:, g] @ v[:, g].conj().T
        p_born[o] = (l.conj() @ p @ l).real
    dev_born = float(np.max(np.abs(cond[0] - p_born)))
    counts = np.bincount(out.samples[:, 1], minlength=len(p_born))
    freq = counts / samples
    sig = np.sqrt(np.clip(p_born * (1 - p_born), 1e-12, None) / samples)
    sampled_z = float(np.max(np.abs(freq - p_born) / sig))
    return {"appendix_a_conditional": dev_cond, "appendix_a_born": dev_born,
            "appendix_a_sampled_z": sampled_z}


def _eig_groups(w, tol=1e-10):
    groups = [[0]]
    for i in range(1, len(w)):
        if abs(w[i] - w[groups[-1][0]]) < tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def scenario_runway(point: PhasePoint, measured: int, runway: int, L: np.ndarray,
                    R: np.ndarray) -> dict:
    """Wire marginal with a traced runway and <R| boundary vs reverse-weight bond computation."""
    n = measured + runway
    res = build_state_vector(point, n, OracleMode.PHI, L=L, R=R)
    out = simulate_measurements(res, _wire_bases(n))
    q_oracle = marginal_over_tail(out.q, point.d, n, measured)
    q_oracle /= q_oracle.sum()

    fbar = reverse_full_channel(point)
    w = np.outer(R, np.asarray(R).conj())
    for _ in range(runway):
        w = fbar.apply(w)
    q_chan = runway_marginal(point, measured, L, w)
    return {"runway_marginal": float(np.max(np.abs(q_oracle - q_chan)))}


def runway_marginal(point: PhasePoint, measured: int, L: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Normalized q(s) = <v_s|weight|v_s>, v_s = A_{s_m} ... A_{s_1}|L>, for every measured string.

    Flat order as in simulate_measurements (site 1 most significant); weight is
    the runway's reverse weight Fbar^runway(|R><R|).
    """
    tensors = point.site_tensors()
    v = np.asarray(L, dtype=complex)[None]
    for _ in range(measured):
        v = (tensors[None] @ v[:, None, :, None]).reshape(-1, point.Db)
    q = ((v.conj() @ weight) * v).sum(axis=1).real
    return q / q.sum()


def scenario_norm(res: DenseResource) -> dict:
    """Dense norm of a PHI_TILDE resource vs the transfer-matrix norm of the same state."""
    tensors = res.point.site_tensors()
    tau = np.outer(res.L, res.L.conj())
    tensors_dag = tensors.conj().swapaxes(-1, -2)
    for _ in range(res.n):
        tau = (tensors @ tau @ tensors_dag).sum(axis=0)
    transfer = np.trace(tau).real
    return {"norm_agreement": float(abs(res.norm ** 2 - transfer) / transfer)}


@dataclass
class ConformanceReport:
    deviations: dict
    max_deviation: float
    sampled_z: float


def conformance_suite(point: PhasePoint, n: int, rng: np.random.Generator,
                      samples: int = 10_000) -> ConformanceReport:
    """Run every oracle-vs-engine scenario on one model; collect worst deviations.

    Statistical checks (z-scores) are reported separately from exact ones.
    """
    l = random_unit_vector(rng, point.D)
    j = random_unit_vector(rng, point.Dj)
    L_prod = np.kron(l, j)
    R = random_unit_vector(rng, point.Db)

    # the bond-space side of the step scenarios runs the engine's own tilted-site map
    analysis = analyze(point)
    # one product-boundary resource (and byproduct table) for the wire, step and norm
    # scenarios, and one reversed wire-basis simulation for the wire and appendix-A ones
    res = build_state_vector(point, n, OracleMode.PHI_TILDE, L=L_prod)
    obs = gates.pair_operator(point, (0, 1))
    obs = (obs + obs.conj().T) / 2
    rev = simulate_measurements(res, _wire_bases(n), reverse_byproduct=True,
                                boundary_observable=obs, rng=rng, samples=samples)
    devs = {}
    devs.update(scenario_wire(res, rev, j))
    devs.update(scenario_gate_step(analysis, res, (0, 1), 0.05, np.pi / 2))
    devs.update(scenario_weak_step(analysis, res, (0, 1), 0.7, 0.3))
    devs.update(scenario_appendix_a(rev, l, obs))
    devs.update(scenario_runway(point, min(n, 3), n - min(n, 3), L_prod, R))
    devs.update(scenario_norm(res))
    z = devs.pop("appendix_a_sampled_z")
    return ConformanceReport(deviations=devs,
                             max_deviation=float(max(devs.values())),
                             sampled_z=z)
