"""Projective measurement of logical observables via accumulated weak measurements.

A tilted basis at finite angle alpha reweights the eigencomponents of the pair
observable C = C_i^-1 C_j by filter functions; accumulating the filters over
many sites concentrates the state on one eigenphase, at the Born-rule rate.

Phase conventions: with nu_ji = |nu_ji| exp(-i delta), the outcome-i filter is
f_i = nu_ii cos^2(a) + nu_jj sin^2(a) + |nu_ji| sin(2a) cos(phi - delta - beta),
so the count-based estimator returns cos(phi - delta - beta); the beta = 0 and
beta = pi/2 sequences therefore estimate cos(phi - delta) and sin(phi - delta),
and phi_hat = arg(cos_est + i sin_est) + delta.  (Validated against the dense
oracle; see tests.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gates
from .channel import Analysis, PairFilter, VirtualState
from .errors import ClosureTooSmall, ValidationError, VanishingProbability, ZeroOffDiagonal

OUT_OF_RANGE_SLACK = 0.05


def filter_values(params: PairFilter, alpha: float, beta: float, phi) -> tuple[np.ndarray, np.ndarray]:
    """(f_0, f_1) evaluated at eigenphase(s) phi."""
    phi = np.asarray(phi, dtype=float)
    ca2, sa2 = np.cos(alpha) ** 2, np.sin(alpha) ** 2
    cross = abs(params.nu_ji) * np.sin(2 * alpha) * np.cos(phi - params.delta - beta)
    f0 = params.nu_ii * ca2 + params.nu_jj * sa2 + cross
    f1 = params.nu_ii * sa2 + params.nu_jj * ca2 - cross
    return f0, f1


def accumulated_filter(params: PairFilter, alpha: float, N0: int, N1: int, phi_grid,
                       beta: float = 0.0) -> np.ndarray:
    """Max-normalized F(phi) = f_0^N0 f_1^N1 on the grid."""
    if N0 < 0 or N1 < 0:
        raise ValidationError("N0 and N1 must be non-negative")
    f0, f1 = filter_values(params, alpha, beta, np.asarray(phi_grid))
    curve = f0 ** N0 * f1 ** N1
    peak = np.max(np.abs(curve))
    return curve / peak if peak > 0 else np.ones_like(curve)


def filter_peak_width(curve: np.ndarray, phi_grid: np.ndarray) -> float:
    """Full width at half maximum of a max-normalized curve, by grid crossing."""
    above = curve >= 0.5
    if not np.any(above):
        return 0.0
    return float(np.sum(above) * (phi_grid[1] - phi_grid[0]))


def mcos_estimate(params: PairFilter, alpha: float, N0, N1):
    """Count-based estimate of cos(phi - delta - beta) from pair-outcome frequencies.

    Elementwise over count arrays; NaN where N0 + N1 == 0.
    """
    N0, N1 = np.asarray(N0), np.asarray(N1)
    total = N0 + N1
    s2, c2 = np.sin(alpha) ** 2, np.cos(alpha) ** 2
    s2a = np.sin(2 * alpha)
    num = s2 * (N0 * params.nu_ii - N1 * params.nu_jj) + c2 * (N0 * params.nu_jj - N1 * params.nu_ii)
    with np.errstate(divide="ignore", invalid="ignore"):
        est = num / (s2a * total * abs(params.nu_ji))
    return np.where(total == 0, np.nan, est)[()]


def wrap_angle(x):
    """Wrap to (-pi, pi], elementwise."""
    w = (np.asarray(x, dtype=float) + np.pi) % (2 * np.pi) - np.pi
    return np.where(w == -np.pi, np.pi, w)[()]


# ---------------------------------------------------------------------------
# full virtual-space weak measurement

def draw_outcomes(probs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """One outcome per row of probs (T, n_out) from uniform draws (T,).

    Negative probabilities are clipped to zero and each row is normalized; the
    outcome is the left insertion point of the draw in the cumulative row,
    capped at n_out - 1.
    """
    probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=1, keepdims=True)
    if not np.all(total > 0):
        raise VanishingProbability(
            "every outcome of a sampled site has zero (or non-finite) probability")
    cum = np.cumsum(probs / total, axis=1)
    return np.minimum((cum < draws[:, None]).sum(axis=1), probs.shape[1] - 1)


def weak_measure_step(
    state: VirtualState,
    analysis: Analysis,
    ops,
    rng: np.random.Generator,
    wire_n: int | None = None,
) -> tuple[int, VirtualState]:
    """Sample one weak-measurement outcome from the exact per-outcome channel traces.

    `ops` are the per-outcome virtual actions of the measured basis
    (`gates.step_virtual_ops`).
    """
    outs = gates.outcome_states(analysis, ops, state.rho, wire_n)
    probs = np.array([[np.trace(o).real for o in outs]])
    k = int(draw_outcomes(probs, np.array([rng.random()]))[0])
    rho = outs[k] / np.trace(outs[k]).real
    return k, VirtualState(rho, state.D, state.Dj)


def _weak_counts(virt, analysis, basis, steps, rng, wire_n):
    """Run `steps` weak measurements in one basis (pair, alpha, beta).

    Returns ((N_0, N_1), N_rest, final state).
    """
    ops = gates.step_virtual_ops(analysis.point, *basis)
    i, j = basis[0]
    n0 = n1 = rest = 0
    for _ in range(steps):
        k, virt = weak_measure_step(virt, analysis, ops, rng, wire_n)
        if k == i:
            n0 += 1
        elif k == j:
            n1 += 1
        else:
            rest += 1
    return (n0, n1), rest, virt


@dataclass
class MeasurementResult:
    counts: tuple[int, int, int]                  # (N_0, N_1, N_rest) over all steps
    counts_real: tuple[int, int]
    counts_imag: tuple[int, int]
    cos_estimate: float
    sin_estimate: float
    phi_hat: float
    matched_eigenphase: float
    matched_index: int
    out_of_range: bool
    post_state: VirtualState | None
    n_m: int


def interpret_counts(params: PairFilter, alpha: float, counts_real, counts_imag, eigenphases) -> dict:
    """Per-trial phase estimates from (T, 2) arrays of (N_0, N_1) pair counts.

    counts_real comes from the beta = 0 sequence, counts_imag from beta = pi/2.
    Every field of the result is an array of length T.  A sequence without
    pair outcomes gives a NaN estimate; its trial gets a NaN phi_hat,
    matched_index 0 and out_of_range True.
    """
    counts_real, counts_imag = np.asarray(counts_real), np.asarray(counts_imag)
    cos_est = mcos_estimate(params, alpha, counts_real[:, 0], counts_real[:, 1])
    sin_est = mcos_estimate(params, alpha, counts_imag[:, 0], counts_imag[:, 1])
    lim = 1 + OUT_OF_RANGE_SLACK
    undefined = np.isnan(cos_est) | np.isnan(sin_est)
    phi_hat = wrap_angle(np.arctan2(sin_est, cos_est) + params.delta)
    dist = np.abs(np.angle(np.exp(1j * (np.asarray(eigenphases)[None, :] - phi_hat[:, None]))))
    return {
        "cos_estimate": np.clip(cos_est, -lim, lim),
        "sin_estimate": np.clip(sin_est, -lim, lim),
        "phi_hat": phi_hat,
        "matched_index": np.where(undefined, 0, np.argmin(dist, axis=1)),
        "out_of_range": undefined | (np.abs(cos_est) > lim) | (np.abs(sin_est) > lim),
    }


def measure_observable(
    state,
    analysis: Analysis,
    pair: tuple[int, int],
    n_m: int,
    alpha: float,
    rng: np.random.Generator,
    wire_n: int | None = None,
) -> MeasurementResult:
    """Accumulated weak measurement in the two bases of `gates.MeasureStep.schedule`.

    `state` may be a logical density matrix (tensored with the junk fixed point)
    or a VirtualState.
    """
    if n_m < 2:
        raise ValidationError("n_m must be >= 2")
    if isinstance(state, VirtualState):
        virt = state
    else:
        virt = VirtualState.product(np.asarray(state, dtype=complex), analysis.fix.rho)
    obs = analysis.pair(pair)
    params, eigenphases = obs.filter, obs.eigenphases

    seg_counts = []
    rest = 0
    for steps, beta in gates.MeasureStep(pair, alpha, n_m).schedule:
        counts, n_rest, virt = _weak_counts(virt, analysis, (pair, alpha, beta), steps, rng, wire_n)
        seg_counts.append(counts)
        rest += n_rest
    interp = {k: v[0].item() for k, v in
              interpret_counts(params, alpha, [seg_counts[0]], [seg_counts[1]], eigenphases).items()}
    n0_tot = seg_counts[0][0] + seg_counts[1][0]
    n1_tot = seg_counts[0][1] + seg_counts[1][1]
    return MeasurementResult(
        counts=(n0_tot, n1_tot, rest),
        counts_real=seg_counts[0],
        counts_imag=seg_counts[1],
        matched_eigenphase=float(eigenphases[interp["matched_index"]]),
        post_state=virt,
        n_m=n_m,
        **interp,
    )


def measure_observable_tuned(
    state,
    analysis: Analysis,
    pair: tuple[int, int],
    n_m: int,
    alpha: float,
    rng: np.random.Generator,
    coarse_fraction: float = 0.1,
    wire_n: int | None = None,
) -> MeasurementResult:
    """Two-phase estimator: a coarse phase estimate, then a tuned-beta sequence.

    The first coarse_fraction of the steps runs the standard two-basis
    protocol; the remainder measures at beta* = phi_coarse - delta - pi/2,
    where the count estimator has maximal phase sensitivity.  The final angle
    is beta* + delta + arccos(m), with the arccos branch fixed by the coarse
    estimate.
    """
    n_coarse = max(int(np.ceil(coarse_fraction * n_m)), 4)
    n_fine = n_m - n_coarse
    coarse = measure_observable(state, analysis, pair, n_coarse, alpha, rng, wire_n=wire_n)
    if np.isnan(coarse.phi_hat) or n_fine < 1:
        return coarse
    obs = analysis.pair(pair)
    params, eigenphases = obs.filter, obs.eigenphases
    beta_star = coarse.phi_hat - params.delta - np.pi / 2
    (n0, n1), rest, virt = _weak_counts(coarse.post_state, analysis, (pair, alpha, beta_star),
                                        n_fine, rng, wire_n)
    m_est = mcos_estimate(params, alpha, n0, n1)
    out_of_range = bool(np.isnan(m_est) or abs(m_est) > 1 + OUT_OF_RANGE_SLACK)
    if np.isnan(m_est):
        return coarse
    x = np.arccos(np.clip(m_est, -1.0, 1.0))
    candidates = [wrap_angle(beta_star + params.delta + x),
                  wrap_angle(beta_star + params.delta - x)]
    phi_hat = min(candidates, key=lambda p: abs(np.angle(np.exp(1j * (p - coarse.phi_hat)))))
    matched = int(np.argmin(np.abs(np.angle(np.exp(1j * (eigenphases - phi_hat))))))
    return MeasurementResult(
        counts=(coarse.counts[0] + n0, coarse.counts[1] + n1, coarse.counts[2] + rest),
        counts_real=coarse.counts_real,
        counts_imag=coarse.counts_imag,
        cos_estimate=coarse.cos_estimate,
        sin_estimate=coarse.sin_estimate,
        phi_hat=phi_hat,
        matched_eigenphase=float(eigenphases[matched]),
        matched_index=matched,
        out_of_range=out_of_range or coarse.out_of_range,
        post_state=virt,
        n_m=n_m,
    )


# ---------------------------------------------------------------------------
# diagonal filter dynamics (vectorized over trials)
#
# In the eigenbasis of C the diagonal populations close on themselves under
# weak measurement (the off-diagonals never feed back into outcome statistics),
# and one step multiplies the population of eigenphase phi_k by f_0(phi_k),
# f_1(phi_k) or the weight of the outcomes outside the pair.  The sum rule
# f_0(phi) + f_1(phi) = nu_ii + nu_jj holds for every phi, so the three weights
# of eigenphase k always add up to the same total: the trial is a mixture in
# which k is drawn once from the initial populations and every step then draws
# independently from (f_0(phi_k), f_1(phi_k), rest).  The counts of a segment
# are one multinomial draw, and N_0, N_1 weigh phi_k by the accumulated filter
# F = f_0^N_0 f_1^N_1.  This is exact in the fixed-point regime and is
# cross-checked against the full virtual-space sampler in the tests.

def filter_trajectories(
    params: PairFilter,
    eigenphases: np.ndarray,
    populations: np.ndarray,
    schedule: list[tuple[int, float]],
    trials: int,
    alpha: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Sample weak-measurement records for many trials at once.

    schedule is a list of (steps, beta) segments.  Each trial draws its
    eigenphase index k once from the normalized populations (`draw_outcomes`),
    then each segment's (N_0, N_1, N_rest) from Multinomial(steps, law[k]),
    where law[k] is (f_0(phi_k), f_1(phi_k), rest) with rounding-level
    negatives clipped to zero and normalized, so unnormalized filters sample
    the same law.  Returns per-segment count arrays of shape (trials, 2).
    Raises VanishingProbability when the initial populations are non-finite or
    sum to zero, or when the filter gives every outcome zero weight.
    """
    populations = np.asarray(populations, dtype=float)
    if not (np.all(np.isfinite(populations)) and populations.sum() > 0):
        raise VanishingProbability("initial populations must be finite with a positive sum")
    k = draw_outcomes(np.broadcast_to(populations, (trials, len(populations))), rng.random(trials))
    seg_counts = []
    for steps, beta in schedule:
        f0, f1 = filter_values(params, alpha, beta, eigenphases)
        law = np.clip(np.stack([f0, f1, np.full_like(f0, params.rest)], axis=1), 0.0, None)
        total = law.sum(axis=1, keepdims=True)
        if not np.all(total > 0):
            raise VanishingProbability("the filter gives every outcome zero weight")
        seg_counts.append(rng.multinomial(steps, (law / total)[k])[:, :2])
    return seg_counts


@dataclass
class BornReport:
    eigenphases: np.ndarray
    frequencies: np.ndarray
    born_reference: np.ndarray
    binomial_sigma: np.ndarray
    trials: int


def born_statistics(
    sigma: np.ndarray,
    analysis: Analysis,
    pair: tuple[int, int],
    trials: int,
    n_m: int,
    rng: np.random.Generator,
    alpha: float = np.pi / 4,
) -> BornReport:
    """Empirical distribution of measurement outcomes over fresh copies of sigma,
    drawn with the filter sampler."""
    obs = analysis.pair(pair)
    eigenphases = obs.eigenphases
    born = np.array([np.trace(p @ sigma).real for p in obs.projectors])
    params = obs.filter
    pops = np.array([max(b, 0.0) for b in born])
    schedule = gates.MeasureStep(pair, alpha, n_m).schedule
    seg_counts = filter_trajectories(params, eigenphases, pops, schedule, trials, alpha, rng)
    matched = interpret_counts(params, alpha, seg_counts[0], seg_counts[1], eigenphases)["matched_index"]
    freqs = np.bincount(matched, minlength=len(eigenphases)) / trials
    sig = np.sqrt(np.clip(born * (1 - born), 0, None) / trials)
    return BornReport(eigenphases=eigenphases, frequencies=freqs, born_reference=born,
                      binomial_sigma=sig, trials=trials)


# ---------------------------------------------------------------------------
# initialization

@dataclass
class InitializationResult:
    state: np.ndarray
    measured_index: int
    target_index: int
    fidelity: float
    correction: gates.GateProgram


def initialize(
    state,
    analysis: Analysis,
    pair: tuple[int, int],
    target_index: int,
    rng: np.random.Generator,
    n_m: int = 3200,
    budget: float = 5e-3,
    alpha: float = np.pi / 4,
) -> InitializationResult:
    """Measure the pair observable, then rotate the obtained eigenstate onto the target."""
    point = analysis.point
    projectors = analysis.pair(pair).projectors
    if target_index >= len(projectors):
        raise ValidationError(f"target_index {target_index} out of range")
    result = measure_observable(state, analysis, pair, n_m, alpha, rng)
    sigma = result.post_state.logical_state()
    sigma = sigma / np.trace(sigma).real
    i = result.matched_index
    if i == target_index:
        program = gates.GateProgram(())
    else:
        if point.D != 2:
            raise ClosureTooSmall("compiled corrections are only available for qubit logical spaces")
        vt = gates.principal_vector(projectors[target_index])
        vi = gates.principal_vector(projectors[i])
        correction = np.outer(vt, vi.conj()) + np.outer(vi, vt.conj())
        compiled = gates.compile_su2(correction, analysis, budget)
        program = compiled.program
        sigma = gates.compose_program(analysis, program).apply(sigma)
    fid = float(np.trace(projectors[target_index] @ sigma).real)
    return InitializationResult(state=sigma, measured_index=i, target_index=target_index,
                                fidelity=fid, correction=program)


# ---------------------------------------------------------------------------
# measurement cost and the nu self-test

def measurement_cost(params: PairFilter, Delta: float, epsilon: float) -> int:
    """Steps for eigenphase resolution epsilon*Delta: ceil of (nu_ii+nu_jj) / ((4 eps Delta)^2 |nu_ji|^2)."""
    if Delta <= 0 or epsilon <= 0:
        raise ValidationError("Delta and epsilon must be positive")
    if abs(params.nu_ji) < 1e-12:
        raise ZeroOffDiagonal("|nu_ji| < 1e-12; this fine-tuned point cannot be measured")
    value = (params.nu_ii + params.nu_jj) / ((4 * epsilon * Delta) ** 2 * abs(params.nu_ji) ** 2)
    return int(np.ceil(value))


@dataclass
class NuEstimate:
    diag: np.ndarray
    diag_sigma: np.ndarray
    abs_nu10: float
    abs_nu10_sigma: float
    delta_mod_pi: float
    diag_truth: np.ndarray
    abs_nu10_truth: float
    betas: np.ndarray
    flip_probabilities: np.ndarray


def estimate_nu(
    analysis: Analysis,
    samples: int,
    rng: np.random.Generator,
    alpha_probe: float = 3.0,
    n_probe: int = 40000,
    betas=(0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4),
) -> NuEstimate:
    """Self-test of the nu matrix from measurement statistics alone.

    Diagonals come from wire-basis outcome frequencies (each step is an
    independent categorical draw with probabilities nu_kk).  |nu_10| and the
    phase (mod pi) come from rotation-angle fits: rotations about the
    pair-(0,1) axis at several beta values change the populations of the
    complementary observable by sin^2(2 alpha |nu_10| sin(beta + delta)).
    Born draws use the exact channel probabilities.
    """
    point, nu_true = analysis.point, analysis.nu
    p_diag = np.clip(nu_true.nu.diagonal().real, 0, None)
    p_diag /= p_diag.sum()
    n_diag = max(samples // 2, 1)
    counts = rng.multinomial(n_diag, p_diag)
    diag_est = counts / n_diag
    diag_sigma = np.sqrt(np.clip(diag_est * (1 - diag_est), 0, None) / n_diag)

    # complementary axis: an available Pauli direction that anticommutes with pair (0,1)
    axes = gates.available_axes(analysis)
    c_meas = gates.pair_operator(point, (0, 1))
    probe_axis = None
    for ax in axes.values():
        cand = gates.pair_operator(point, ax.pair)
        if np.linalg.norm(cand @ c_meas + c_meas @ cand) < 1e-8:
            probe_axis = ax
            break
    if probe_axis is None:
        raise ClosureTooSmall("no anticommuting probe axis available for the off-diagonal self-test"
                              " (Pauli probe axes need a qubit logical space, D=2)")
    projectors = analysis.pair(probe_axis.pair).projectors
    ref = gates.principal_vector(projectors[0])
    sigma_ref = np.outer(ref, ref.conj())

    betas = np.asarray(betas, dtype=float)
    per_beta = max((samples - n_diag) // len(betas), 100)
    flips = np.empty(len(betas))
    for b_idx, beta in enumerate(betas):
        fr = gates.finite_rotation(analysis, (0, 1), alpha_probe, beta, n_probe)
        sigma_rot = fr.channel.apply(sigma_ref)
        p_flip = float(np.clip(1.0 - np.trace(projectors[0] @ sigma_rot).real, 0, 1))
        flips[b_idx] = rng.binomial(per_beta, p_flip) / per_beta

    a_hat, delta_mod_pi, jac = fit_flip_curve(betas, flips, 2 * alpha_probe * 0.2)
    abs_nu10 = a_hat / (2 * alpha_probe)
    # rough 1-sigma from the fit jacobian and binomial noise
    sig_p = np.sqrt(np.maximum(flips * (1 - flips), 1e-9) / per_beta)
    try:
        cov = np.linalg.inv(jac.T @ jac) * np.mean(sig_p ** 2)
        a_sigma = float(np.sqrt(abs(cov[0, 0])))
    except np.linalg.LinAlgError:
        a_sigma = np.nan
    return NuEstimate(
        diag=diag_est,
        diag_sigma=diag_sigma,
        abs_nu10=float(abs_nu10),
        abs_nu10_sigma=float(a_sigma / (2 * alpha_probe)),
        delta_mod_pi=delta_mod_pi,
        diag_truth=nu_true.nu.diagonal().real.copy(),
        abs_nu10_truth=float(abs(nu_true.nu[1, 0])),
        betas=betas,
        flip_probabilities=flips,
    )


def _flip_residuals(x: np.ndarray, betas: np.ndarray, flips: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals sin^2(a sin(beta + psi)) - flips (S, n) and their Jacobians (S, n, 2)
    in (a, psi), for each row (a, psi) of x (S, 2)."""
    a, psi = x[:, :1], x[:, 1:]
    s, c = np.sin(betas + psi), np.cos(betas + psi)
    slope = np.sin(2 * a * s)  # d sin^2(u) / du at u = a s
    return np.sin(a * s) ** 2 - flips, np.stack([slope * s, slope * a * c], axis=-1)


def fit_flip_curve(betas: np.ndarray, flips: np.ndarray, a0: float) -> tuple[float, float, np.ndarray]:
    """Least-squares fit of flips ~ sin^2(a sin(beta + psi)).

    Damped Gauss-Newton runs from (a, psi0) for each a of a0, 2 a0, 3 a0 and
    each psi0 of a 9-point grid on [-pi, pi]; the lowest cost wins (the first
    start on a tie).  Returns |a|, psi mod pi and the analytic Jacobian at the
    solution.
    """
    starts = np.array([(k * a0, psi0) for k in (1, 2, 3) for psi0 in np.linspace(-np.pi, np.pi, 9)])
    x, cost, jac = _levenberg(betas, flips, starts)
    best = int(np.argmin(cost))
    a, psi = x[best]
    return float(abs(a)), float(psi % np.pi), jac[best]


def _levenberg(betas: np.ndarray, flips: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Gauss-Newton (Levenberg steps) from each start row of x (S, 2):
    (solutions, costs, Jacobians).

    All starts iterate together, each with its own damping.  A start stops
    once a step is at the rounding level of its x, or once the damping needed
    for a step that lowers its cost exceeds 1e16; stopped starts are left out
    of later iterations.
    """
    x = np.array(x, dtype=float)
    r, jac = _flip_residuals(x, betas, flips)
    cost, lam = 0.5 * _row_dots(r), np.full(len(x), 1e-3)
    live = np.arange(len(x))
    for _ in range(200):
        if not live.size:
            break
        jt = jac[live].transpose(0, 2, 1)
        normal = jt @ jac[live] + lam[live, None, None] * np.eye(2)
        step = np.linalg.solve(normal, -jt @ r[live, :, None])[:, :, 0]
        x_new = x[live] + step
        r_new, jac_new = _flip_residuals(x_new, betas, flips)
        cost_new = 0.5 * _row_dots(r_new)
        better = cost_new < cost[live]
        won = live[better]
        x[won], r[won], jac[won], cost[won] = x_new[better], r_new[better], jac_new[better], cost_new[better]
        lam[won] = np.maximum(lam[won] * 0.1, 1e-12)
        lam[live[~better]] *= 10.0
        done = np.where(better,
                        np.linalg.norm(step, axis=1) <= 1e-15 * (1.0 + np.linalg.norm(x_new, axis=1)),
                        lam[live] > 1e16)
        live = live[~done]
    return x, cost, jac


def _row_dots(r: np.ndarray) -> np.ndarray:
    """r[s] @ r[s] for each row of r (S, n), as stacked 1 x n by n x 1 products.

    These round as the 1-D dot product of one row does (a row sum or an einsum
    does not), so each start's accept/reject decisions do not depend on how
    many starts run beside it.
    """
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]
