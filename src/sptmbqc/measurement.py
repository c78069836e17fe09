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
    delta: float
    delta_sigma: float
    diag_truth: np.ndarray
    abs_nu10_truth: float
    delta_truth: float
    eigenphase: float               # phi_0, the eigenphase of the tilted site's input
    betas: np.ndarray
    pair_frequencies: np.ndarray    # (len(betas), 2): outcome 0 and 1 frequencies per beta


def estimate_nu(
    analysis: Analysis,
    samples: int,
    rng: np.random.Generator,
    betas=(0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4),
) -> NuEstimate:
    """Self-test of the nu matrix from measurement statistics alone.

    Diagonals come from wire-basis outcome frequencies (each step is an
    independent categorical draw with probabilities nu_kk).  nu_10 comes from
    one tilted site of pair (0, 1) at alpha = pi/4 on the input
    P_0 / Tr P_0 (x) rho_fix, where P_0 projects onto the eigenphase phi_0 of
    C = C_0^-1 C_1.  There the filter functions give
    p_0 - p_1 = 2 |nu_10| cos(phi_0 - delta - beta) = 2 Re(c e^{-i beta}) with
    c = |nu_10| e^{i (phi_0 - delta)}: the diagonals cancel.  The outcome counts
    at each beta are one multinomial draw from the exact probabilities of
    `gates.outcome_states`, and c is the linear least-squares fit of the
    observed p_0 - p_1 in (cos beta, sin beta); |nu_10| = |c| and
    delta = phi_0 - arg c.  Their standard errors propagate each beta's
    multinomial variance of p_0 - p_1 through the fit, to first order.
    Raises ZeroOffDiagonal when the fit gives c = 0, where delta is undefined.
    """
    nu_true = analysis.nu
    p_diag = np.clip(nu_true.nu.diagonal().real, 0, None)
    p_diag /= p_diag.sum()
    n_diag = max(samples // 2, 1)
    counts = rng.multinomial(n_diag, p_diag)
    diag_est = counts / n_diag
    diag_sigma = np.sqrt(np.clip(diag_est * (1 - diag_est), 0, None) / n_diag)

    pair = analysis.pair((0, 1))
    proj = pair.projectors[0]
    x = np.kron(proj / np.trace(proj).real, analysis.fix.rho)
    betas = np.asarray(betas, dtype=float)
    ops = np.concatenate([gates.step_virtual_ops(analysis.point, (0, 1), np.pi / 4, b) for b in betas])
    probs = np.einsum("kii->k", gates.outcome_states(analysis, ops, x)).real
    probs = np.clip(probs.reshape(len(betas), -1), 0, None)
    per_beta = max((samples - n_diag) // len(betas), 100)
    freqs = rng.multinomial(per_beta, probs / probs.sum(axis=1, keepdims=True))[:, :2] / per_beta

    m = freqs[:, 0] - freqs[:, 1]
    var_m = (freqs.sum(axis=1) - m ** 2) / per_beta
    fit = np.linalg.pinv(2 * np.column_stack([np.cos(betas), np.sin(betas)]))  # m -> (Re c, Im c)
    c = fit @ m
    cov = (fit * var_m) @ fit.T
    abs_c = float(np.hypot(*c))
    if abs_c == 0.0:
        raise ZeroOffDiagonal("the fitted nu_10 is zero, so its phase delta is undefined")
    grad_abs = c / abs_c
    grad_arg = np.array([-c[1], c[0]]) / abs_c ** 2
    phi = float(pair.eigenphases[0])
    return NuEstimate(
        diag=diag_est,
        diag_sigma=diag_sigma,
        abs_nu10=abs_c,
        abs_nu10_sigma=float(np.sqrt(grad_abs @ cov @ grad_abs)),
        delta=float(wrap_angle(phi - np.arctan2(c[1], c[0]))),
        delta_sigma=float(np.sqrt(grad_arg @ cov @ grad_arg)),
        diag_truth=nu_true.nu.diagonal().real.copy(),
        abs_nu10_truth=float(abs(nu_true.nu[1, 0])),
        delta_truth=nu_true.delta,
        eigenphase=phi,
        betas=betas,
        pair_frequencies=freqs,
    )
