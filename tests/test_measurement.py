import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptmbqc import channel, gates, measurement as meas
from sptmbqc.errors import ClosureTooSmall, ValidationError, VanishingProbability, ZeroOffDiagonal
from conftest import random_density, random_state


def principal(projector):
    w, v = np.linalg.eigh(projector)
    return v[:, -1]


def test_filter_cluster_example(cluster2_nu):
    f0, f1 = meas.filter_values(meas.PairFilter.from_nu(cluster2_nu, (0, 1)), np.pi / 4, 0.0, 0.0)
    assert f0 == pytest.approx(0.5, abs=1e-14)
    assert f1 == pytest.approx(0.0, abs=1e-14)


def test_filter_wire_basis_limit(perturbed_nu):
    f0, f1 = meas.filter_values(meas.PairFilter.from_nu(perturbed_nu, (0, 1)), 0.0, 0.0, 1.3)
    assert f0 == pytest.approx(perturbed_nu.nu[0, 0].real, abs=1e-14)
    assert f1 == pytest.approx(perturbed_nu.nu[1, 1].real, abs=1e-14)


def test_filter_fig2_parameters():
    f0, f1 = meas.filter_values(meas.PairFilter(1.0, 1.0, 0.8), np.pi / 4, 0.0, 0.0)
    assert f0 == pytest.approx(1.8, abs=1e-14)
    assert f1 == pytest.approx(0.2, abs=1e-14)


@given(alpha=st.floats(0, np.pi / 2), beta=st.floats(-np.pi, np.pi),
       phi=st.floats(-np.pi, np.pi))
@settings(max_examples=60, deadline=None)
def test_filter_sum_rule(perturbed_nu, alpha, beta, phi):
    params = meas.PairFilter.from_nu(perturbed_nu, (0, 1))
    f0, f1 = meas.filter_values(params, alpha, beta, phi)
    assert abs(f0 + f1 + params.rest - 1.0) < 1e-12


def test_filter_sum_rule_grid(perturbed_nu):
    params = meas.PairFilter.from_nu(perturbed_nu, (0, 1))
    grid = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    f0, f1 = meas.filter_values(params, 0.7, 0.4, grid)
    assert np.max(np.abs(f0 + f1 + params.rest - 1.0)) < 1e-12


def test_filter_matches_exact_channel(perturbed, perturbed_nu, perturbed_fix, perturbed_an):
    # diagonal filter values equal the exact per-outcome channel traces on eigenstates
    ops = gates.step_virtual_ops(perturbed, (0, 1), 0.6, 0.9)
    params = meas.PairFilter.from_nu(perturbed_nu, (0, 1))
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    for phi, proj in zip(phis, projs):
        v = principal(proj)
        state = channel.VirtualState.product(np.outer(v, v.conj()), perturbed_fix.rho)
        traces = [np.trace(o).real for o in gates.outcome_states(perturbed_an, ops, state.rho)]
        f0, f1 = meas.filter_values(params, 0.6, 0.9, phi)
        assert traces[0] == pytest.approx(f0, abs=1e-12)
        assert traces[1] == pytest.approx(f1, abs=1e-12)


def test_accumulated_filter_trivial(perturbed_nu):
    grid = np.linspace(-np.pi, np.pi, 64)
    curve = meas.accumulated_filter(meas.PairFilter.from_nu(perturbed_nu, (0, 1)), 0.4, 0, 0, grid)
    np.testing.assert_allclose(curve, 1.0)


def test_accumulated_filter_widths_shrink():
    params = meas.PairFilter(1.0, 1.0, 0.8)
    grid = np.linspace(-np.pi, np.pi, 2049)
    widths = [meas.filter_peak_width(meas.accumulated_filter(params, np.pi / 4, n, n, grid), grid)
              for n in (1, 5, 50)]
    assert widths[0] > widths[1] > widths[2]


def test_accumulated_filter_peak_ratio():
    # at the maximum of f0^N0 f1^N1 the filters satisfy f0/f1 = N0/N1
    params = meas.PairFilter(1.0, 1.0, 0.8)
    grid = np.linspace(-np.pi, np.pi, 200001)
    n0, n1 = 50, 10
    curve = meas.accumulated_filter(params, np.pi / 4, n0, n1, grid)
    phi_max = grid[np.argmax(curve)]
    f0, f1 = meas.filter_values(params, np.pi / 4, 0.0, phi_max)
    assert f0 / f1 == pytest.approx(n0 / n1, rel=1e-3)


def test_weak_step_wire_basis_probabilities(perturbed, perturbed_nu, perturbed_fix, perturbed_an):
    ops = gates.step_virtual_ops(perturbed, (0, 1), 0.0, 0.0)
    rng = np.random.default_rng(0)
    sigma = random_density(2, rng)
    state = channel.VirtualState.product(sigma, perturbed_fix.rho)
    outs = gates.outcome_states(perturbed_an, ops, state.rho)
    for k, out in enumerate(outs):
        assert np.trace(out).real == pytest.approx(perturbed_nu.nu[k, k].real, abs=1e-10)
        np.testing.assert_allclose(
            channel.VirtualState(out, 2, 2).logical_state() / np.trace(out).real, sigma, atol=1e-10)


def test_weak_step_eigenstate_unchanged(perturbed, perturbed_nu, perturbed_fix, perturbed_an):
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    v = principal(projs[0])
    state = channel.VirtualState.product(np.outer(v, v.conj()), perturbed_fix.rho)
    ops = gates.step_virtual_ops(perturbed, (0, 1), 0.7, 0.0)
    for out in gates.outcome_states(perturbed_an, ops, state.rho):
        sig = out.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        sig = sig / np.trace(sig).real
        np.testing.assert_allclose(sig, np.outer(v, v.conj()), atol=1e-10)


def test_weak_step_diagonal_preservation(perturbed, perturbed_nu, perturbed_fix, perturbed_an):
    # summing all outcome paths leaves the C-eigenbasis diagonal invariant
    rng = np.random.default_rng(1)
    sigma = random_density(2, rng)
    state = channel.VirtualState.product(sigma, perturbed_fix.rho)
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    ops = gates.step_virtual_ops(perturbed, (0, 1), 0.7, 1.1)
    summed = sum(gates.outcome_states(perturbed_an, ops, state.rho))
    sig_out = channel.VirtualState(summed, 2, 2).logical_state()
    for proj in projs:
        before = np.trace(proj @ sigma).real
        after = np.trace(proj @ sig_out).real
        assert after == pytest.approx(before, abs=1e-12)


def test_mcos_symmetric_counts():
    params = meas.PairFilter(0.3, 0.3, 0.2)
    assert meas.mcos_estimate(params, np.pi / 4, 120, 120) == pytest.approx(0.0, abs=1e-14)


def _interpret_row_reference(params, alpha, real, imag, eigenphases):
    """Scalar interpretation of one trial's counts (the per-trial rule, kept as reference)."""
    lim = 1 + meas.OUT_OF_RANGE_SLACK

    def mcos(n0, n1):
        if n0 + n1 == 0:
            return np.nan
        s2, c2, s2a = np.sin(alpha) ** 2, np.cos(alpha) ** 2, np.sin(2 * alpha)
        num = s2 * (n0 * params.nu_ii - n1 * params.nu_jj) + c2 * (n0 * params.nu_jj - n1 * params.nu_ii)
        return float(num / (s2a * (n0 + n1) * abs(params.nu_ji)))

    c, s = mcos(*real), mcos(*imag)
    undefined = np.isnan(c) or np.isnan(s)
    if undefined:
        phi, matched = np.nan, 0
    else:
        w = float((np.arctan2(s, c) + params.delta + np.pi) % (2 * np.pi) - np.pi)
        phi = np.pi if w == -np.pi else w
        matched = int(np.argmin(np.abs(np.angle(np.exp(1j * (eigenphases - phi))))))
    clip = lambda x: x if np.isnan(x) else float(np.clip(x, -lim, lim))
    return (clip(c), clip(s), phi, matched,
            bool(undefined or abs(c) > lim or abs(s) > lim))


def test_interpret_counts_matches_row_reference(perturbed_nu):
    params = meas.PairFilter.from_nu(perturbed_nu, (0, 1))
    eigenphases = np.array([-2.0, 0.0, 1.0, np.pi])
    rng = np.random.default_rng(21)
    counts = rng.integers(0, 30, size=(500, 4))
    counts[::7, :2] = 0    # no pair outcomes in the real sequence
    counts[::11, 2:] = 0   # ... or in the imaginary one
    alpha = 0.6
    got = meas.interpret_counts(params, alpha, counts[:, :2], counts[:, 2:], eigenphases)
    for t, row in enumerate(counts):
        ref = _interpret_row_reference(params, alpha, row[:2], row[2:], eigenphases)
        assert repr(float(got["cos_estimate"][t])) == repr(ref[0])
        assert repr(float(got["sin_estimate"][t])) == repr(ref[1])
        assert repr(float(got["phi_hat"][t])) == repr(ref[2])
        assert got["matched_index"][t] == ref[3]
        assert got["out_of_range"][t] == ref[4]


def _per_step_filter_loop(params, eigenphases, populations, schedule, trials, alpha, rng):
    """The per-step Bayesian form of the filter sampler: every step draws one
    outcome from the current populations and reweights them by its filter."""
    pops = np.tile(populations / populations.sum(), (trials, 1))
    seg_counts = []
    for steps, beta in schedule:
        f0, f1 = meas.filter_values(params, alpha, beta, eigenphases)
        factors = np.stack([f0, f1, np.ones_like(f0)])
        counts = np.zeros((trials, 2), dtype=np.int64)
        for _ in range(steps):
            w0, w1 = pops @ f0, pops @ f1
            total = w0 + w1 + params.rest
            p0, p1 = w0 / total, w1 / total
            r = rng.random(trials)
            k = np.where(r < p0, 0, np.where(r < p0 + p1, 1, 2))
            counts[:, 0] += k == 0
            counts[:, 1] += k == 1
            pops *= factors[k]
            pops /= pops.sum(axis=1, keepdims=True)
        seg_counts.append(counts)
    return seg_counts


def _multinomial_pmf(steps, law):
    """P(N_0, N_1) of Multinomial(steps, law) as a (steps+1, steps+1) table."""
    pmf = np.zeros((steps + 1, steps + 1))
    for n0 in range(steps + 1):
        for n1 in range(steps + 1 - n0):
            rest = steps - n0 - n1
            ways = math.factorial(steps) // (math.factorial(n0) * math.factorial(n1) * math.factorial(rest))
            pmf[n0, n1] = ways * law[0] ** n0 * law[1] ** n1 * law[2] ** rest
    return pmf


def _mixture_law(params, eigenphases, populations, schedule, alpha):
    """Exact joint law of the two segments' (N_0, N_1): sum_k p_k prod_seg Multinomial(steps, law_k)."""
    (s1, b1), (s2, b2) = schedule
    p = populations / populations.sum()
    joint = 0.0
    for k, phi in enumerate(eigenphases):
        laws = []
        for beta in (b1, b2):
            f0, f1 = meas.filter_values(params, alpha, beta, phi)
            law = np.clip([f0, f1, params.rest], 0.0, None)
            laws.append(law / law.sum())
        joint = joint + p[k] * np.multiply.outer(_multinomial_pmf(s1, laws[0]),
                                                 _multinomial_pmf(s2, laws[1]))
    return joint


def _chi2_statistic(counts, schedule, joint):
    """chi^2 of the sampled (N_0, N_1) records against the exact joint law; cells
    with fewer than five expected draws are pooled into one, cells of zero
    probability must stay empty.  Returns (chi2, dof)."""
    (s1, _), (s2, _) = schedule
    (a, b), trials = counts, len(counts[0])
    cells = np.ravel_multi_index((a[:, 0], a[:, 1], b[:, 0], b[:, 1]), (s1 + 1, s1 + 1, s2 + 1, s2 + 1))
    observed = np.bincount(cells, minlength=joint.size)
    expected = trials * joint.ravel()
    assert observed[expected == 0].sum() == 0
    big, small = expected >= 5, (expected > 0) & (expected < 5)
    obs, exp = observed[big], expected[big]
    if small.any():
        obs, exp = np.append(obs, observed[small].sum()), np.append(exp, expected[small].sum())
    return float(np.sum((obs - exp) ** 2 / exp)), len(obs) - 1


def _chi2_critical(dof, z=3.09):
    """Upper 1e-3 point of chi^2 with dof degrees of freedom (Wilson-Hilferty)."""
    h = 2.0 / (9 * dof)
    return dof * (1 - h + z * np.sqrt(h)) ** 3


@pytest.mark.parametrize("case", ["perturbed_rest", "unnormalized"])
@pytest.mark.parametrize("sampler", [meas.filter_trajectories, _per_step_filter_loop],
                         ids=["mixture", "per_step_loop"])
def test_filter_sampler_exact_law(perturbed_nu, case, sampler):
    # the mixture sampler and the per-step Bayesian loop draw the same law:
    # k once from the populations, then each segment Multinomial(steps, law_k)
    if case == "perturbed_rest":
        params = meas.PairFilter.from_nu(perturbed_nu, (0, 2))
        assert params.rest > 0
        phis, pops, alpha = np.array([0.0, 2.0, np.pi]), np.array([0.5, 0.2, 0.3]), 0.7
    else:
        params = meas.PairFilter(1.0, 1.0, 0.9)
        phis, pops, alpha = np.angle(np.exp(1j * np.pi * np.arange(8) / 4)), np.full(8, 1 / 8), 0.5
    schedule = [(8, 0.0), (6, np.pi / 2)]
    trials = 100_000
    counts = sampler(params, phis, pops, schedule, trials, alpha, np.random.default_rng(31))
    chi2, dof = _chi2_statistic(counts, schedule, _mixture_law(params, phis, pops, schedule, alpha))
    assert chi2 <= _chi2_critical(dof), (chi2, dof)


def test_filter_trajectories_eigenstate_and_empty_segment():
    # at alpha = pi/4 the filter of PairFilter(0.5, 0.5, 0.5) gives phi = 0 only
    # outcome 0 and phi = pi only outcome 1, so a record shows which k was drawn
    params = meas.PairFilter(0.5, 0.5, 0.5)
    for j in range(3):
        phis = np.where(np.arange(3) == j, 0.0, np.pi)
        pops = (np.arange(3) == j).astype(float)
        empty, full = meas.filter_trajectories(params, phis, pops, [(0, 0.0), (7, 0.0)], 2000,
                                               np.pi / 4, np.random.default_rng(j))
        np.testing.assert_array_equal(empty, np.zeros((2000, 2)))
        np.testing.assert_array_equal(full, np.tile([7, 0], (2000, 1)))


@pytest.mark.parametrize("pops", [[0.0, 0.0, 0.0], [np.nan, 0.5, 0.5], [np.inf, 0.0, 1.0]])
def test_filter_trajectories_rejects_vanishing_populations(perturbed_nu, pops):
    params = meas.PairFilter.from_nu(perturbed_nu, (0, 2))
    with pytest.raises(VanishingProbability):
        meas.filter_trajectories(params, np.array([0.0, 2.0, np.pi]), np.array(pops),
                                 [(3, 0.0)], 4, 0.7, np.random.default_rng(0))


def test_filter_trajectories_rejects_weightless_filter():
    with pytest.raises(VanishingProbability):
        meas.filter_trajectories(meas.PairFilter(0.0, 0.0, 0.0), np.array([0.0, 1.0]),
                                 np.array([0.5, 0.5]), [(3, 0.0)], 4, 0.7, np.random.default_rng(0))


def test_weak_measure_step_rejects_vanishing_probability(perturbed, perturbed_fix, perturbed_an):
    # outcome ops that annihilate the state leave no outcome to draw
    state = channel.VirtualState.product(np.eye(2) / 2, perturbed_fix.rho)
    ops = [np.zeros((perturbed.Db, perturbed.Db))] * perturbed.d
    with pytest.raises(VanishingProbability):
        meas.weak_measure_step(state, perturbed_an, ops, np.random.default_rng(0), wire_n=0)


# results of the virtual sampler (weak_measure_step and its callers) at fixed
# seeds on `perturbed`, recorded before it shared the measurement schedule and
# the outcome draw with the other samplers:
# (counts, counts_real, counts_imag, repr(phi_hat), matched_index)
PINNED_VIRTUAL = {
    "measure": ((3, 14, 23), (0, 9), (3, 5), "-2.7795739538178106", 1),
    "measure_odd": ((1, 2, 4), (1, 0), (0, 2), "-0.5818188272628606", 0),
    "tuned": ((4, 23, 33), (1, 0), (0, 2), "0.2220947601471739", 0),
}


def _pinned_measurement(which, analysis):
    mixed = np.eye(2) / 2
    if which == "measure":
        return meas.measure_observable(mixed, analysis, (0, 1), 40, np.pi / 4, np.random.default_rng(101))
    if which == "measure_odd":
        return meas.measure_observable(mixed, analysis, (0, 1), 7, 0.6, np.random.default_rng(105),
                                       wire_n=3)
    return meas.measure_observable_tuned(mixed, analysis, (0, 1), 60, np.pi / 4, np.random.default_rng(102))


@pytest.mark.parametrize("which", list(PINNED_VIRTUAL))
def test_pinned_virtual_measurement(which, perturbed_an):
    res = _pinned_measurement(which, perturbed_an)
    got = (res.counts, res.counts_real, res.counts_imag, repr(float(res.phi_hat)), res.matched_index)
    assert got == PINNED_VIRTUAL[which]


def virtual_born_frequencies(sigma, analysis, pair, trials, n_m, rng, alpha=np.pi / 4):
    """Outcome frequencies of `trials` full virtual-space measurements of fresh copies of sigma."""
    matched = [meas.measure_observable(sigma, analysis, pair, n_m, alpha, rng).matched_index
               for _ in range(trials)]
    return np.bincount(matched, minlength=len(analysis.pair(pair).eigenphases)) / trials


def test_pinned_virtual_born(perturbed_an):
    projs = perturbed_an.pair((0, 1)).projectors
    freqs = virtual_born_frequencies(0.7 * projs[0] + 0.3 * projs[1], perturbed_an, (0, 1), trials=20,
                                     n_m=40, rng=np.random.default_rng(103))
    assert freqs.tolist() == [0.55, 0.45]


def test_pinned_virtual_initialize(perturbed_an):
    # measured 0 with target 1: the compiled correction fires; the fidelity is
    # that of the step channels' arithmetic (outcomes summed after the wire)
    res = meas.initialize(np.eye(2) / 2, perturbed_an, (0, 1), 1, np.random.default_rng(104), n_m=100)
    assert (res.measured_index, repr(res.fidelity), len(res.correction.steps)) == (0, "0.9999595068655327", 1)


def test_measure_observable_eigenstate(perturbed, perturbed_an):
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    rng = np.random.default_rng(11)
    for idx in (0, 1):
        v = principal(projs[idx])
        res = meas.measure_observable(np.outer(v, v.conj()), perturbed_an, (0, 1),
                                      400, np.pi / 4, rng)
        assert res.matched_index == idx
        assert abs(np.angle(np.exp(1j * (res.phi_hat - phis[idx])))) < 0.3
        assert sum(res.counts) == 400


def test_measure_observable_out_of_range_flag(perturbed_an):
    # tiny N_M gives coarse count ratios; out-of-range estimates are flagged, not fatal
    rng = np.random.default_rng(0)
    flags = []
    for _ in range(40):
        res = meas.measure_observable(np.eye(2) / 2, perturbed_an, (0, 1),
                                      4, np.pi / 4, rng)
        flags.append(res.out_of_range)
        assert abs(res.cos_estimate) <= 1 + meas.OUT_OF_RANGE_SLACK + 1e-12 or np.isnan(res.cos_estimate)
    assert any(flags)


def test_born_eigenstate(perturbed, perturbed_an):
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    v = principal(projs[0])
    rng = np.random.default_rng(2)
    rep = meas.born_statistics(np.outer(v, v.conj()), perturbed_an, (0, 1),
                               trials=200, n_m=300, rng=rng)
    assert rep.frequencies[0] == pytest.approx(1.0)


def test_born_completely_mixed(perturbed_an):
    rng = np.random.default_rng(3)
    rep = meas.born_statistics(np.eye(2) / 2, perturbed_an, (0, 1),
                               trials=4000, n_m=300, rng=rng)
    assert np.all(np.abs(rep.frequencies - 0.5) <= 3 * np.sqrt(0.25 / 4000))


def test_born_methods_agree(perturbed, perturbed_an):
    # the vectorized filter dynamics and the full virtual-space sampler draw
    # from the same distribution
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    sigma = 0.7 * projs[0] + 0.3 * projs[1]
    rep_f = meas.born_statistics(sigma, perturbed_an, (0, 1), trials=400,
                                 n_m=200, rng=np.random.default_rng(4))
    freqs_v = virtual_born_frequencies(sigma, perturbed_an, (0, 1), trials=120,
                                       n_m=200, rng=np.random.default_rng(5))
    sig = np.sqrt(0.7 * 0.3) * np.sqrt(1 / 400 + 1 / 120)
    assert abs(rep_f.frequencies[0] - freqs_v[0]) <= 4 * sig


def test_estimator_std_scaling():
    # eigenstate at a generic phase: the cos-estimate sd follows the 1/sqrt(N) law
    # within a factor two of (nu00+nu11)/(4 |nu01| sqrt(N_M))
    params = meas.PairFilter(0.25, 0.25, 0.25)
    phis = np.array([np.pi / 3])
    pops = np.array([1.0])
    rng = np.random.default_rng(6)
    trials = 2000
    for n_m in (100, 400, 1600, 6400):
        seg = meas.filter_trajectories(params, phis, pops, [(n_m, 0.0)], trials, np.pi / 4, rng)
        ests = np.array([meas.mcos_estimate(params, np.pi / 4, *seg[0][t]) for t in range(trials)])
        sd = np.std(ests)
        formula = (params.nu_ii + params.nu_jj) / (4 * abs(params.nu_ji) * np.sqrt(n_m))
        assert 0.5 * formula <= sd <= 2.0 * formula


def test_changeover_unitary_to_projective(perturbed, perturbed_an):
    # alpha ~ 1/N_M: unitary (purity preserved); alpha = pi/4: projective
    # (eigenbasis dephasing); output entropy grows monotonically in between
    n_m = 400
    rng = np.random.default_rng(7)
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    psi = (principal(projs[0]) + principal(projs[1])) / np.sqrt(2)
    sigma = np.outer(psi, psi.conj())

    def entropy_after(alpha):
        ch = gates.step_channel(perturbed_an, (0, 1), alpha, 0.0)
        out = ch.power(n_m).apply(sigma)
        w = np.clip(np.linalg.eigvalsh((out + out.conj().T) / 2), 1e-16, None)
        w = w / w.sum()
        return float(-(w * np.log(w)).sum()), out

    s_small, out_small = entropy_after(1.0 / n_m)
    s_mid, _ = entropy_after(1.0 / np.sqrt(n_m))
    s_large, _ = entropy_after(np.pi / 4)
    assert s_small < s_mid < s_large
    purity = np.trace(out_small @ out_small).real
    assert purity >= 1 - 20.0 / n_m


def test_initialize_identity_case(perturbed, perturbed_an):
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    v = principal(projs[1])
    rng = np.random.default_rng(8)
    res = meas.initialize(np.outer(v, v.conj()), perturbed_an, (0, 1), 1,
                          rng, n_m=400)
    assert res.measured_index == 1
    assert res.correction.steps == ()
    assert res.fidelity > 0.999


def test_initialize_mixed_input(perturbed_an):
    rng = np.random.default_rng(9)
    res = meas.initialize(np.eye(2) / 2, perturbed_an, (0, 1), 0,
                          rng, n_m=3200, budget=5e-3)
    assert res.fidelity >= 0.99


def test_initialize_correction_path(perturbed, perturbed_an):
    # start in eigenstate 0, ask for eigenstate 1: the compiled rotation must fire
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    v = principal(projs[0])
    rng = np.random.default_rng(10)
    res = meas.initialize(np.outer(v, v.conj()), perturbed_an, (0, 1), 1,
                          rng, n_m=800, budget=5e-3)
    assert res.measured_index == 0
    assert len(res.correction.steps) >= 1
    assert res.fidelity >= 0.99


def test_initialize_needs_qubit(cluster3):
    # corrections are compiled for qubit logical spaces only
    phis, projs = gates.eigenphase_groups(gates.pair_operator(cluster3, (0, 1)))
    v = principal(projs[0])
    rng = np.random.default_rng(11)
    with pytest.raises(ClosureTooSmall):
        meas.initialize(np.outer(v, v.conj()), channel.analyze(cluster3), (0, 1), 2, rng, n_m=200)


def test_measurement_cost_example(cluster2_nu):
    assert meas.measurement_cost(meas.PairFilter.from_nu(cluster2_nu, (0, 1)), np.pi, 0.1) == 6


def test_measurement_cost_quadratic_in_epsilon(cluster2_nu):
    # (nu00 + nu11)/|nu01|^2 = 8 at the cluster point: pick 4*eps*Delta = 1
    params = meas.PairFilter.from_nu(cluster2_nu, (0, 1))
    n1 = meas.measurement_cost(params, 1.0, 0.25)
    n2 = meas.measurement_cost(params, 1.0, 0.125)
    assert (n1, n2) == (8, 32)


def test_measurement_cost_zero_offdiagonal():
    params = meas.PairFilter(0.5, 0.5, 0.0)
    with pytest.raises(ZeroOffDiagonal):
        meas.measurement_cost(params, 1.0, 0.1)


def test_estimate_nu_small(perturbed_nu, perturbed_an):
    rng = np.random.default_rng(12)
    est = meas.estimate_nu(perturbed_an, 20_000, rng)
    assert np.all(np.abs(est.diag - est.diag_truth) <= 4 * np.maximum(est.diag_sigma, 1e-4))
    assert abs(est.abs_nu10 - est.abs_nu10_truth) / est.abs_nu10_truth < 0.1


class _MeanDraws:
    """Stands in for a Generator whose multinomial draws return their expected counts."""

    @staticmethod
    def multinomial(n, pvals):
        return n * np.asarray(pvals)


@pytest.mark.parametrize("fixture", ["perturbed", "perturbed3"])
def test_estimate_nu_exact_without_noise(fixture, request):
    # with the expected counts in place of draws, the linear read-out is exact
    an = channel.analyze(request.getfixturevalue(fixture))
    est = meas.estimate_nu(an, 1000, _MeanDraws())
    np.testing.assert_allclose(est.diag, est.diag_truth, rtol=0, atol=1e-14)
    assert abs(est.abs_nu10 - est.abs_nu10_truth) < 1e-12
    assert abs(meas.wrap_angle(est.delta - est.delta_truth)) < 1e-12


@pytest.mark.parametrize("fixture", ["perturbed", "perturbed3"])
def test_estimate_nu_delta_within_5_sigma(fixture, request):
    an = channel.analyze(request.getfixturevalue(fixture))
    est = meas.estimate_nu(an, 20_000, np.random.default_rng(21))
    assert abs(meas.wrap_angle(est.delta - est.delta_truth)) <= 5 * est.delta_sigma
    assert abs(est.abs_nu10 - est.abs_nu10_truth) <= 5 * est.abs_nu10_sigma
    assert est.pair_frequencies.shape == (4, 2)


def test_tuned_measurement_matches_eigenphase(perturbed, perturbed_an):
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    v = principal(projs[1])
    rng = np.random.default_rng(13)
    res = meas.measure_observable_tuned(np.outer(v, v.conj()), perturbed_an,
                                        (0, 1), 600, np.pi / 4, rng)
    assert res.matched_index == 1
    assert abs(np.angle(np.exp(1j * (res.phi_hat - phis[1])))) < 0.25
    assert sum(res.counts) <= 600


def test_weak_step_rest_outcome_no_filtering(perturbed, perturbed_nu, perturbed_fix, perturbed_an):
    # outcomes outside the pair multiply the state by nu_kk and nothing else
    rng = np.random.default_rng(14)
    sigma = random_density(2, rng)
    state = channel.VirtualState.product(sigma, perturbed_fix.rho)
    ops = gates.step_virtual_ops(perturbed, (0, 1), 0.7, 0.4)
    outs = gates.outcome_states(perturbed_an, ops, state.rho)
    for k in (2, 3):
        weight = np.trace(outs[k]).real
        assert weight == pytest.approx(perturbed_nu.nu[k, k].real, abs=1e-10)
        sig = channel.VirtualState(outs[k], 2, 2).logical_state() / weight
        np.testing.assert_allclose(sig, sigma, atol=1e-10)
