"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line per
criterion.
"""

import numpy as np
import pytest

from sptmbqc import channel, cli, gates, measurement as meas, model, oracle, trajectory as traj
from conftest import random_density, random_state


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_fixed_point_and_factorization(perturbed, perturbed_fix, perturbed_an):
    rng = np.random.default_rng(101)
    L = random_state(4, rng)
    n = channel.default_wire_length(perturbed)
    out = channel.oblivious_wire(
        channel.VirtualState.from_boundary_vector(L, 2, 2), perturbed_an, n)
    residual = channel.factorization_check(out).residual
    rho = perturbed_fix.rho
    psd = float(np.linalg.eigvalsh(rho)[0])
    trace_dev = abs(np.trace(rho).real - 1)
    lres = float(np.linalg.norm(channel.junk_channel(perturbed).apply(rho) - rho))
    ok = residual < 1e-8 and psd > -1e-10 and trace_dev < 1e-12 and lres < 1e-12
    report("criterion 1 (fixed point & factorization)", ok,
           f"schmidt residual {residual:.2e} < 1e-8, min eig {psd:.1e}, "
           f"trace dev {trace_dev:.1e}, channel residual {lres:.2e} < 1e-12")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_nu_matrix(perturbed_nu, perturbed_an):
    nu = perturbed_nu.nu
    herm = float(np.linalg.norm(nu - nu.conj().T))
    trace_dev = float(abs(np.trace(nu) - 1))
    min_eig = float(np.linalg.eigvalsh((nu + nu.conj().T) / 2)[0])
    iter_dev = channel.nu_iteration_deviation(perturbed_an)
    ok = herm < 1e-10 and trace_dev < 1e-10 and min_eig > -1e-10 and iter_dev < 1e-8
    report("criterion 2 (nu-matrix properties)", ok,
           f"hermiticity {herm:.1e}, trace {trace_dev:.1e}, min eig {min_eig:.1e}, "
           f"spectral-vs-iteration {iter_dev:.2e} < 1e-8")


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_first_order_gate_law(perturbed_an):
    worst_ratio = 0.0
    details = []
    for dalpha in (1e-2, 1e-3, 1e-4):
        step = gates.GateStep((0, 1), dalpha, 0.7)
        ch = gates.rotation_step_channel(perturbed_an, step)
        target = gates.unitary_channel(
            gates.rotation_target_unitary(perturbed_an, (0, 1), dalpha, 0.7))
        dist = gates.channel_distance(ch, target)
        worst_ratio = max(worst_ratio, dist / (10 * dalpha ** 2))
        details.append(f"d({dalpha:g})={dist:.1e}")
    errs = {}
    for n in (100, 200, 400, 800):
        errs[n] = gates.finite_rotation(perturbed_an, (0, 1), np.pi / 4, np.pi / 2,
                                        n).distance
    ratios = [errs[n] / errs[2 * n] for n in (100, 200, 400)]
    ok = worst_ratio <= 1.0 and all(1.5 <= r <= 2.5 for r in ratios)
    report("criterion 3 (gate first-order law)", ok,
           f"{', '.join(details)} (all <= 10 dalpha^2); "
           f"error(N)/error(2N) = {', '.join(f'{r:.3f}' for r in ratios)} in [1.5, 2.5]")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_composition(perturbed_an):
    steps = (
        gates.GateStep((0, 1), 0.05, 0.3),
        gates.GateStep((0, 2), -0.04, 1.1),
        gates.GateStep((1, 3), 0.03, 2.0),
    )
    composed = gates.compose_program(perturbed_an, gates.GateProgram(steps))
    product = gates.identity_channel(2)
    for s in steps:
        product = gates.rotation_step_channel(perturbed_an, s).compose(product)
    dev = float(np.max(np.abs(composed.superop - product.superop)))
    report("criterion 4 (composition)", dev < 1e-10,
           f"3-step program vs product of steps: {dev:.2e} < 1e-10")


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_gate_set_size(cluster2, cluster3):
    dims = {}
    for D, point in ((2, cluster2), (3, cluster3)):
        dims[D] = gates.lie_closure(gates.generator_set(point)).dim
    ok = dims[2] == 3 and dims[3] == 8
    report("criterion 5 (gate-set size)", ok,
           f"Lie closure dims: D=2 -> {dims[2]} (expect 3), D=3 -> {dims[3]} (expect 8)")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_filter_and_measurement_suite(perturbed_nu):
    # (a) path-sum conservation on a 256-point grid
    params = meas.PairFilter.from_nu(perturbed_nu, (0, 1))
    grid = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    f0, f1 = meas.filter_values(params, 0.7, 0.4, grid)
    sum_dev = float(np.max(np.abs(f0 + f1 + params.rest - 1)))

    # (b) accumulated-filter peak widths, figure-caption parameters
    fig2 = meas.PairFilter(1.0, 1.0, 0.8)
    wide_grid = np.linspace(-np.pi, np.pi, 2049)
    widths = [meas.filter_peak_width(
        meas.accumulated_filter(fig2, np.pi / 4, n, n, wide_grid), wide_grid)
        for n in (1, 5, 50)]

    # (c) estimate scatter: nu10 = 0.9, phi_k = pi k / 4, completely mixed input
    fig3 = meas.PairFilter(1.0, 1.0, 0.9)
    phis = np.pi * np.arange(8) / 4
    phis = np.angle(np.exp(1j * phis))
    pops = np.full(8, 1 / 8)
    rng = np.random.default_rng(606)
    trials, n_m, alpha = 200, 1600, 0.5
    seg = meas.filter_trajectories(fig3, phis, pops, [(n_m, 0.0)], trials, alpha, rng)
    ests = np.array([meas.mcos_estimate(fig3, alpha, *seg[0][t]) for t in range(trials)])
    true_cos = np.unique(np.round(np.cos(phis), 12))
    dist = np.min(np.abs(ests[:, None] - true_cos[None, :]), axis=1)
    frac = float(np.mean(dist <= np.pi / 8))

    # (d) estimator standard deviation: 1/sqrt(N_M) law within a factor two
    sd_params = meas.PairFilter(0.25, 0.25, 0.25)
    sd_ok = True
    sd_detail = []
    rng = np.random.default_rng(607)
    for n in (100, 400, 1600, 6400):
        seg = meas.filter_trajectories(sd_params, np.array([np.pi / 3]), np.array([1.0]),
                                       [(n, 0.0)], 2000, np.pi / 4, rng)
        sd = float(np.std([meas.mcos_estimate(sd_params, np.pi / 4, *seg[0][t])
                           for t in range(2000)]))
        formula = (sd_params.nu_ii + sd_params.nu_jj) / (4 * abs(sd_params.nu_ji) * np.sqrt(n))
        sd_ok &= 0.5 * formula <= sd <= 2.0 * formula
        sd_detail.append(f"{sd / formula:.2f}")

    ok = (sum_dev < 1e-12 and widths[0] > widths[1] > widths[2] and frac >= 0.9 and sd_ok)
    report("criterion 6 (filter/measurement suite)", ok,
           f"sum rule {sum_dev:.1e} < 1e-12; widths {[round(w, 3) for w in widths]} decreasing; "
           f"{100 * frac:.1f}% of estimates within pi/8 (>= 90%); "
           f"sd/formula ratios {sd_detail} in [0.5, 2]")


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_born_rule(perturbed, perturbed_fix, perturbed_an):
    phis, projs = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    sigma = 0.7 * projs[0] + 0.3 * projs[1]
    rng = np.random.default_rng(707)
    rep = meas.born_statistics(sigma, perturbed_an, (0, 1),
                               trials=10_000, n_m=600, rng=rng)
    band = 3 * np.sqrt(np.array([0.7 * 0.3, 0.3 * 0.7]) / 10_000)
    born_ok = bool(np.all(np.abs(rep.frequencies - np.array([0.7, 0.3])) <= band))

    sigma_r = random_density(2, rng)
    state = channel.VirtualState.product(sigma_r, perturbed_fix.rho)
    ops = gates.step_virtual_ops(perturbed, (0, 1), 0.7, 1.1)
    summed = sum(gates.outcome_states(perturbed_an, ops, state.rho))
    sig_out = channel.VirtualState(summed, 2, 2).logical_state()
    diag_dev = max(abs(np.trace(p @ sigma_r).real - np.trace(p @ sig_out).real) for p in projs)
    ok = born_ok and diag_dev < 1e-12
    report("criterion 7 (Born rule)", ok,
           f"frequencies {np.round(rep.frequencies, 4)} vs (0.7, 0.3) within 3 sigma; "
           f"per-step diagonal preservation {diag_dev:.1e} < 1e-12")


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_boundary_reversion(perturbed, perturbed_fix, perturbed_an):
    rng = np.random.default_rng(808)
    sig = random_density(2, rng)
    left = np.kron(sig, perturbed_fix.rho)
    right = random_state(4, rng)
    program = gates.GateProgram((
        gates.GateStep((0, 1), 0.05, 0.4),
        gates.MeasureStep((0, 2), np.pi / 4, 20),
    ))
    xi_bar = channel.spectrum(channel.reverse_junk_channel(perturbed)).correlation_length
    runway = max(20, int(np.ceil(30 * xi_bar)))
    rep = traj.boundary_equivalence(perturbed_an, program, runway_n=runway,
                                    left_boundary=left, right_boundary=right)
    rfp = traj.completely_oblivious_fixed_point(perturbed_an)
    ok = (rep.tv_exact <= 1e-8 and rfp.logical_deviation < 1e-10
          and rfp.eigenvalue_gap < 1e-12)
    report("criterion 8 (boundary reversion)", ok,
           f"TV at runway {runway} = {rep.tv_exact:.2e} <= 1e-8; reverse fixed point: "
           f"logical factor dev {rfp.logical_deviation:.1e} < 1e-10, "
           f"eigenvalue gap {rfp.eigenvalue_gap:.1e} < 1e-12")


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_oracle_conformance(perturbed, cluster2):
    worst = 0.0
    worst_cond = 0.0
    worst_z = 0.0
    for point, n, seed in ((perturbed, 6, 901), (perturbed, 5, 902), (cluster2, 6, 903)):
        rep = oracle.conformance_suite(point, n, np.random.default_rng(seed))
        worst = max(worst, rep.max_deviation)
        worst_cond = max(worst_cond, rep.deviations["appendix_a_conditional"])
        worst_z = max(worst_z, rep.sampled_z)
    ok = worst <= 1e-10 and worst_cond <= 1e-12 and worst_z <= 3.0
    report("criterion 9 (oracle conformance)", ok,
           f"max engine-vs-oracle deviation {worst:.2e} <= 1e-10 over scenarios at n <= 6; "
           f"record-independence of p_A(o|s): {worst_cond:.1e} <= 1e-12; "
           f"sampled p'_A z-score {worst_z:.2f} <= 3")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_nu_self_test(perturbed_an):
    rng = np.random.default_rng(1010)
    est = meas.estimate_nu(perturbed_an, 100_000, rng)
    diag_ok = bool(np.all(np.abs(est.diag - est.diag_truth)
                          <= 3 * np.maximum(est.diag_sigma, 1e-9)))
    rel = abs(est.abs_nu10 - est.abs_nu10_truth) / est.abs_nu10_truth
    ok = diag_ok and rel < 0.05
    report("criterion 10 (nu self-test)", ok,
           f"diagonals within 3 sigma of {np.round(est.diag_truth, 4)}; "
           f"|nu10| relative error {100 * rel:.2f}% < 5%")


# -- 11 ---------------------------------------------------------------------

def test_criterion_11_interaction_picture(cluster2, cluster3, perturbed, perturbed3):
    worst = 0.0
    for point in (cluster2, cluster3, perturbed, perturbed3):
        an = channel.analyze(point)
        step = gates.GateStep((0, 1), 0.07, 0.9)
        ch = gates.rotation_step_channel(an, step)
        u = gates.step_interaction_unitary(point, step)
        rng = np.random.default_rng(1111)
        for _ in range(3):
            sigma = random_density(point.D, rng)
            dev = float(np.max(np.abs(ch.apply(sigma) - gates.interaction_step(an, sigma, u))))
            worst = max(worst, dev)
    report("criterion 11 (interaction picture)", worst < 1e-10,
           f"ancilla-coupling circuit vs step channel on all shipped models: {worst:.2e} < 1e-10")


# -- 12 ---------------------------------------------------------------------

def test_criterion_12_cli_determinism(tmp_path):
    mdir = tmp_path / "m"
    assert cli.main(["model", "perturb", "--strength", "0.3", "--junk-dim", "2", "--seed", "7",
                     "--out", str(mdir), "--name", "pt.json"]) == 0
    args = ["run", "measure", "--model", str(mdir / "pt.json"), "--pair", "0", "1",
            "--nm", "400", "--trials", "25", "--seed", "9", "--curves"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    same = all((out1 / f.name).read_bytes() == (out2 / f.name).read_bytes()
               for f in out1.iterdir())
    report("criterion 12 (CLI determinism)", same,
           f"repeated run produced byte-identical outputs: {sorted(f.name for f in out1.iterdir())}")
