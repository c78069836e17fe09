import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sptmbqc import channel, gates, measurement as meas, model, oracle, trajectory as traj
from sptmbqc.errors import NumericalFailure, ValidationError, VanishingProbability
from conftest import random_density, random_state


def wire_program(n):
    return gates.GateProgram((gates.WireStep(n),))


def test_cluster_wire_uniform_outcomes(cluster2_an):
    cfg = traj.RunConfig(analysis=cluster2_an, program=wire_program(5),
                         procedure=traj.Procedure.PROCEDURE_I)
    engine = traj.TrajectoryEngine(cfg)
    trials = 3000
    records = engine.sample([np.random.default_rng((0, t)) for t in range(trials)])
    counts = sum(rec.outcome_counts for rec in records)
    freqs = counts / counts.sum()
    assert np.all(np.abs(freqs - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / (5 * trials)))


def test_engine_sample_deterministic(perturbed_an):
    cfg = traj.RunConfig(analysis=perturbed_an, program=wire_program(8),
                         procedure=traj.Procedure.PROCEDURE_I)
    a = traj.TrajectoryEngine(cfg).sample([np.random.default_rng(42)])[0]
    b = traj.TrajectoryEngine(cfg).sample([np.random.default_rng(42)])[0]
    assert a.outcomes == b.outcomes
    np.testing.assert_array_equal(a.final_state.rho, b.final_state.rho)


def test_byproduct_bookkeeping(perturbed, perturbed_an):
    cfg = traj.RunConfig(analysis=perturbed_an, program=wire_program(10),
                         procedure=traj.Procedure.PROCEDURE_I)
    rec = traj.TrajectoryEngine(cfg).sample([np.random.default_rng(5)])[0]
    np.testing.assert_allclose(
        rec.byproduct, traj.byproduct_from_outcomes(perturbed, rec.outcomes), atol=1e-12)


def test_procedure_ii_logical_invariance(perturbed_an):
    l = np.array([0.6, 0.8j])
    j = np.array([1.0, 0.4 - 0.3j])
    j = j / np.linalg.norm(j)
    cfg = traj.RunConfig(analysis=perturbed_an, program=wire_program(6),
                         procedure=traj.Procedure.PROCEDURE_II, left_boundary=np.kron(l, j))
    engine = traj.TrajectoryEngine(cfg)
    logicals = [rec.final_state.logical_state()
                for rec in engine.sample([np.random.default_rng((1, t)) for t in range(10)])]
    for x in logicals:
        np.testing.assert_allclose(x, logicals[0], atol=1e-12)


def test_procedure_iii_erases_record(perturbed_an):
    cfg = traj.RunConfig(analysis=perturbed_an, program=wire_program(6),
                         procedure=traj.Procedure.PROCEDURE_III)
    rec = traj.TrajectoryEngine(cfg).sample([np.random.default_rng(1)])[0]
    assert rec.outcomes is None
    assert rec.byproduct is None
    assert rec.outcome_counts.sum() == 6


def test_exact_path_sum_equals_oblivious_wire(perturbed_an):
    rng = np.random.default_rng(2)
    L = random_state(4, rng)
    cfg = traj.RunConfig(analysis=perturbed_an, program=wire_program(4), left_boundary=L)
    ps = traj.add_paths(cfg, 1, 0, exact=True)
    expected = channel.oblivious_wire(
        channel.VirtualState.from_boundary_vector(L, 2, 2), perturbed_an, 4)
    assert ps.n_paths == 4 ** 4
    assert np.max(np.abs(ps.state.rho - expected.rho)) < 1e-14


def test_exact_path_sum_cluster(cluster2_an):
    rng = np.random.default_rng(3)
    L = random_state(2, rng)
    cfg = traj.RunConfig(analysis=cluster2_an, program=wire_program(4), left_boundary=L)
    ps = traj.add_paths(cfg, 1, 0, exact=True)
    expected = channel.oblivious_wire(
        channel.VirtualState.from_boundary_vector(L, 2, 1), cluster2_an, 4)
    assert np.max(np.abs(ps.state.rho - expected.rho)) < 1e-14


def test_exact_path_sum_mixed_left_density(perturbed_an):
    rng = np.random.default_rng(9)
    left = random_density(4, rng)
    cfg = traj.RunConfig(analysis=perturbed_an, program=wire_program(5), left_boundary=left)
    ps = traj.add_paths(cfg, 1, 0, exact=True)
    expected = channel.oblivious_wire(channel.VirtualState(left, 2, 2), perturbed_an, 5)
    assert ps.n_paths == 4 ** 5
    assert np.max(np.abs(ps.state.rho - expected.rho)) < 1e-14


def test_sampled_add_paths_matches_channel(perturbed_an):
    rng = np.random.default_rng(4)
    L = random_state(4, rng)
    cfg = traj.RunConfig(analysis=perturbed_an, program=wire_program(4), left_boundary=L)
    ps = traj.add_paths(cfg, 3000, 11)
    expected = channel.oblivious_wire(
        channel.VirtualState.from_boundary_vector(L, 2, 2), perturbed_an, 4)
    # entrywise agreement at the Monte Carlo scale
    assert np.max(np.abs(ps.state.rho - expected.rho)) < 5 * ps.stderr


def test_sampled_convergence_rate(perturbed_an):
    rng = np.random.default_rng(5)
    L = random_state(4, rng)
    expected = channel.oblivious_wire(
        channel.VirtualState.from_boundary_vector(L, 2, 2), perturbed_an, 3).rho

    def mean_err(trials, rep):
        cfg = traj.RunConfig(analysis=perturbed_an, program=wire_program(3), left_boundary=L)
        ps = traj.add_paths(cfg, trials, 1000 * rep + trials)
        return np.linalg.norm(ps.state.rho - expected)

    reps = 10
    e1 = np.mean([mean_err(150, r) for r in range(reps)])
    e4 = np.mean([mean_err(600, r) for r in range(reps)])
    assert 1.0 <= e1 / e4 <= 4.0  # half the error, within a factor two


def test_add_paths_rejects_no_trials(perturbed_an):
    cfg = traj.RunConfig(analysis=perturbed_an, program=wire_program(2))
    for exact in (False, True):
        with pytest.raises(ValidationError, match="trials"):
            traj.add_paths(cfg, 0, 0, exact=exact)


def test_kraus_completeness(perturbed, cluster2):
    for point, n in ((perturbed, 2), (cluster2, 3)):
        fam = traj.procedure_kraus_family(point, n)
        total = sum(p.conj().T @ p for p in fam)
        assert np.max(np.abs(total - np.eye(total.shape[0]))) < 1e-12


def test_boundary_equivalence_converged_runway(perturbed, perturbed_fix, perturbed_an):
    rng = np.random.default_rng(6)
    sig = np.array([[0.8, 0.3 - 0.1j], [0.3 + 0.1j, 0.2]])
    sig /= np.trace(sig).real
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
    assert rep.tv_exact <= 1e-8


def test_boundary_equivalence_monotone(perturbed, perturbed_fix, perturbed_an):
    rng = np.random.default_rng(7)
    sig = np.array([[0.9, 0.2], [0.2, 0.1]])
    sig = sig / np.trace(sig)
    left = np.kron(sig, perturbed_fix.rho)
    right = random_state(4, rng)
    program = gates.GateProgram((gates.MeasureStep((0, 2), np.pi / 4, 2, wire_n=0),))
    xi_bar = channel.spectrum(channel.reverse_junk_channel(perturbed)).correlation_length
    runways = [0, int(np.ceil(xi_bar)), int(np.ceil(5 * xi_bar)), int(np.ceil(30 * xi_bar))]
    tvs = [traj.boundary_equivalence(perturbed_an, program, runway_n=r, left_boundary=left,
                                     right_boundary=right).tv_exact for r in runways]
    assert tvs[0] > 1e-3  # boundary not yet decoupled at runway zero
    # strictly decreasing until the machine floor
    assert all(tvs[i] > tvs[i + 1] or tvs[i + 1] < 1e-14 for i in range(len(tvs) - 1))


def test_boundary_equivalence_sampled(perturbed_fix, perturbed_an):
    rng = np.random.default_rng(8)
    sig = np.eye(2) / 2
    left = np.kron(sig, perturbed_fix.rho)
    right = random_state(4, rng)
    program = gates.GateProgram((gates.MeasureStep((0, 2), np.pi / 4, 30, wire_n=25),))
    rep = traj.boundary_equivalence(perturbed_an, program, runway_n=40, trials=60,
                                    left_boundary=left, right_boundary=right, seed=9)
    assert rep.tv_sampled is not None
    # two 60-trial empirical distributions of a (0.5, 0.5) law
    assert rep.tv_sampled <= 4 * np.sqrt(0.5 / 60)


def test_boundary_runways_sample_independently(perturbed_fix, perturbed_an, monkeypatch):
    # two runways whose exact weights agree (PHI_TILDE never reads the runway;
    # PHI_RUNWAY has converged by 40 sites) still draw their own trials
    sampled = []
    sample = traj.TrajectoryEngine.sample

    def recording(engine, rngs):
        records = sample(engine, rngs)
        sampled.append([rec.boundary_outcome for rec in records])
        return records

    monkeypatch.setattr(traj.TrajectoryEngine, "sample", recording)
    program = gates.GateProgram((gates.MeasureStep((0, 2), np.pi / 4, 10, wire_n=5),))
    left = np.kron(np.eye(2) / 2, perturbed_fix.rho)
    reps = [traj.boundary_equivalence(perturbed_an, program, runway_n=r, trials=20,
                                      left_boundary=left, seed=3) for r in (40, 41)]
    np.testing.assert_allclose(reps[0].p_runway, reps[1].p_runway, atol=1e-12)
    (tilde_40, runway_40), (tilde_41, runway_41) = sampled[:2], sampled[2:]
    assert tilde_40 != tilde_41 and runway_40 != runway_41


def _boundary_dict_loop(analysis, program, runway_n, left, right):
    # reference: the label-keyed dict evolution and per-label kron that
    # boundary_equivalence's array recursion replaced
    point = analysis.point
    D, ident_j, labels = point.D, np.eye(point.Dj), analysis.labels
    sites, _ = traj.expand_sites(analysis, gates.GateProgram(program.steps[:-1]))
    states = {(0, 0): left / np.trace(left).real}
    for site in sites:
        new = {}
        for g, tau in states.items():
            for s, op in enumerate(site.ops):
                key = ((g[0] + labels[s][0]) % D, (g[1] + labels[s][1]) % D)
                new[key] = new.get(key, 0) + op @ tau @ op.conj().T
        states = new
    obs = analysis.pair(program.steps[-1].pair)
    w_run = traj.runway_weight(channel.reverse_full_channel(point), right, runway_n)
    p_tilde = np.zeros(len(obs.eigenphases))
    p_run = np.zeros(len(obs.eigenphases))
    for i, proj in enumerate(obs.projectors):
        pw = np.kron(proj, ident_j)
        for g, tau in states.items():
            vg = np.kron(model.weyl_unitary(D, *g), ident_j)
            cut = pw @ tau @ pw.conj().T
            p_tilde[i] += np.trace(cut).real
            p_run[i] += np.trace(cut @ vg.conj().T @ w_run @ vg).real
    return p_tilde / p_tilde.sum(), p_run / p_run.sum()


@pytest.mark.parametrize("which", ["perturbed", "perturbed3"])
def test_boundary_equivalence_matches_label_dict_loop(request, which):
    point = request.getfixturevalue(which)
    analysis = channel.analyze(point)
    rng = np.random.default_rng(13)
    left = random_density(point.Db, rng)
    right = random_state(point.Db, rng)
    program = gates.GateProgram((
        gates.GateStep((0, 1), 0.1, 0.4, wire_n=2),
        gates.MeasureStep((0, 2), 0.6, 3, wire_n=1),
        gates.MeasureStep((0, 1), np.pi / 4, 10),
    ))
    for runway in (0, 3):
        rep = traj.boundary_equivalence(analysis, program, runway_n=runway,
                                        left_boundary=left, right_boundary=right)
        p_tilde, p_run = _boundary_dict_loop(analysis, program, runway, left, right)
        np.testing.assert_allclose(rep.p_tilde, p_tilde, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.p_runway, p_run, rtol=0, atol=1e-12)
        assert rep.tv_exact == pytest.approx(0.5 * np.sum(np.abs(p_tilde - p_run)), abs=1e-12)


def test_boundary_requires_final_measurement(perturbed_an):
    with pytest.raises(ValidationError):
        traj.boundary_equivalence(perturbed_an, wire_program(3), runway_n=5)


def test_completely_oblivious_fixed_point(perturbed_an):
    rfp = traj.completely_oblivious_fixed_point(perturbed_an)
    assert rfp.logical_deviation < 1e-10
    assert rfp.eigenvalue_gap < 1e-12
    assert rfp.forward_overlap > 1e-10


def test_completely_oblivious_cluster(cluster2_an):
    rfp = traj.completely_oblivious_fixed_point(cluster2_an)
    assert rfp.eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert rfp.logical_deviation < 1e-12


def test_measure_step_seed_stream_contract(cluster2, cluster2_an):
    # on the cluster point with no interleaved wire, the trajectory engine and
    # the measurement module consume one uniform per weak step and compute
    # identical probabilities, so identical seeds give identical outcomes
    n_m = 60
    program = gates.GateProgram((gates.MeasureStep((0, 1), np.pi / 4, n_m, wire_n=0),))
    cfg = traj.RunConfig(analysis=cluster2_an, program=program)
    rec = traj.TrajectoryEngine(cfg).sample([np.random.default_rng(77)])[0]

    rng = np.random.default_rng(77)
    fix = channel.fixed_point(channel.junk_channel(cluster2))
    state = channel.VirtualState.product(np.eye(2) / 2, fix.rho)
    outcomes = []
    for steps, beta in program.steps[0].schedule:
        ops = gates.step_virtual_ops(cluster2, (0, 1), np.pi / 4, beta)
        for _ in range(steps):
            k, state = meas.weak_measure_step(state, cluster2_an, ops, rng, wire_n=0)
            outcomes.append(k)
    assert tuple(outcomes) == rec.outcomes


def test_expand_sites_odd_measure_schedule(perturbed_an):
    # n_m = 7: three beta = 0 measure blocks, then four beta = pi/2 blocks
    step = gates.MeasureStep((0, 2), 0.6, 7, wire_n=2)
    sites, segments = traj.expand_sites(perturbed_an, gates.GateProgram((step,)))
    assert segments == [step]
    measured = [s for s in sites if s.kind == "measure"]
    assert [s.half for s in measured] == [0] * 3 + [1] * 4
    assert len(sites) == 7 * 3
    for s in measured:
        beta = (0.0, np.pi / 2)[s.half]
        np.testing.assert_array_equal(s.ops, gates.step_virtual_ops(perturbed_an.point, (0, 2), 0.6, beta))


def test_compose_program_matches_sampled_trajectories(perturbed_fix, perturbed_an):
    # channel-level composition agrees with the Monte Carlo path sum
    program = gates.GateProgram((
        gates.GateStep((0, 1), 0.15, 0.8, wire_n=45),
        gates.GateStep((0, 2), 0.1, 1.9, wire_n=45),
    ))
    rng = np.random.default_rng(14)
    v = random_state(2, rng)
    sigma0 = np.outer(v, v.conj())
    expected = gates.compose_program(perturbed_an, program).apply(sigma0)
    cfg = traj.RunConfig(analysis=perturbed_an, program=program,
                         left_boundary=np.kron(sigma0, perturbed_fix.rho))
    ps = traj.add_paths(cfg, 800, 15)
    dev = np.max(np.abs(ps.state.logical_state() - expected))
    assert dev < 5 * max(ps.stderr, 1e-3)


def test_jsonl_log_roundtrip(tmp_path, perturbed_an):
    cfg = traj.RunConfig(analysis=perturbed_an, program=wire_program(5),
                         procedure=traj.Procedure.PROCEDURE_I)
    engine = traj.TrajectoryEngine(cfg)
    records = engine.sample([np.random.default_rng((3, t)) for t in range(4)])
    path = tmp_path / "log.jsonl"
    traj.write_records_jsonl(records, path)
    import json
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    first = json.loads(lines[0])
    assert first["outcomes"] == list(records[0].outcomes)
    assert first["procedure"] == "I"


# records of the per-trial sampler this engine replaced, for the programs below
PINNED_WIRE2 = [
    (3, 3, 3, 0, 3, 3, 1, 0, 3, 2, 1, 2),
    (3, 0, 1, 2, 0, 3, 2, 2, 0, 1, 2, 2),
    (0, 3, 1, 3, 2, 2, 1, 3, 0, 3, 2, 0),
]
PINNED_WIRE3 = [
    (2, 1, 0, 6, 4, 8, 7, 7, 0, 5),
    (2, 1, 1, 4, 2, 8, 1, 0, 1, 2),
    (8, 5, 0, 7, 6, 5, 3, 4, 7, 0),
]
HALF_PI = np.pi / 2
PINNED_MEASURE = {
    traj.BoundaryMode.PHI_TILDE: [
        ((3, 3, 0, 0, 2, 3, 0, 1, 2, 1, 1, 1, 0, 1, 0, 1, 1, 3, 1, 3, 0, 2), HALF_PI),
        ((3, 0, 3, 0, 3, 0, 3, 1, 2, 3, 1, 2, 1, 3, 3, 1, 3, 0, 3, 3, 3, 1), -HALF_PI),
        ((3, 1, 3, 1, 2, 3, 3, 3, 1, 0, 1, 3, 3, 0, 1, 0, 1, 3, 1, 2, 3, 3), -HALF_PI),
        ((3, 3, 3, 0, 2, 3, 1, 1, 3, 1, 2, 1, 3, 3, 3, 1, 2, 0, 3, 2, 3, 1), -HALF_PI),
        ((1, 0, 0, 1, 3, 3, 0, 2, 1, 1, 1, 2, 2, 3, 0, 1, 0, 3, 1, 3, 1, 2), HALF_PI),
    ],
    traj.BoundaryMode.PHI_RUNWAY: [
        ((3, 2, 0, 1, 0, 3, 0, 3, 0, 0, 2, 2, 0, 1, 1, 3, 0, 3, 1, 0, 1, 3), HALF_PI),
        ((1, 0, 2, 3, 0, 3, 2, 1, 3, 3, 3, 1, 3, 0, 3, 3, 2, 3, 2, 3, 3, 3), -HALF_PI),
        ((0, 3, 3, 0, 3, 3, 1, 3, 1, 1, 1, 3, 2, 3, 0, 3, 1, 3, 2, 2, 3, 0), -HALF_PI),
        ((0, 3, 3, 1, 3, 3, 0, 2, 1, 3, 1, 0, 3, 2, 2, 3, 3, 0, 3, 0, 1, 0), -HALF_PI),
        ((0, 3, 1, 1, 2, 2, 3, 3, 1, 3, 2, 1, 3, 2, 1, 3, 1, 3, 3, 3, 1, 3), -HALF_PI),
    ],
}
PIN_RIGHT = np.array([0.6, 0.3j, -0.5, 0.2 + 0.1j])
PIN_LEFT = np.array([0.8, 0.1j, 0.6, 0.0])


def pinned_measure_program():
    return gates.GateProgram((gates.GateStep((0, 1), 0.05, 0.4, wire_n=1),
                              gates.MeasureStep((0, 3), np.pi / 4, 10, wire_n=1)))


def sample_batch(cfg, key, trials):
    return traj.TrajectoryEngine(cfg).sample(
        [np.random.default_rng(key + (t,)) for t in range(trials)])


def test_pinned_wire_records(perturbed, perturbed3):
    for point, n, key, pinned in ((perturbed, 12, (21,), PINNED_WIRE2),
                                  (perturbed3, 10, (22,), PINNED_WIRE3)):
        records = sample_batch(traj.RunConfig(analysis=channel.analyze(point), program=wire_program(n)), key, 3)
        assert [rec.outcomes for rec in records] == pinned
        assert all(rec.boundary_outcome is None for rec in records)


@pytest.mark.parametrize("mode", list(traj.BoundaryMode))
def test_pinned_measure_records(mode, perturbed_an):
    # no runway: the right boundary weight, and so the byproduct label, is felt most
    cfg = traj.RunConfig(analysis=perturbed_an, program=pinned_measure_program(), boundary=mode,
                         right_boundary=PIN_RIGHT, left_boundary=PIN_LEFT)
    key = (23, list(traj.BoundaryMode).index(mode))
    records = sample_batch(cfg, key, 5)
    assert [(rec.outcomes, rec.boundary_outcome) for rec in records] == PINNED_MEASURE[mode]


@pytest.mark.parametrize("mode", list(traj.BoundaryMode))
@pytest.mark.parametrize("which", ["perturbed", "perturbed3"])
def test_record_independent_of_batch(request, which, mode):
    point = request.getfixturevalue(which)
    rng = np.random.default_rng(31)
    cfg = traj.RunConfig(analysis=channel.analyze(point), program=pinned_measure_program(), boundary=mode,
                         procedure=traj.Procedure.PROCEDURE_I, runway_n=3,
                         right_boundary=random_state(point.Db, rng))
    engine = traj.TrajectoryEngine(cfg)
    batch = engine.sample([np.random.default_rng((4, t)) for t in range(6)])
    for t, rec in enumerate(batch):
        alone = engine.sample([np.random.default_rng((4, t))])[0]
        assert alone.outcomes == rec.outcomes
        assert alone.boundary_outcome == rec.boundary_outcome
        assert alone.measure_counts == rec.measure_counts
        np.testing.assert_array_equal(alone.byproduct, rec.byproduct)
        np.testing.assert_array_equal(alone.final_state.rho, rec.final_state.rho)


def test_draw_outcomes_rule():
    rng = np.random.default_rng(12)
    probs = rng.random((200, 5)) - 0.1
    draws = rng.random(200)
    got = meas.draw_outcomes(probs, draws)
    for p, r, s in zip(probs, draws, got):
        p = np.clip(p, 0.0, None)
        p = p / p.sum()
        assert s == min(int(np.searchsorted(np.cumsum(p), r)), len(p) - 1)


@pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [-0.2, 0.0, -1e-17], [np.nan, 0.5, 0.5]])
def test_draw_outcomes_rejects_vanishing_row(row):
    probs = np.array([[0.3, 0.3, 0.4], row])
    with pytest.raises(VanishingProbability):
        meas.draw_outcomes(probs, np.array([0.5, 0.5]))


@pytest.mark.parametrize("field", ["left_boundary", "right_boundary"])
@pytest.mark.parametrize("value", [np.zeros(4), np.array([1.0, np.nan, 0.0, 0.0]),
                                   np.array([np.inf, 0.0, 0.0, 0.0])])
def test_run_config_rejects_degenerate_boundary(field, value, perturbed_an):
    with pytest.raises(ValidationError):
        traj.RunConfig(analysis=perturbed_an, program=wire_program(2),
                       boundary=traj.BoundaryMode.PHI_RUNWAY, **{field: value})
    with pytest.raises(ValidationError):
        traj.boundary_equivalence(perturbed_an, pinned_measure_program(), runway_n=2,
                                  trials=2, **{field: value})


def _reverse_weight(point, w, n):
    # test-local Fbar^n(w) = sum_s A_s^dag (...) A_s from the site tensors
    tensors = point.site_tensors()
    for _ in range(n):
        w = (tensors.conj().swapaxes(-1, -2) @ w @ tensors).sum(axis=0)
    return w


@given(data=st.data(), D=st.sampled_from([2, 3]), junk_dim=st.integers(1, 4),
       strength=st.floats(0.1, 0.6), seed=st.integers(0, 2 ** 16),
       mode=st.sampled_from(list(traj.BoundaryMode)), runway_n=st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_record_probability_matches_oracle(data, D, junk_dim, strength, seed, mode, runway_n):
    # exp(log_prob) of every sampled wire record is the dense oracle's
    # probability of its outcome string, in both boundary modes
    n = data.draw(st.integers(0, 6 if D == 2 else 4), label="n")
    try:
        point = model.perturb_point(model.build_cluster_point(D), strength, junk_dim, seed)
        analysis = channel.analyze(point)
        analysis.labels
    except NumericalFailure:
        assume(False)
    rng = np.random.default_rng(seed)
    L, R = random_state(point.Db, rng), random_state(point.Db, rng)
    cfg = traj.RunConfig(analysis=analysis, program=wire_program(n), boundary=mode,
                         runway_n=runway_n, left_boundary=L, right_boundary=R)
    records = sample_batch(cfg, (seed, 9), 12)
    if mode is traj.BoundaryMode.PHI_TILDE:
        weight = np.eye(point.Db, dtype=complex)
    else:
        weight = _reverse_weight(point, np.outer(R, R.conj()), runway_n)
    q = oracle.runway_marginal(point, n, L, weight)
    for rec in records:
        flat = int(np.ravel_multi_index(rec.outcomes, (point.d,) * n)) if n else 0
        np.testing.assert_allclose(np.exp(rec.log_prob), q[flat], rtol=1e-10, atol=0)
        np.testing.assert_allclose(rec.byproduct, traj.byproduct_from_outcomes(point, rec.outcomes),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", list(traj.BoundaryMode))
@pytest.mark.parametrize("which", ["perturbed", "perturbed3"])
def test_long_wire_settled_weights(request, which, mode):
    # along a long wire the future weight settles: the engine shares one array
    # for every site left of that point, within 1e-11 of the full recursion
    point = request.getfixturevalue(which)
    n = 800  # perturbed3 (xi = 12.3) settles only about 330 sites from the right end
    rng = np.random.default_rng(41)
    L, R = random_state(point.Db, rng), random_state(point.Db, rng)
    cfg = traj.RunConfig(analysis=channel.analyze(point), program=wire_program(n), boundary=mode,
                         runway_n=2, left_boundary=L, right_boundary=R)
    engine = traj.TrajectoryEngine(cfg)
    tensors = point.site_tensors()
    full = [np.eye(point.Db, dtype=complex) if engine.tilde
            else _reverse_weight(point, np.outer(R, R.conj()), 2)]
    for _ in range(n):
        full.append(_reverse_weight(point, full[-1], 1))
    full = full[::-1]
    for got, want in zip(engine.weights, full):
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))
    assert len({id(w) for w in engine.weights}) < n / 2
    # only the settled weight's table is kept: the others are built at their site
    assert len({id(tab) for tab in engine.tables if tab is not None}) == 1

    for rec in engine.sample([np.random.default_rng((42, t)) for t in range(3)]):
        v, logp = L, 0.0
        for t, s in enumerate(rec.outcomes):
            probs = np.array([(u.conj() @ full[t + 1] @ u).real for u in tensors @ v])
            logp += np.log(probs[s] / probs.sum())
            v = tensors[s] @ v
            v = v / np.linalg.norm(v)
        assert abs(rec.log_prob - logp) <= 1e-10
