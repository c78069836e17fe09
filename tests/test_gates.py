import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sptmbqc import channel, gates, model, trajectory
from sptmbqc.errors import (ClosureTooSmall, MaxDimExceeded, NumericalFailure, SymmetryConditionViolated,
                            ValidationError)
from conftest import random_density

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_generator_set_examples(cluster2):
    gens = gates.generator_set(cluster2)
    assert len(gens) == 2 * 6
    # pair (0, 2): C = X, Hermitian, so the antisymmetric part vanishes
    idx = 2 * [(i, j) for i in range(4) for j in range(i + 1, 4)].index((0, 2))
    np.testing.assert_allclose(gens[idx], X, atol=1e-14)
    np.testing.assert_allclose(gens[idx + 1], np.zeros((2, 2)), atol=1e-14)
    # pair (1, 2): C = Z X; symmetric part 0, antisymmetric part -Y: (XZ - ZX)/2i = -Y
    idx = 2 * [(i, j) for i in range(4) for j in range(i + 1, 4)].index((1, 2))
    np.testing.assert_allclose(gens[idx], np.zeros((2, 2)), atol=1e-14)
    np.testing.assert_allclose(gens[idx + 1], Y, atol=1e-14)
    for g in gens:
        np.testing.assert_allclose(g, g.conj().T, atol=1e-14)


def test_pair_12_sign_convention(cluster2):
    # hand algebra: Z^-1 X = ZX = iY, antisymmetric part (C - C^dag)/2i = Y
    c = gates.pair_operator(cluster2, (1, 2))
    np.testing.assert_allclose(c, 1j * Y, atol=1e-14)
    np.testing.assert_allclose((X @ Z - Z @ X) / 2j, -Y, atol=1e-14)


@pytest.mark.parametrize("fixture,expected", [("cluster2", 3), ("cluster3", 8)])
def test_lie_closure_dimension(request, fixture, expected):
    point = request.getfixturevalue(fixture)
    closure = gates.lie_closure(gates.generator_set(point))
    assert closure.dim == expected


def test_lie_closure_abelian():
    assert gates.lie_closure([Z]).dim == 1


def test_lie_closure_closed(cluster3):
    closure = gates.lie_closure(gates.generator_set(cluster3))
    basis = closure.basis
    mats = np.array([b.reshape(-1) for b in basis])
    for a in basis[:4]:
        for b in basis[:4]:
            comm = (a @ b - b @ a) / 1j
            coeffs = np.array([np.trace(x @ comm).real for x in basis])
            resid = comm - sum(c * x for c, x in zip(coeffs, basis))
            assert np.linalg.norm(resid) < 1e-10


def test_lie_closure_max_dim():
    with pytest.raises(MaxDimExceeded):
        gates.lie_closure([X, Y, Z], max_dim=2)


def test_rotation_step_zero_angle(perturbed_an):
    step = gates.GateStep((0, 1), 0.0, 0.3)
    ch = gates.rotation_step_channel(perturbed_an, step)
    assert np.max(np.abs(ch.superop - np.eye(4))) < 1e-12


def test_rotation_step_hermitian_generator_beta0(cluster2_an):
    # pair (0, 2) has C = X Hermitian, so at beta = 0 the generator vanishes
    dalpha = 1e-3
    step = gates.GateStep((0, 2), dalpha, 0.0)
    ch = gates.rotation_step_channel(cluster2_an, step)
    assert gates.channel_distance(ch, gates.identity_channel(2)) < 10 * dalpha ** 2


@pytest.mark.parametrize("fixture", ["cluster2", "cluster3", "perturbed", "perturbed3"])
def test_first_order_law_all_models(request, fixture):
    point = request.getfixturevalue(fixture)
    an = channel.analyze(point)
    dalpha = 1e-3
    step = gates.GateStep((0, 1), dalpha, 0.7)
    ch = gates.rotation_step_channel(an, step)
    target = gates.unitary_channel(gates.rotation_target_unitary(an, (0, 1), dalpha, 0.7))
    assert gates.channel_distance(ch, target) <= 10 * dalpha ** 2


def test_anticommutator_cancellation(perturbed, perturbed_nu, perturbed_fix, perturbed_an):
    # the two-path sum over the pair's outcomes has no first-order trace change
    rng = np.random.default_rng(0)
    sigma = random_density(2, rng)
    tau = np.kron(sigma, perturbed_fix.rho)
    wire_n = channel.default_wire_length(perturbed)

    def raw_trace(dalpha):
        ops = gates.step_virtual_ops(perturbed, (0, 1), np.arctan(dalpha), 0.9)
        outs = gates.outcome_states(perturbed_an, ops, tau, wire_n)
        return np.trace(outs[0] + outs[1]).real

    h = 1e-4
    derivative = (raw_trace(h) - raw_trace(-h)) / (2 * h)
    assert abs(derivative) < 1e-8


def test_finite_rotation_zero(perturbed_an):
    fr = gates.finite_rotation(perturbed_an, (0, 1), 0.0, 0.0, 10)
    assert gates.channel_distance(fr.channel, gates.identity_channel(2)) < 1e-12


def test_finite_rotation_error_scaling(perturbed_an):
    errs = {}
    for n in (100, 200, 400, 800):
        fr = gates.finite_rotation(perturbed_an, (0, 1), np.pi / 4, np.pi / 2, n)
        errs[n] = fr.distance
    for n in (100, 200, 400):
        assert 1.5 <= errs[n] / errs[2 * n] <= 2.5


def test_finite_rotation_cluster_example(cluster2_an):
    fr = gates.finite_rotation(cluster2_an, (0, 2), np.pi / 4, np.pi / 2, 400)
    assert fr.distance <= 5 / 400
    assert fr.choi_fid > 0.999


def _uhlmann_fidelity(a, b):
    # (Tr sqrt(sqrt(J_a) J_b sqrt(J_a)))^2 of the normalized Choi states
    ja, jb = gates.choi_matrix(a) / a.D, gates.choi_matrix(b) / b.D
    wa, va = np.linalg.eigh((ja + ja.conj().T) / 2)
    sq = va @ np.diag(np.sqrt(np.clip(wa, 0, None))) @ va.conj().T
    wi = np.linalg.eigvalsh(sq @ jb @ sq)
    return float(np.sum(np.sqrt(np.clip(wi, 0, None))) ** 2)


def test_choi_fidelity(perturbed_an, perturbed3):
    rng = np.random.default_rng(5)
    for D in (2, 3):
        u, _ = np.linalg.qr(rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D)))
        assert gates.choi_fidelity(gates.unitary_channel(u), u) == pytest.approx(1.0, abs=1e-14)
    for an in (perturbed_an, channel.analyze(perturbed3)):
        fr = gates.finite_rotation(an, (0, 1), np.pi / 4, np.pi / 2, 100)
        assert fr.choi_fid < 1 - 1e-4
        assert fr.choi_fid == pytest.approx(_uhlmann_fidelity(fr.channel, gates.unitary_channel(fr.target)),
                                            abs=1e-7)


def test_compose_program_is_product(perturbed_an):
    steps = (
        gates.GateStep((0, 1), 0.05, 0.3),
        gates.GateStep((0, 2), -0.04, 1.1),
        gates.GateStep((1, 3), 0.03, 2.0),
    )
    program = gates.GateProgram(steps)
    composed = gates.compose_program(perturbed_an, program)
    product = gates.identity_channel(2)
    for s in steps:
        product = gates.rotation_step_channel(perturbed_an, s).compose(product)
    assert np.max(np.abs(composed.superop - product.superop)) < 1e-10


def test_compose_empty_program(perturbed_an):
    ch = gates.compose_program(perturbed_an, gates.GateProgram(()))
    np.testing.assert_allclose(ch.superop, np.eye(4), atol=1e-14)


def test_compose_associativity(perturbed_an):
    steps = [gates.GateStep((0, 1), 0.02 * k, 0.5 * k) for k in (1, 2, 3)]
    ab_c = gates.compose_program(perturbed_an, gates.GateProgram(tuple(steps)))
    a = gates.rotation_step_channel(perturbed_an, steps[0])
    bc = gates.compose_program(perturbed_an, gates.GateProgram(tuple(steps[1:])))
    assert np.max(np.abs(ab_c.superop - bc.compose(a).superop)) < 1e-10


def test_compose_symmetry_violation(cluster2):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(m)
    C = list(cluster2.C)
    C[2] = q
    bad = channel.analyze(model.PhasePoint(d=4, D=2, Dj=1, C=C, B=cluster2.B, label="bad"))
    with pytest.raises(SymmetryConditionViolated, match=r"\[2\]"):
        gates.compose_program(bad, gates.GateProgram((gates.GateStep((0, 1), 0.01),)))
    # the runway sampler and the boundary comparison track byproducts by label
    program = gates.GateProgram((gates.MeasureStep((0, 1), np.pi / 4, 2),))
    cfg = trajectory.RunConfig(analysis=bad, program=program, boundary=trajectory.BoundaryMode.PHI_RUNWAY,
                               right_boundary=np.array([1.0, 0.0]))
    with pytest.raises(SymmetryConditionViolated):
        trajectory.TrajectoryEngine(cfg)
    with pytest.raises(SymmetryConditionViolated):
        trajectory.boundary_equivalence(bad, program, runway_n=2)


@pytest.mark.parametrize("pair", [(1, 0), (1, 1), (0, 4)])
@pytest.mark.parametrize("kind", ["gate", "measure"])
def test_step_pair_checked_against_model(perturbed_an, kind, pair):
    step = gates.GateStep(pair, 0.01) if kind == "gate" else gates.MeasureStep(pair, 0.3, 4)
    program = gates.GateProgram((step,))
    with pytest.raises(ValidationError):
        gates.compose_program(perturbed_an, program)
    with pytest.raises(ValidationError):
        trajectory.expand_sites(perturbed_an, program)


def test_step_channel_valid(perturbed_an):
    ch = gates.step_channel(perturbed_an, (0, 1), 0.4, 1.2)
    gates.validate_channel(ch)


def reference_step_channel(analysis, pair, alpha, beta, wire_n):
    """The step channel from dense bond-space superoperators: sum_k op_k (x) conj(op_k),
    then wire_superop^wire_n, on each |c><d| (x) rho_fix, junk-traced, scaled to unit mean trace."""
    point = analysis.point
    D, Dj = point.D, point.Dj
    ops = gates.step_virtual_ops(point, pair, alpha, beta)
    s = np.linalg.matrix_power(gates.wire_superop(point), wire_n) @ sum(np.kron(op, op.conj()) for op in ops)
    T = np.empty((D * D, D * D), dtype=complex)
    for c in range(D):
        for d in range(D):
            e = np.zeros((D, D))
            e[c, d] = 1.0
            out = gates.unvec(s @ gates.vec(np.kron(e, analysis.fix.rho)))
            T[:, c * D + d] = out.reshape(D, Dj, D, Dj).trace(axis1=1, axis2=3).reshape(-1)
    scale = sum(np.trace(T[:, c * D + c].reshape(D, D)).real for c in range(D)) / D
    return T / scale


@pytest.mark.parametrize("fixture", ["cluster2", "cluster3", "perturbed", "perturbed3", "mixed"])
def test_step_channel_matches_dense_reference(request, fixture):
    an = channel.analyze(request.getfixturevalue(fixture))
    got = gates.step_channel(an, (0, 1), 0.4, 1.2)
    want = reference_step_channel(an, (0, 1), 0.4, 1.2, an.wire_length)
    assert np.max(np.abs(got.superop - want)) < 1e-12


@given(D=st.sampled_from([2, 3]), junk_dim=st.integers(1, 4), strength=st.floats(0.1, 0.6),
       seed=st.integers(0, 2 ** 16), alpha=st.floats(-1.0, 1.0), beta=st.floats(-np.pi, np.pi),
       wire_n=st.integers(0, 40), data=st.data())
@settings(max_examples=25, deadline=None)
def test_step_channel_matches_dense_reference_random_models(D, junk_dim, strength, seed, alpha, beta,
                                                            wire_n, data):
    try:
        point = model.perturb_point(model.build_cluster_point(D), strength, junk_dim, seed)
        an = channel.analyze(point)
        an.fix
    except NumericalFailure:
        assume(False)
    i = data.draw(st.integers(0, point.d - 2))
    pair = (i, data.draw(st.integers(i + 1, point.d - 1)))
    got = gates.step_channel(an, pair, alpha, beta, wire_n=wire_n)
    want = reference_step_channel(an, pair, alpha, beta, wire_n)
    assert np.max(np.abs(got.superop - want)) < 1e-12


def test_outcome_states_matches_per_op_loop(perturbed3):
    an = channel.analyze(perturbed3)
    ops = gates.step_virtual_ops(perturbed3, (0, 2), 0.5, -0.7)
    rng = np.random.default_rng(9)
    Db = perturbed3.Db
    x = rng.standard_normal((2, 3, Db, Db)) + 1j * rng.standard_normal((2, 3, Db, Db))
    got = gates.outcome_states(an, ops, x, 5)
    assert got.shape == (len(ops), 2, 3, Db, Db)
    for k, op in enumerate(ops):
        for a in range(2):
            for b in range(3):
                want = an.wire(op @ x[a, b] @ op.conj().T, 5)
                assert np.max(np.abs(got[k, a, b] - want)) < 1e-13


def test_small_angle_warning():
    with pytest.warns(UserWarning):
        gates.GateStep((0, 1), 0.5)


def test_compile_su2_identity(cluster2_an):
    comp = gates.compile_su2(np.eye(2), cluster2_an, 1e-2)
    assert comp.program.steps == ()


def test_compile_su2_single_generator(cluster2_an):
    target = np.cos(np.pi / 8) * np.eye(2) + 1j * np.sin(np.pi / 8) * X
    comp = gates.compile_su2(target, cluster2_an, 1e-2)
    assert len(comp.program.steps) == 1
    executed = gates.compose_program(cluster2_an, comp.program)
    assert gates.channel_distance(executed, gates.unitary_channel(target)) <= 1e-2


@pytest.mark.parametrize("seed", [11, 23])
def test_compile_su2_random_target(seed, perturbed_an):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(m)
    q = q / np.sqrt(np.linalg.det(q))
    comp = gates.compile_su2(q, perturbed_an, 1e-2)
    executed = gates.compose_program(perturbed_an, comp.program)
    assert gates.channel_distance(executed, gates.unitary_channel(q)) <= 1e-2
    assert comp.predicted_sites == comp.program.site_budget(perturbed_an)


def test_compile_su2_wrong_dimension(cluster3):
    with pytest.raises(ClosureTooSmall):
        gates.compile_su2(np.eye(2), channel.analyze(cluster3), 1e-2)


def test_interaction_identity(perturbed_an):
    rng = np.random.default_rng(3)
    sigma = random_density(2, rng)
    out = gates.interaction_step(perturbed_an, sigma, np.eye(4))
    np.testing.assert_allclose(out, sigma, atol=1e-12)


@pytest.mark.parametrize("fixture", ["cluster2", "cluster3", "perturbed", "perturbed3"])
def test_interaction_matches_step_channel(request, fixture):
    point = request.getfixturevalue(fixture)
    an = channel.analyze(point)
    step = gates.GateStep((0, 1), 0.07, 0.9)
    ch = gates.rotation_step_channel(an, step)
    u = gates.step_interaction_unitary(point, step)
    rng = np.random.default_rng(4)
    for _ in range(3):
        sigma = random_density(point.D, rng)
        out_channel = ch.apply(sigma)
        out_interaction = gates.interaction_step(an, sigma, u)
        assert np.max(np.abs(out_channel - out_interaction)) < 1e-10


def test_interaction_trace_preserving(perturbed_an):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = np.linalg.qr(m)
    out = gates.interaction_step(perturbed_an, np.eye(2) / 2, u)
    assert abs(np.trace(out) - 1) < 1e-12


def test_nonselective_measurement_odd_schedule(perturbed_an):
    # n_m = 7 splits into 3 steps at beta = 0, then 4 at beta = pi/2
    step = gates.MeasureStep((0, 1), 0.6, 7, wire_n=4)
    assert step.schedule == ((3, 0.0), (4, np.pi / 2))
    real = gates.step_channel(perturbed_an, (0, 1), 0.6, 0.0, wire_n=4)
    imag = gates.step_channel(perturbed_an, (0, 1), 0.6, np.pi / 2, wire_n=4)
    got = gates.nonselective_measurement_channel(perturbed_an, step)
    np.testing.assert_array_equal(got.superop, imag.power(4).compose(real.power(3)).superop)
    # the two blocks commute, but the 3/4 split is not the 4/3 one
    assert not np.allclose(got.superop, imag.power(3).compose(real.power(4)).superop, atol=1e-6)
