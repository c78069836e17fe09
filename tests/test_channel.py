import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sptmbqc import channel, gates, measurement, model
from sptmbqc.errors import DegenerateLeadingEigenvalue, NumericalFailure, ValidationError
from conftest import random_density, random_state


def test_superop_matches_kraus_action(perturbed):
    ch = channel.junk_channel(perturbed)
    rng = np.random.default_rng(0)
    rho = random_density(2, rng)
    direct = ch.apply(rho)
    via_superop = channel.unvec(ch.superop @ channel.vec(rho))
    np.testing.assert_allclose(direct, via_superop, atol=1e-12)


def test_cluster_junk_channel_is_identity(cluster2):
    ch = channel.junk_channel(cluster2)
    assert ch.dim == 1
    sp = channel.spectrum(ch)
    assert sp.eigenvalues.shape == (1,)
    assert abs(sp.eigenvalues[0] - 1) < 1e-12
    assert sp.correlation_length == 0.0


def test_degenerate_leading_eigenvalue():
    # two Kraus blocks acting on orthogonal sectors
    k1 = np.diag([1.0, 0.0]).astype(complex)
    k2 = np.diag([0.0, 1.0]).astype(complex)
    ch = channel.Channel.from_kraus([k1, k2])
    with pytest.raises(DegenerateLeadingEigenvalue):
        channel.spectrum(ch)


def test_fixed_point_perturbed(perturbed, perturbed_fix):
    fix = perturbed_fix
    ch = channel.junk_channel(perturbed)
    assert abs(np.trace(fix.rho) - 1) < 1e-12
    assert np.linalg.eigvalsh(fix.rho)[0] > -1e-12
    assert np.linalg.norm(ch.apply(fix.rho) - fix.rho) < 1e-12
    assert abs(np.trace(fix.ell @ fix.rho) - 1) < 1e-12
    # adjoint fixed point: L^dag(ell) = ell
    adj = ch.adjoint()
    assert np.linalg.norm(adj.apply(fix.ell) - fix.ell) < 1e-11


def test_iterated_channel_projects(perturbed, perturbed_fix):
    ch = channel.junk_channel(perturbed)
    n = channel.default_wire_length(perturbed)
    rng = np.random.default_rng(3)
    rho = random_density(2, rng)
    out = channel.unvec(np.linalg.matrix_power(ch.superop, n) @ channel.vec(rho))
    coeff = np.trace(perturbed_fix.ell @ rho)
    assert np.max(np.abs(out - coeff * perturbed_fix.rho)) < 1e-9


def test_nu_matrix_cluster(cluster2, cluster2_nu):
    np.testing.assert_allclose(cluster2_nu.nu, np.full((4, 4), 0.25), atol=1e-12)
    assert cluster2_nu.delta == pytest.approx(0.0, abs=1e-12)


def test_nu_matrix_invariants(perturbed, perturbed_nu):
    nu = perturbed_nu.nu
    assert np.linalg.norm(nu - nu.conj().T) < 1e-10
    assert abs(np.trace(nu) - 1) < 1e-10
    assert np.linalg.eigvalsh((nu + nu.conj().T) / 2)[0] > -1e-10


def test_nu_spectral_vs_iteration(perturbed_an):
    dev = channel.nu_iteration_deviation(perturbed_an)
    assert dev < 1e-8


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_channel_preserves_adjoint(perturbed, seed):
    ch = channel.junk_channel(perturbed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(ch.apply(x.conj().T), ch.apply(x).conj().T, atol=1e-12)


def test_spectrum_closed_under_conjugation(perturbed):
    sp = channel.spectrum(channel.junk_channel(perturbed))
    for lam in sp.eigenvalues:
        assert np.min(np.abs(sp.eigenvalues - np.conj(lam))) < 1e-10


def test_oblivious_wire_zero_sites(perturbed_an):
    rng = np.random.default_rng(5)
    st_ = channel.VirtualState(random_density(4, rng), 2, 2)
    out = channel.oblivious_wire(st_, perturbed_an, 0)
    np.testing.assert_allclose(out.rho, st_.rho / np.trace(st_.rho).real, atol=1e-14)


@given(kraus_count=st.integers(1, 4), dim=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_apply_matches_kraus_loop(kraus_count, dim, seed):
    rng = np.random.default_rng(seed)
    kraus = rng.standard_normal((kraus_count, dim, dim)) + 1j * rng.standard_normal((kraus_count, dim, dim))
    rho = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ch = channel.Channel.from_kraus(kraus)
    want = sum(k @ rho @ k.conj().T for k in kraus)
    np.testing.assert_allclose(ch.apply(rho), want, rtol=1e-14, atol=1e-13)
    assert "superop" not in vars(ch)  # built only when asked for


@given(D=st.sampled_from([2, 3]), junk_dim=st.integers(1, 4), strength=st.floats(0.1, 0.6),
       seed=st.integers(0, 2 ** 16), chunks=st.sampled_from([0, 2]))
@settings(max_examples=12, deadline=None)
def test_residual_curve_matches_site_loop(D, junk_dim, strength, seed, chunks):
    # n = 0, or an n whose lengths 0..n span two chunks of the batched SVD
    n = 0 if chunks == 0 else channel.RESIDUAL_CHUNK + 7
    try:
        point = model.perturb_point(model.build_cluster_point(D), strength, junk_dim, seed)
    except NumericalFailure:
        assume(False)
    an = channel.analyze(point)
    L = random_state(point.Db, np.random.default_rng(seed))
    state = channel.VirtualState.from_boundary_vector(L, D, junk_dim)
    want = []
    for k in range(n + 1):
        want.append(channel.factorization_check(state).residual)
        state = channel.oblivious_wire(state, an, 1)
    got = channel.residual_curve(channel.VirtualState.from_boundary_vector(L, D, junk_dim), an, n)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_oblivious_wire_product_input(perturbed, perturbed_fix, perturbed_an):
    rng = np.random.default_rng(6)
    sigma = random_density(2, rng)
    rho_j = random_density(2, rng)
    st_ = channel.VirtualState.product(sigma, rho_j)
    n = channel.default_wire_length(perturbed)
    out = channel.oblivious_wire(st_, perturbed_an, n)
    expected = channel.VirtualState.product(sigma, perturbed_fix.rho).normalized()
    assert np.max(np.abs(out.rho - expected.rho)) < 1e-9
    # logical reduced state is preserved exactly for product inputs
    one = channel.oblivious_wire(st_, perturbed_an, 1)
    np.testing.assert_allclose(one.logical_state(), sigma, atol=1e-12)


def test_wire_factorizes_entangled_boundary(perturbed, perturbed_an):
    rng = np.random.default_rng(7)
    L = random_state(4, rng)
    st_ = channel.VirtualState.from_boundary_vector(L, 2, 2)
    n = channel.default_wire_length(perturbed)
    out = channel.oblivious_wire(st_, perturbed_an, n)
    fac = channel.factorization_check(out)
    assert fac.residual < 1e-8
    assert np.linalg.norm(fac.sigma - fac.sigma.conj().T) < 1e-8


def test_factorization_exact_product():
    rng = np.random.default_rng(8)
    sigma = random_density(2, rng)
    rho_j = random_density(3, rng)
    st_ = channel.VirtualState.product(sigma, rho_j)
    fac = channel.factorization_check(st_)
    assert fac.residual < 1e-14
    np.testing.assert_allclose(np.kron(fac.sigma, fac.rho_junk), st_.rho, atol=1e-12)


def test_factorization_maximally_entangled():
    v = (np.eye(2).reshape(-1)) / np.sqrt(2)  # |00> + |11> across the cut
    st_ = channel.VirtualState.from_boundary_vector(v, 2, 2)
    fac = channel.factorization_check(st_)
    assert fac.residual == pytest.approx(1.0, abs=1e-12)


def test_nu_export_shape(perturbed_an):
    doc = channel.nu_export(perturbed_an)
    assert set(doc) == {"nu", "delta", "xi"}
    assert len(doc["nu"]) == 4 and len(doc["nu"][0]) == 4
    assert doc["xi"] > 0


def test_zero_kraus_channel_flagged_downstream(cluster2):
    zeros = [np.zeros((1, 1), dtype=complex) for _ in range(4)]
    point = model.PhasePoint(d=4, D=2, Dj=1, C=cluster2.C, B=zeros, label="zero")
    ch = channel.junk_channel(point)
    assert np.all(ch.superop == 0)
    with pytest.raises(DegenerateLeadingEigenvalue):
        channel.spectrum(ch)


def test_fixed_point_cluster_scalar(cluster2):
    fix = channel.fixed_point(channel.junk_channel(cluster2))
    np.testing.assert_allclose(fix.rho, [[1.0]], atol=1e-14)
    np.testing.assert_allclose(fix.ell, [[1.0]], atol=1e-14)
    assert fix.eigenvalue == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("fixture", ["cluster2", "perturbed", "perturbed3", "mixed"])
def test_analysis_wire_matches_full_superop(request, fixture):
    # the junk-factor wire map equals the dense I (x) L superoperator power
    point = request.getfixturevalue(fixture)
    an = channel.analyze(point)
    rng = np.random.default_rng(12)
    xs = np.stack([random_density(point.Db, rng) for _ in range(3)])
    full = gates.wire_superop(point)
    for n in (0, 1, 7, an.wire_length):
        powered = np.linalg.matrix_power(full, n)
        expected = np.stack([channel.unvec(powered @ channel.vec(x)) for x in xs])
        assert np.max(np.abs(an.wire(xs, n) - expected)) < 1e-13
        assert np.max(np.abs(an.wire(xs[0], n) - expected[0])) < 1e-13
    assert an.junk_power(7) is an.junk_power(7)


def test_analysis_is_lazy(perturbed):
    # reading the wire map computes neither the fixed point nor nu
    an = channel.analyze(perturbed)
    an.wire(np.eye(perturbed.Db), 3)
    assert not {"fix", "nu", "xi", "wire_length"} & set(vars(an))
    assert an.wire_length == channel.default_wire_length(perturbed)
    assert "fix" not in vars(an)
    np.testing.assert_array_equal(an.nu.nu, channel.nu_matrix(perturbed).nu)
    assert an.fix is an.fix


def test_analysis_pair(perturbed, cluster2_an):
    an = channel.analyze(perturbed)
    pair = an.pair((0, 1))
    assert an.pair([0, 1]) is pair and pair.index == (0, 1)
    phis, projectors = gates.eigenphase_groups(gates.pair_operator(perturbed, (0, 1)))
    np.testing.assert_array_equal(pair.eigenphases, phis)
    np.testing.assert_array_equal(np.array(pair.projectors), np.array(projectors))
    # reading the eigenphases computes neither nu nor the filter numbers
    assert not {"fix", "nu"} & set(vars(an)) and "filter" not in vars(pair)
    assert pair.filter == measurement.PairFilter.from_nu(an.nu, (0, 1))
    for bad in [(0, 4), (1, 1), (1, 0), (-1, 2), (0.0, 1)]:
        with pytest.raises(ValidationError):
            an.pair(bad)
    assert cluster2_an.labels == ((0, 0), (0, 1), (1, 0), (1, 1))


# eigenphases and projectors of every pair observable, recorded from the
# Schur-decomposition implementation (scipy.linalg.schur) that np.linalg.eig
# replaced; the fixtures of one D share their byproducts, hence one table per D
EIGENPHASE_REFERENCE = json.loads((Path(__file__).parent / "data" / "eigenphase_schur.json").read_text())


@pytest.mark.parametrize("fixture", ["cluster2", "cluster3", "perturbed", "perturbed3", "mixed"])
def test_eigenphase_groups_match_schur_reference(request, fixture):
    point = request.getfixturevalue(fixture)
    table = EIGENPHASE_REFERENCE[str(point.D)]
    assert len(table) == point.d * (point.d - 1) // 2
    for key, ref in table.items():
        pair = tuple(int(k) for k in key.split(","))
        phis, projectors = channel.eigenphase_groups(channel.pair_operator(point, pair))
        np.testing.assert_allclose(phis, ref["phases"], rtol=0, atol=1e-12)
        ref_proj = np.array([[[complex(*v) for v in row] for row in p] for p in ref["projectors"]])
        np.testing.assert_allclose(np.array(projectors), ref_proj, rtol=0, atol=1e-12)
    # the eigenvalue -1 of a qubit Pauli has phase +pi; D=3 phases are 0 and +-2 pi/3
    expected = [0.0, np.pi] if point.D == 2 else [-2 * np.pi / 3, 0.0, 2 * np.pi / 3]
    np.testing.assert_allclose(channel.eigenphase_groups(point.C[1])[0], expected, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), mults=st.lists(st.integers(1, 3), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_eigenphase_groups_degenerate_unitary(seed, mults):
    # a Haar-random basis with a degenerate spectrum that holds -1 (mults[0] times)
    rng = np.random.default_rng(seed)
    grid = np.arange(-11, 12) * np.pi / 12
    phases = np.concatenate([[np.pi], rng.choice(grid, len(mults) - 1, replace=False)])
    spectrum = np.repeat(phases, mults)
    dim = len(spectrum)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    C = (q * np.exp(1j * spectrum)) @ q.conj().T
    phis, projectors = channel.eigenphase_groups(C)
    order = np.argsort(phases)
    np.testing.assert_allclose(phis, phases[order], rtol=0, atol=1e-12)
    assert np.all(phis > -np.pi) and np.all(phis <= np.pi)
    eye = np.eye(dim)
    for k, p in enumerate(projectors):
        np.testing.assert_allclose(p, p.conj().T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert np.trace(p).real == pytest.approx(mults[order[k]], abs=1e-12)
        for other in projectors[k + 1:]:
            np.testing.assert_allclose(p @ other, 0, atol=1e-12)
    np.testing.assert_allclose(sum(projectors), eye, atol=1e-12)
    np.testing.assert_allclose(sum(np.exp(1j * f) * p for f, p in zip(phis, projectors)), C, atol=1e-12)
