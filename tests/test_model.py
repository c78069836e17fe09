import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sptmbqc import model
from sptmbqc.errors import (
    DimensionMismatch,
    InjectivityFailure,
    NotInjective,
    ParseError,
    SchemaVersionError,
    ValidationError,
)


def test_cluster_point_d2(cluster2):
    assert (cluster2.d, cluster2.D, cluster2.Dj) == (4, 2, 1)
    X, Z = model.weyl_x(2), model.weyl_z(2)
    np.testing.assert_allclose(cluster2.C[0], np.eye(2), atol=1e-15)
    np.testing.assert_allclose(cluster2.C[1], Z, atol=1e-15)
    np.testing.assert_allclose(cluster2.C[2], X, atol=1e-15)
    np.testing.assert_allclose(cluster2.C[3], X @ Z, atol=1e-15)
    for b in cluster2.B:
        np.testing.assert_allclose(b, [[0.5]], atol=1e-15)
    assert model.validate_point(cluster2) == []
    # sum_i |B_i|^2 = 1 under the spectral normalization
    assert abs(sum(abs(b[0, 0]) ** 2 for b in cluster2.B) - 1.0) < 1e-14


def test_cluster_point_d3(cluster3):
    assert (cluster3.d, cluster3.D, cluster3.Dj) == (9, 3, 1)
    for c in cluster3.C:
        np.testing.assert_allclose(c.conj().T @ c, np.eye(3), atol=1e-12)
    assert model.validate_point(cluster3) == []


@pytest.mark.parametrize("D", [2, 3, 4])
def test_cluster_injective_at_one_site(D):
    assert model.check_injectivity(model.build_cluster_point(D), 1) == 1


def test_not_injective_for_degenerate_junk(cluster2):
    B = [np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]), np.array([[0.0]])]
    point = model.PhasePoint(d=4, D=2, Dj=1, C=cluster2.C, B=B, label="broken")
    with pytest.raises(NotInjective):
        model.check_injectivity(point, 2)


def test_phase_point_compares_by_identity(perturbed):
    # array fields make field-wise == ambiguous: a point equals only itself
    other = dataclasses.replace(perturbed, label="x")
    assert perturbed == perturbed
    assert perturbed != other
    assert len({perturbed, perturbed, other}) == 2


def test_perturb_deterministic(cluster2):
    a = model.perturb_point(cluster2, 0.3, 2, 7)
    b = model.perturb_point(cluster2, 0.3, 2, 7)
    for x, y in zip(a.B, b.B):
        assert np.array_equal(x, y)
    assert a.kappa_norm == b.kappa_norm


def test_perturb_carries_injectivity_block_length(perturbed, perturbed3):
    # the builder's own check is the one the CLI reports; it is not a model field on disk
    for point in (perturbed, perturbed3):
        assert point.injectivity_K == model.check_injectivity(point)
    assert model.build_cluster_point(2).injectivity_K is None


def test_perturb_zero_strength_matches_base(cluster2):
    pt = model.perturb_point(cluster2, 0.0, 1, 3)
    for b, base in zip(pt.B, cluster2.B):
        np.testing.assert_allclose(b, base, atol=1e-14)


def test_perturb_finite_correlation_length(perturbed):
    from sptmbqc import channel

    sp = channel.spectrum(channel.junk_channel(perturbed))
    assert abs(sp.eigenvalues[0]) == pytest.approx(1.0, abs=1e-10)
    assert abs(sp.eigenvalues[1]) < 1.0
    assert sp.correlation_length > 0


def test_perturb_keeps_byproducts(cluster2, perturbed):
    for a, b in zip(perturbed.C, cluster2.C):
        np.testing.assert_allclose(a, b, atol=0)


def test_perturb_rejects_scalar_base_violation(perturbed):
    with pytest.raises(ValidationError):
        model.perturb_point(perturbed, 0.1, 2, 0)


def test_weyl_symmetry_relation(cluster2):
    # V(g)^dag A[psi] V(g) = A[u(g) psi] for the cluster tensor
    sym = model.weyl_symmetry_data(2)
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    tensors = cluster2.site_tensors()

    def site(vec):
        return sum(vec[i] * tensors[i] for i in range(4))

    for g, v in sym.V.items():
        vj = np.kron(v, np.eye(1))
        lhs = vj.conj().T @ site(psi) @ vj
        rhs = site(sym.u[g] @ psi)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("D", [2, 3])
def test_byproduct_symmetry_pass(D):
    point = model.build_cluster_point(D)
    report = model.check_byproduct_symmetry(point, model.weyl_symmetry_data(D))
    assert report.passed
    for m in report.matches:
        assert abs(abs(m.phase) - 1) < 1e-12


def test_byproduct_symmetry_perturbed(perturbed):
    assert model.check_byproduct_symmetry(perturbed, model.weyl_symmetry_data(2)).passed


def test_byproduct_symmetry_fail(cluster2):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(m)
    C = list(cluster2.C)
    C[1] = q
    point = model.PhasePoint(d=4, D=2, Dj=1, C=C, B=cluster2.B, label="bad")
    report = model.check_byproduct_symmetry(point, model.weyl_symmetry_data(2))
    assert not report.passed
    assert report.matches[1].group_element is None


def test_byproduct_symmetry_dimension_mismatch(cluster3):
    with pytest.raises(DimensionMismatch):
        model.check_byproduct_symmetry(cluster3, model.weyl_symmetry_data(2))


def test_pair_ratios_stay_in_group(cluster2):
    # if the symmetry check passes, C_i^-1 C_j is a phase times some V(g)
    sym = model.weyl_symmetry_data(2)
    assert model.check_byproduct_symmetry(cluster2, sym).passed
    for i in range(4):
        for j in range(4):
            c = cluster2.C[i].conj().T @ cluster2.C[j]
            devs = []
            for v in sym.V.values():
                phase = np.trace(v.conj().T @ c) / 2
                if abs(phase) > 1e-12:
                    devs.append(np.linalg.norm(c - phase / abs(phase) * v))
            assert min(devs) < 1e-12


@given(st.integers(2, 5), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_weyl_operators_unitary(D, a, b):
    w = model.weyl_unitary(D, a, b)
    np.testing.assert_allclose(w.conj().T @ w, np.eye(D), atol=1e-12)


def test_save_load_roundtrip(tmp_path, perturbed):
    path = tmp_path / "m.json"
    model.save_model(perturbed, path)
    loaded = model.load_model(path)
    for a, b in zip(loaded.C, perturbed.C):
        assert np.array_equal(a, b)
    for a, b in zip(loaded.B, perturbed.B):
        assert np.array_equal(a, b)
    assert loaded.kappa_norm == perturbed.kappa_norm
    assert loaded.label == perturbed.label


def test_load_rejects_nonunitary(tmp_path, cluster2):
    path = tmp_path / "bad.json"
    model.save_model(cluster2, path)
    doc = json.loads(path.read_text())
    doc["C"][0][0][0] = [2.0, 0.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        model.load_model(path)


def test_load_missing_field(tmp_path, cluster2):
    path = tmp_path / "partial.json"
    model.save_model(cluster2, path)
    doc = json.loads(path.read_text())
    del doc["B"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        model.load_model(path)


def test_load_wrong_schema(tmp_path, cluster2):
    path = tmp_path / "schema.json"
    model.save_model(cluster2, path)
    doc = json.loads(path.read_text())
    doc["schema"] = "spt-mbqc/99"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaVersionError):
        model.load_model(path)


def test_load_garbage(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        model.load_model(path)


def test_cluster3_junk_scalars(cluster3):
    for b in cluster3.B:
        np.testing.assert_allclose(b, [[1.0 / 3.0]], atol=1e-15)
