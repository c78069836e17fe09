import ast
import inspect
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sptmbqc import channel, gates, model, oracle
from sptmbqc.errors import NumericalFailure, SizeCapExceeded, VanishingProbability
from conftest import random_state


def test_shapes_and_norm(cluster2):
    res = oracle.build_state_vector(cluster2, 2, oracle.OracleMode.PHI_TILDE)
    assert res.amps.shape == (4, 4, 2)
    assert res.amps.size == 32
    assert np.linalg.norm(res.amps) == pytest.approx(1.0, abs=1e-12)


def test_single_site_amplitudes(cluster2):
    # n = 1 with scalar junk: amplitudes <R| C_i |L> / D, by hand
    L = np.array([1.0, 0.0])
    R = np.array([0.6, 0.8])
    res = oracle.build_state_vector(cluster2, 1, oracle.OracleMode.PHI, L=L, R=R)
    expected = np.array([(R.conj() @ (c @ L)) * 0.5 for c in cluster2.C])
    expected /= np.linalg.norm(expected)
    np.testing.assert_allclose(res.amps.reshape(-1), expected, atol=1e-14)


def test_size_cap(perturbed):
    with pytest.raises(SizeCapExceeded):
        oracle.build_state_vector(perturbed, 12, oracle.OracleMode.PHI_TILDE)
    with pytest.raises(SizeCapExceeded):
        oracle.build_state_vector(perturbed, 9, oracle.OracleMode.PHI_TILDE, cap=1 << 10)


def test_norm_matches_transfer_matrix(perturbed):
    rng = np.random.default_rng(0)
    L = random_state(4, rng)
    dev = oracle.scenario_norm(oracle.build_state_vector(perturbed, 6, L=L))["norm_agreement"]
    assert dev < 1e-12


@pytest.mark.parametrize("fixture,n", [("cluster2", 6), ("perturbed", 6), ("perturbed", 5)])
def test_conformance_suite(request, fixture, n):
    point = request.getfixturevalue(fixture)
    rng = np.random.default_rng(17)
    rep = oracle.conformance_suite(point, n, rng)
    assert rep.max_deviation < 1e-10
    assert rep.sampled_z < 5.0


@pytest.mark.parametrize("fixture,n,z", [("perturbed", 6, 0.5749067171437489),
                                         ("perturbed3", 4, 0.28240431277531886)])
def test_pinned_appendix_a_sampled_z(request, fixture, n, z):
    # recorded with one Generator.choice call per sampled boundary outcome
    rep = oracle.conformance_suite(request.getfixturevalue(fixture), n, np.random.default_rng(17))
    assert rep.sampled_z == z


def _choice_loop(rng, q, joint, samples):
    """The oracle's former draw: strings by one choice call, then one choice call per outcome."""
    strs = rng.choice(len(q), size=samples, p=q / q.sum())
    outs = np.empty(samples, dtype=int)
    for i, s in enumerate(strs):
        p = np.clip(joint[s], 0, None)
        outs[i] = rng.choice(joint.shape[1], p=p / p.sum())
    return np.stack([strs, outs], axis=1)


@pytest.mark.parametrize("groups", [2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_draw_indices_matches_choice_loop(groups, seed):
    table = np.random.default_rng(seed)
    q = table.random(81)
    q[table.random(81) < 0.2] = 0.0
    joint = table.random((81, groups))
    joint[table.random((81, groups)) < 0.3] = 0.0       # rows containing zeros
    joint[table.random((81, groups)) < 0.05] = -1e-17   # rounding noise below zero
    joint[np.all(joint <= 0, axis=1), 0] = 0.5           # but no vanishing row
    ref_rng, rng = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
    expected = _choice_loop(ref_rng, q, joint, 2000)
    strs = oracle.draw_indices(rng, q, 2000)
    got = np.stack([strs, oracle.draw_indices(rng, joint[strs], 2000)], axis=1)
    np.testing.assert_array_equal(got, expected)
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("weights", [
    [[0.3, 0.7], [0.0, 0.0]],
    [[0.3, 0.7], [-1e-17, 0.0]],
    [[0.3, 0.7], [np.nan, 1.0]],
    [[0.3, 0.7], [np.inf, 1.0]],
    [0.0, 0.0, 0.0],
])
def test_draw_indices_rejects_vanishing_law(weights):
    weights = np.array(weights)
    with pytest.raises(VanishingProbability):
        oracle.draw_indices(np.random.default_rng(0), weights, len(weights))


def test_appendix_a_identity(perturbed):
    rng = np.random.default_rng(1)
    l = random_state(2, rng)
    j = random_state(2, rng)
    obs = gates.pair_operator(perturbed, (0, 1))
    obs = (obs + obs.conj().T) / 2
    res = oracle.build_state_vector(perturbed, 6, L=np.kron(l, j))
    out = oracle.simulate_measurements(res, [None] * 6, reverse_byproduct=True,
                                       boundary_observable=obs, rng=rng, samples=10_000)
    out = oracle.scenario_appendix_a(out, l, obs)
    assert out["appendix_a_conditional"] < 1e-12
    assert out["appendix_a_born"] < 1e-12
    assert out["appendix_a_sampled_z"] < 3.0


def test_wire_marginal_formula(perturbed):
    rng = np.random.default_rng(2)
    l = random_state(2, rng)
    j = random_state(2, rng)
    res = oracle.build_state_vector(perturbed, 5, L=np.kron(l, j))
    rev = oracle.simulate_measurements(res, [None] * 5, reverse_byproduct=True)
    devs = oracle.scenario_wire(res, rev, j)
    assert devs["wire_marginal_formula"] < 1e-12
    assert devs["procedure_ii_invariance"] < 1e-12


def test_gate_step_cross_engine(perturbed_an):
    rng = np.random.default_rng(3)
    l = random_state(2, rng)
    j = random_state(2, rng)
    res = oracle.build_state_vector(perturbed_an.point, 6, L=np.kron(l, j))
    dev = oracle.scenario_gate_step(perturbed_an, res, (0, 1), 0.05, np.pi / 2)
    assert dev["gate_step_state"] < 1e-10


def test_weak_step_cross_engine(perturbed_an):
    rng = np.random.default_rng(4)
    L = np.kron(random_state(2, rng), random_state(2, rng))
    res = oracle.build_state_vector(perturbed_an.point, 6, L=L)
    dev = oracle.scenario_weak_step(perturbed_an, res, (0, 1), 0.7, 0.3)
    assert dev["weak_step_probs"] < 1e-10
    assert dev["weak_step_states"] < 1e-10


def test_runway_weight_machinery(perturbed):
    rng = np.random.default_rng(5)
    L = np.kron(random_state(2, rng), random_state(2, rng))
    R = random_state(4, rng)
    dev = oracle.scenario_runway(perturbed, 3, 5, L, R)
    assert dev["runway_marginal"] < 1e-10


def _tilted_site_tv(point, wire_after, runway, rng):
    """TV of one tilted site's outcome distribution between boundary choices.

    Both sides keep `wire_after` trailing wire sites; the second replaces the
    physical boundary system with <R| behind a traced runway.
    """
    L = np.kron(random_state(point.D, rng), random_state(point.Dj, rng))
    R = random_state(point.Db, rng)
    basis = gates.basis_matrix(point.d, (0, 1), 0.6, 0.4)
    bases_a = [basis] + [None] * wire_after
    res_a = oracle.build_state_vector(point, 1 + wire_after, oracle.OracleMode.PHI_TILDE, L=L)
    out_a = oracle.simulate_measurements(res_a, bases_a)
    p_a = oracle.marginal_over_tail(out_a.q, point.d, 1 + wire_after, 1)
    p_a /= p_a.sum()
    n_b = 1 + wire_after + runway
    res_b = oracle.build_state_vector(point, n_b, oracle.OracleMode.PHI, L=L, R=R)
    out_b = oracle.simulate_measurements(res_b, [basis] + [None] * (n_b - 1))
    p_b = oracle.marginal_over_tail(out_b.q, point.d, n_b, 1)
    p_b /= p_b.sum()
    return 0.5 * float(np.sum(np.abs(p_a - p_b)))


def test_boundary_independence_cluster(cluster2):
    # at the cluster point the byproduct twirl makes the traced-runway weight
    # exactly proportional to I/D after one site: boundary independence is exact
    rng = np.random.default_rng(6)
    tv = _tilted_site_tv(cluster2, wire_after=2, runway=2, rng=rng)
    assert tv <= 1e-12


def test_boundary_independence_decay(mixed):
    # generic in-phase point: the discrepancy decays with the runway; the full
    # 30-correlation-length regime lives beyond the dense cap and is covered by
    # the channel-exact boundary comparison (whose weights scenario_runway pins
    # against this oracle)
    rng = np.random.default_rng(7)
    tvs = [_tilted_site_tv(mixed, wire_after=4, runway=r, rng=np.random.default_rng(7))
           for r in (0, 2, 4)]
    assert tvs[0] > tvs[1] > tvs[2]
    assert tvs[2] < 0.02


def test_procedure_i_per_record_byproduct(cluster2):
    # without reversal each record's boundary state is Sigma(s)|l> (times the junk norm)
    from sptmbqc import trajectory as traj

    rng = np.random.default_rng(8)
    l = random_state(2, rng)
    res = oracle.build_state_vector(cluster2, 3, oracle.OracleMode.PHI_TILDE, L=l)
    out = oracle.simulate_measurements(res, [None] * 3)
    sigmas = oracle.byproduct_products(cluster2, 3)
    rows = out.boundary_states
    for s in (0, 17, 42, 63):
        expect = sigmas[s] @ l
        expect = expect / np.linalg.norm(expect)
        got = rows[s] / np.linalg.norm(rows[s])
        phase = got.conj() @ expect
        np.testing.assert_allclose(got * phase / abs(phase), expect, atol=1e-12)


@given(D=st.sampled_from([2, 3]), junk_dim=st.integers(1, 4),
       strength=st.floats(0.1, 0.6), seed=st.integers(0, 2 ** 16))
@settings(max_examples=25, deadline=None)
def test_conformance_random_models(D, junk_dim, strength, seed):
    # the dense oracle pins the bond-space engines (and their shared wire map)
    # on random in-phase models, not only the fixtures
    try:
        point = model.perturb_point(model.build_cluster_point(D), strength, junk_dim, seed)
        rep = oracle.conformance_suite(point, 6 if D == 2 else 4, np.random.default_rng(seed),
                                       samples=1000)
    except NumericalFailure:
        assume(False)
    assert rep.max_deviation <= 1e-10


def _string_products_loop(mats, n):
    # reference: the per-site einsum stacking the string products replaced
    prod = np.eye(mats[0].shape[0], dtype=complex)[None, :, :]
    for _ in range(n):
        prod = np.stack([np.einsum("ab,sbc->sac", m, prod) for m in mats], axis=1)
        prod = prod.reshape(-1, *mats[0].shape)
    return prod


@pytest.mark.parametrize("fixture", ["cluster2", "perturbed", "perturbed3"])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_string_products_match_site_loop(request, fixture, n):
    point = request.getfixturevalue(fixture)
    np.testing.assert_allclose(oracle.byproduct_products(point, n),
                               _string_products_loop(point.C, n), rtol=0, atol=1e-13)
    np.testing.assert_allclose(oracle.junk_products(point, n),
                               _string_products_loop(point.B, n), rtol=0, atol=1e-13)


@pytest.mark.parametrize("fixture", ["perturbed", "perturbed3"])
@pytest.mark.parametrize("measured", [0, 1, 3])
def test_runway_marginal_matches_string_loop(request, fixture, measured):
    point = request.getfixturevalue(fixture)
    rng = np.random.default_rng(measured)
    L, R = random_state(point.Db, rng), random_state(point.Db, rng)
    w = channel.reverse_full_channel(point).apply(np.outer(R, R.conj()))
    tensors = point.site_tensors()
    want = np.empty(point.d ** measured)
    for flat, s in enumerate(itertools.product(range(point.d), repeat=measured)):
        m = np.eye(point.Db, dtype=complex)
        for sk in s:
            m = tensors[sk] @ m
        vL = m @ L
        want[flat] = (vL.conj() @ w @ vL).real
    want /= want.sum()
    np.testing.assert_allclose(oracle.runway_marginal(point, measured, L, w), want, rtol=0, atol=1e-14)


def test_dense_side_calls_no_engine_code():
    # the oracle's dense path must stay its own: no name bound to the channel,
    # gates, trajectory or measurement modules may be reached from it
    engine_modules = {"channel", "gates", "trajectory", "measurement"}
    tree = ast.parse(inspect.getsource(oracle))
    engine_names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                engine_names |= {a.asname or a.name for a in node.names if a.name in engine_modules}
            elif node.module.split(".")[0] in engine_modules:
                engine_names |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            engine_names |= {(a.asname or a.name).split(".")[0] for a in node.names
                             if a.name.split(".")[-1] in engine_modules}
    assert {"gates", "reverse_full_channel"} <= engine_names
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    dense = ["build_state_vector", "simulate_measurements", "byproduct_products", "junk_products",
             "draw_indices", "_channel_wire_state", "marginal_over_tail"]
    seen, todo = set(), list(dense)
    while todo:  # follow every oracle-level function or class the dense side names
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            assert not isinstance(node, (ast.Import, ast.ImportFrom)), f"{name} imports inside its body"
            if isinstance(node, ast.Name):
                assert node.id not in engine_names, f"{name} reaches engine code through {node.id}"
                if node.id in defs:
                    todo.append(node.id)
    assert {"_string_products", "DenseResource", "_sample"} <= seen
