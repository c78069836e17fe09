import numpy as np
import pytest

from sptmbqc import channel, model


@pytest.fixture(scope="session")
def cluster2():
    return model.build_cluster_point(2)


@pytest.fixture(scope="session")
def cluster3():
    return model.build_cluster_point(3)


@pytest.fixture(scope="session")
def perturbed(cluster2):
    return model.perturb_point(cluster2, 0.3, 2, 7)


@pytest.fixture(scope="session")
def perturbed3(cluster3):
    return model.perturb_point(cluster3, 0.2, 2, 11)


@pytest.fixture(scope="session")
def mixed(cluster2):
    # strongly mixing junk: correlation length well under one site
    return model.perturb_point(cluster2, 0.85, 2, 14)


@pytest.fixture(scope="session")
def perturbed_an(perturbed):
    return channel.analyze(perturbed)


@pytest.fixture(scope="session")
def perturbed_fix(perturbed_an):
    return perturbed_an.fix


@pytest.fixture(scope="session")
def perturbed_nu(perturbed_an):
    return perturbed_an.nu


@pytest.fixture(scope="session")
def cluster2_an(cluster2):
    return channel.analyze(cluster2)


@pytest.fixture(scope="session")
def cluster2_nu(cluster2_an):
    return cluster2_an.nu


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    return channel.random_unit_vector(rng, dim)
