import math

import numpy as np
import pytest
from scipy import stats

from grasspack.errors import InitFailure, InvalidInput
from grasspack.geometry import Field, Metric, gram, max_block_magnitude
from grasspack.starts import InitParams, gaussian_matrix, initial_configuration, random_subspace


def test_random_subspace_full_dimension_is_unitary():
    rng = np.random.default_rng(0)
    Q = random_subspace(4, 4, Field.COMPLEX, rng)
    assert np.allclose(Q.conj().T @ Q, np.eye(4), atol=1e-12)


def test_random_subspace_orthonormal():
    rng = np.random.default_rng(1)
    for field in (Field.REAL, Field.COMPLEX):
        Q = random_subspace(5, 2, field, rng)
        assert np.allclose(Q.conj().T @ Q, np.eye(2), atol=1e-12)


def _line_angles(n_draws, seed, rotate=None):
    rng = np.random.default_rng(seed)
    angles = np.empty(n_draws)
    for i in range(n_draws):
        v = random_subspace(2, 1, Field.REAL, rng)[:, 0]
        if rotate is not None:
            v = rotate @ v
        angles[i] = math.atan2(v[1], v[0]) % math.pi
    return angles


def test_line_angle_uniformity_chi2():
    angles = _line_angles(10_000, seed=2)
    counts, _ = np.histogram(angles, bins=16, range=(0.0, math.pi))
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_left_rotation_invariance_chi2():
    theta = 0.83
    R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    angles = _line_angles(10_000, seed=3, rotate=R)
    counts, _ = np.histogram(angles, bins=16, range=(0.0, math.pi))
    _, p = stats.chisquare(counts)
    assert p > 0.001


def test_complex_gaussian_convention():
    rng = np.random.default_rng(4)
    A = gaussian_matrix(200, 250, Field.COMPLEX, rng)
    assert np.var(A.real) == pytest.approx(0.5, rel=0.05)
    assert np.var(A.imag) == pytest.approx(0.5, rel=0.05)
    assert np.var(np.abs(A) ** 2) == pytest.approx(1.0, rel=0.1)  # |z|^2 ~ Exp(1)


def test_no_constraint_tau_matches_plain_draws():
    seed = 5
    params = InitParams(tau=math.sqrt(2), max_draws=50, seed=seed)
    config = initial_configuration(4, 2, 5, Field.COMPLEX, params)
    rng = np.random.default_rng(seed)
    expected = [random_subspace(4, 2, Field.COMPLEX, rng) for _ in range(5)]
    for got, want in zip(config.blocks, expected):
        assert np.array_equal(got, want)


def _reference_draws(d, K, N, field, params, signed):
    """The sampler one draw at a time: its frames, or the count it accepted."""
    rng = np.random.default_rng(params.seed)
    accepted = []
    for _ in range(params.max_draws):
        X = random_subspace(d, K, field, rng)
        if signed:
            fits = all(float(np.real(Y.conj().T @ X)[0, 0]) <= params.tau for Y in accepted)
        else:
            fits = all(float(np.linalg.norm(Y.conj().T @ X)) <= params.tau for Y in accepted)
        if fits:
            accepted.append(X)
            if len(accepted) == N:
                return np.stack(accepted)
    return len(accepted)


@pytest.mark.parametrize(
    "d, K, N, field, tau, signed, max_draws",
    [
        (3, 1, 9, Field.REAL, 0.9, False, 10_000),
        (3, 1, 6, Field.REAL, 0.5, True, 10_000),
        (4, 2, 4, Field.COMPLEX, 0.95, False, 10_000),
        (2, 1, 5, Field.REAL, 0.01, False, 100),  # infeasible
        (3, 1, 8, Field.REAL, 0.1, True, 300),  # infeasible
    ],
)
def test_batched_draws_match_one_draw_at_a_time(d, K, N, field, tau, signed, max_draws):
    for seed in range(8):
        params = InitParams(tau=tau, max_draws=max_draws, seed=seed)
        want = _reference_draws(d, K, N, field, params, signed)
        if isinstance(want, int):
            with pytest.raises(InitFailure) as err:
                initial_configuration(d, K, N, field, params, signed_similarity=signed)
            assert err.value.accepted == want
        else:
            got = initial_configuration(d, K, N, field, params, signed_similarity=signed)
            assert got.blocks.dtype == field.dtype
            assert np.array_equal(got.blocks, want)


def test_infeasible_tau_raises_init_failure():
    params = InitParams(tau=0.01, max_draws=100, seed=6)
    with pytest.raises(InitFailure) as err:
        initial_configuration(2, 1, 5, Field.REAL, params)
    assert 0 < err.value.accepted < 5


def test_pairwise_constraint_holds():
    params = InitParams(tau=0.9, max_draws=10_000, seed=7)
    config = initial_configuration(3, 1, 10, Field.REAL, params)
    g = gram(config)
    assert max_block_magnitude(g, Metric.CHORDAL) <= 0.9 + 1e-12


def test_signed_similarity_constraint():
    params = InitParams(tau=0.5, max_draws=10_000, seed=8)
    config = initial_configuration(3, 1, 6, Field.REAL, params, signed_similarity=True)
    g = gram(config)
    assert max_block_magnitude(g, Metric.SPHERE) <= 0.5 + 1e-12
    # chordal (absolute) magnitude may legitimately exceed tau: antipodal pairs allowed
    assert config.N == 6


def test_seed_determinism():
    params = InitParams(tau=0.95, max_draws=1000, seed=99)
    a = initial_configuration(4, 2, 4, Field.COMPLEX, params)
    b = initial_configuration(4, 2, 4, Field.COMPLEX, params)
    assert np.array_equal(a.blocks, b.blocks)


def test_tau_validation():
    with pytest.raises(InvalidInput):
        InitParams(tau=0.0)
    with pytest.raises(InvalidInput):
        initial_configuration(4, 2, 3, Field.REAL, InitParams(tau=2.0))
    with pytest.raises(InvalidInput):
        initial_configuration(3, 2, 3, Field.REAL, InitParams(tau=1.0), signed_similarity=True)
