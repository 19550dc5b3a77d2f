import json
import math

import numpy as np
import pytest

from grasspack.errors import InvalidInput, NotPSD, ParseError, RankExceeded
from grasspack.geometry import (
    Configuration,
    Field,
    GramMatrix,
    Metric,
    block_cosines,
    cosine_magnitudes,
    dist,
    factor,
    gram,
    max_block_magnitude,
    packing_diameter,
    principal_angles,
    read_configuration,
    write_configuration,
)
from grasspack.starts import random_subspace

from tests.oracles import (
    brute_force_block_magnitude,
    brute_force_diameter,
    random_configuration,
    random_hermitian,
)


def _line(*v):
    x = np.array(v, dtype=float).reshape(-1, 1)
    return x / np.linalg.norm(x)


def test_principal_angles_identical():
    rng = np.random.default_rng(0)
    S = random_subspace(5, 2, Field.REAL, rng)
    assert np.allclose(principal_angles(S, S), 0.0, atol=1e-7)


def test_principal_angles_orthogonal_complements():
    S = np.eye(4)[:, :2]
    T = np.eye(4)[:, 2:]
    assert np.allclose(principal_angles(S, T), [np.pi / 2, np.pi / 2])


def test_principal_angles_plane_geometry():
    S = _line(1, 0, 0)
    T = _line(1, 1, 0)
    assert np.allclose(principal_angles(S, T), [np.pi / 4])


def test_principal_angles_shape_mismatch():
    with pytest.raises(InvalidInput):
        principal_angles(np.eye(3)[:, :1], np.eye(4)[:, :1])


def test_dist_identical_zero():
    rng = np.random.default_rng(1)
    S = random_subspace(4, 2, Field.COMPLEX, rng)
    for metric in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY, Metric.GEODESIC):
        assert dist(S, S, metric) == pytest.approx(0.0, abs=2e-7)


def test_dist_orthogonal_subspaces():
    S = np.eye(4)[:, :2]
    T = np.eye(4)[:, 2:]
    assert dist(S, T, Metric.CHORDAL) == pytest.approx(math.sqrt(2))
    assert dist(S, T, Metric.SPECTRAL) == pytest.approx(1.0)
    assert dist(S, T, Metric.FUBINI_STUDY) == pytest.approx(math.pi / 2)


def test_dist_lines_sixty_degrees():
    S = _line(1, 0, 0)
    T = _line(math.cos(math.radians(60)), math.sin(math.radians(60)), 0)
    s60 = math.sin(math.radians(60))
    assert dist(S, T, Metric.CHORDAL) == pytest.approx(s60, abs=1e-12)
    assert dist(S, T, Metric.SPECTRAL) == pytest.approx(s60, abs=1e-12)
    assert dist(S, T, Metric.FUBINI_STUDY) == pytest.approx(math.pi / 3, abs=1e-12)
    assert dist(S, T, Metric.GEODESIC) == pytest.approx(math.pi / 3, abs=1e-12)


def test_dist_rejects_sphere_metric():
    S = _line(1, 0)
    with pytest.raises(InvalidInput):
        dist(S, S, Metric.SPHERE)


def test_dist_symmetry_and_unitary_invariance():
    rng = np.random.default_rng(2)
    for _ in range(20):
        S = random_subspace(5, 2, Field.COMPLEX, rng)
        T = random_subspace(5, 2, Field.COMPLEX, rng)
        U = random_subspace(5, 5, Field.COMPLEX, rng)
        for metric in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY, Metric.GEODESIC):
            a = dist(S, T, metric)
            assert dist(T, S, metric) == pytest.approx(a, abs=1e-10)
            assert dist(U @ S, U @ T, metric) == pytest.approx(a, abs=1e-10)


def test_dist_basis_invariance():
    rng = np.random.default_rng(3)
    S = random_subspace(5, 2, Field.COMPLEX, rng)
    T = random_subspace(5, 2, Field.COMPLEX, rng)
    W = random_subspace(2, 2, Field.COMPLEX, rng)
    for metric in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY, Metric.GEODESIC):
        assert dist(S @ W, T, metric) == pytest.approx(dist(S, T, metric), abs=1e-10)


def test_packing_diameter_two_orthogonal_lines():
    config = Configuration(field=Field.REAL, blocks=np.eye(2).reshape(2, 2, 1))
    assert packing_diameter(config, Metric.CHORDAL) == pytest.approx(1.0)


def test_packing_diameter_cube_diagonals():
    # Four lines through opposite cube vertices: the optimal packing in RP^2,
    # pairwise angle arccos(1/3) = 70.53 degrees.
    vs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float) / math.sqrt(3)
    config = Configuration(field=Field.REAL, blocks=vs[:, :, None])
    diam = packing_diameter(config, Metric.CHORDAL)
    angle = math.degrees(math.asin(diam))
    assert angle == pytest.approx(70.528, abs=1e-2)


def test_packing_diameter_matches_brute_force():
    rng = np.random.default_rng(4)
    for field in (Field.REAL, Field.COMPLEX):
        for N in (6, 40):
            config = random_configuration(5, 2, N, field, rng)
            for metric in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY, Metric.GEODESIC):
                assert packing_diameter(config, metric) == pytest.approx(
                    brute_force_diameter(config, metric), abs=1e-12
                )


def test_packing_diameter_requires_two():
    with pytest.raises(InvalidInput):
        Configuration(field=Field.REAL, blocks=np.eye(3)[:, :1].reshape(1, 3, 1))


def test_gram_matrix_stores_exactly_hermitian_entries():
    rng = np.random.default_rng(6)
    for field in (Field.REAL, Field.COMPLEX):
        A = random_hermitian(6, field, rng)
        A[0, 3] += 1e-12
        A[2, 2] += 1e-12j if field is Field.COMPLEX else 0.0
        g = GramMatrix(field=field, K=2, N=3, entries=A)
        assert np.array_equal(g.entries, g.entries.conj().T)
        assert np.max(np.abs(g.entries - A)) <= 1e-12
        A[0, 3] += 1e-6
        with pytest.raises(InvalidInput):
            GramMatrix(field=field, K=2, N=3, entries=A)


def test_gram_identity_for_axes():
    config = Configuration(field=Field.REAL, blocks=np.eye(3).reshape(3, 3, 1))
    g = gram(config)
    assert np.allclose(g.entries, np.eye(3), atol=1e-14)


def test_gram_pair_cosine():
    theta = math.radians(40)
    config = Configuration(
        field=Field.REAL,
        blocks=np.stack([_line(1, 0), _line(math.cos(theta), math.sin(theta))]),
    )
    g = gram(config)
    assert abs(g.entries[0, 1]) == pytest.approx(math.cos(theta), abs=1e-12)


def test_gram_recomputation():
    rng = np.random.default_rng(5)
    config = random_configuration(4, 2, 5, Field.COMPLEX, rng)
    X = config.matrix
    g = gram(config)
    assert np.linalg.norm(g.entries - X.conj().T @ X) < 1e-12


def test_gram_block_singulars_are_cosines():
    rng = np.random.default_rng(6)
    config = random_configuration(5, 2, 4, Field.REAL, rng)
    g = gram(config)
    cos_expected = np.cos(principal_angles(config.blocks[1], config.blocks[3]))
    sigma = np.linalg.svd(g.block(1, 3), compute_uv=False)
    assert np.allclose(np.sort(sigma), np.sort(cos_expected), atol=1e-10)


def test_factor_identity_gram():
    g = GramMatrix(field=Field.REAL, K=1, N=3, entries=np.eye(3))
    config = factor(g, 4)
    assert packing_diameter(config, Metric.CHORDAL) == pytest.approx(1.0, abs=1e-10)


def test_factor_roundtrip_distances():
    rng = np.random.default_rng(7)
    for field in (Field.REAL, Field.COMPLEX):
        config = random_configuration(4, 2, 5, field, rng)
        back = factor(gram(config), 4)
        for m in range(5):
            for n in range(m + 1, 5):
                assert dist(back.blocks[m], back.blocks[n], Metric.CHORDAL) == pytest.approx(
                    dist(config.blocks[m], config.blocks[n], Metric.CHORDAL), abs=1e-8
                )


def test_gram_factor_gram_roundtrip():
    rng = np.random.default_rng(8)
    config = random_configuration(5, 2, 6, Field.COMPLEX, rng)
    g = gram(config)
    g2 = gram(factor(g, 5))
    assert np.linalg.norm(g.entries - g2.entries) <= 1e-8


def test_factor_rank_exceeded():
    # rank-5 Gram of 5 orthonormal lines cannot fit in dimension 3
    g = GramMatrix(field=Field.REAL, K=1, N=5, entries=np.eye(5))
    with pytest.raises(RankExceeded):
        factor(g, 3)


def test_factor_not_psd():
    A = np.eye(4)
    A[0, 1] = A[1, 0] = 2.0
    g = GramMatrix(field=Field.REAL, K=1, N=4, entries=A)
    with pytest.raises(NotPSD):
        factor(g, 4)


def test_factor_requires_identity_diagonal():
    A = np.eye(4) * 1.5
    g = GramMatrix(field=Field.REAL, K=2, N=2, entries=A)
    with pytest.raises(InvalidInput):
        factor(g, 4)


def test_max_block_magnitude_identity():
    g = GramMatrix(field=Field.REAL, K=1, N=4, entries=np.eye(4))
    for metric in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY, Metric.SPHERE):
        assert max_block_magnitude(g, metric) == pytest.approx(0.0, abs=1e-14)


def test_max_block_magnitude_pair_cosine():
    theta = math.radians(35)
    config = Configuration(
        field=Field.REAL,
        blocks=np.stack([_line(1, 0), _line(math.cos(theta), math.sin(theta))]),
    )
    assert max_block_magnitude(gram(config), Metric.CHORDAL) == pytest.approx(
        math.cos(theta), abs=1e-12
    )


def test_max_block_magnitude_matches_brute_force():
    rng = np.random.default_rng(9)
    for field, N in ((Field.COMPLEX, 5), (Field.REAL, 40), (Field.COMPLEX, 40)):
        g = gram(random_configuration(5, 2, N, field, rng))
        for metric in (Metric.CHORDAL, Metric.SPECTRAL, Metric.FUBINI_STUDY):
            assert max_block_magnitude(g, metric) == pytest.approx(
                brute_force_block_magnitude(g, metric), abs=1e-12
            )
    lines = random_configuration(4, 1, 6, Field.REAL, rng)
    gl = gram(lines)
    assert max_block_magnitude(gl, Metric.SPHERE) == pytest.approx(
        brute_force_block_magnitude(gl, Metric.SPHERE), abs=1e-14
    )


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_chordal_block_magnitude_matches_cosines(field, K):
    # The chordal magnitudes come from squared entries, not from an SVD.
    rng = np.random.default_rng(10 + K)
    for N in (2, 7, 30):
        g = gram(random_configuration(6, K, N, field, rng))
        want = np.max(cosine_magnitudes(block_cosines(g), Metric.CHORDAL))
        assert max_block_magnitude(g, Metric.CHORDAL) == pytest.approx(want, abs=1e-14)


def test_line_metric_relations():
    rng = np.random.default_rng(10)
    for _ in range(20):
        config = random_configuration(4, 1, 5, Field.COMPLEX, rng)
        chordal = packing_diameter(config, Metric.CHORDAL)
        spectral = packing_diameter(config, Metric.SPECTRAL)
        fs = packing_diameter(config, Metric.FUBINI_STUDY)
        assert spectral == pytest.approx(chordal, abs=1e-10)
        assert fs == pytest.approx(math.asin(min(1.0, chordal)), abs=1e-10)


def test_power_mean_chain():
    rng = np.random.default_rng(11)
    for _ in range(20):
        config = random_configuration(6, 2, 5, Field.REAL, rng)
        spectral = packing_diameter(config, Metric.SPECTRAL)
        chordal = packing_diameter(config, Metric.CHORDAL)
        assert spectral**2 <= chordal**2 / config.K + 1e-10


@pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
def test_configuration_json_roundtrip(tmp_path, field):
    rng = np.random.default_rng(12)
    blocks = random_configuration(4, 2, 3, field, rng).blocks.copy()
    # A frame of signed zeros (in the imaginary parts too): np.conj negates them.
    blocks[1] = np.conj(np.where(np.eye(4, 2) == 1.0, 1.0, -0.0).astype(field.dtype))
    config = Configuration(field=field, blocks=blocks)
    path = tmp_path / "config.json"
    write_configuration(config, path)
    back = read_configuration(path)
    assert back.field is field
    assert np.array_equal(back.blocks, config.blocks)
    assert back.blocks.tobytes() == config.blocks.tobytes()

    # The file, built entry by entry.
    def entry(x):
        return [float(x.real), float(x.imag)] if field is Field.COMPLEX else float(x)

    want = json.dumps({
        "field": field.value, "d": 4, "K": 2, "N": 3,
        "blocks": [[entry(x) for x in block.reshape(-1)] for block in config.blocks],
    }) + "\n"
    assert "-0.0" in want
    assert path.read_bytes() == want.encode()


def test_read_configuration_corrupt(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError):
        read_configuration(path)
    with pytest.raises(ParseError, match="missing.json"):
        read_configuration(tmp_path / "missing.json")
    path.write_bytes(b'\xff{"field": "real"}')  # not UTF-8
    with pytest.raises(ParseError, match="malformed"):
        read_configuration(path)
    path.write_text('{"field": "real", "d": 1e400, "K": 1, "N": 2, "blocks": []}')
    with pytest.raises(ParseError, match="malformed"):
        read_configuration(path)


def test_read_configuration_wrong_counts(tmp_path):
    path = tmp_path / "bad2.json"
    lines = [[1.0, 0.0], [0.0, 1.0]]  # two real lines in R^2, as a d=2, K=1, N=2 file
    pairs = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]  # the same, complex
    for header, blocks, match in [
        ("real", [[1.0, 0.0]], r"\(1, 2\), expected \(2, 2\)"),
        ("real", [[1.0, 0.0], [0.0]], "malformed"),  # ragged
        ("complex", [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0]]], "malformed"),
        ("complex", lines, r"expected \(2, 2, 2\)"),  # bare numbers
        ("real", pairs, r"\(2, 2, 2\), expected \(2, 2\)"),  # [re, im] pairs
        ("complex", [[x + [0.0] for x in b] for b in pairs], r"expected \(2, 2, 2\)"),
    ]:
        path.write_text(json.dumps({"field": header, "d": 2, "K": 1, "N": 2, "blocks": blocks}))
        with pytest.raises(ParseError, match=match):
            read_configuration(path)
    path.write_text(json.dumps({"field": "real", "d": 2, "K": 1, "N": 3, "blocks": lines}))
    with pytest.raises(ParseError, match=r"\(2, 2\), expected \(3, 2\)"):
        read_configuration(path)


def test_gram_matrix_rejects_non_hermitian():
    A = np.eye(3)
    A[0, 1] = 0.5
    with pytest.raises(InvalidInput):
        GramMatrix(field=Field.REAL, K=1, N=3, entries=A)
