import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atugv.affine import GeneralizedCoordinates, apply, jacobian, rotation_matrix, strain_matrix
from atugv.errors import InvalidArgumentError

finite_angle = st.floats(-3.0, 3.0)
strain = st.floats(0.05, 1.0)
translation = st.floats(-5.0, 5.0)

coords_strategy = st.builds(
    GeneralizedCoordinates,
    lambda1=strain,
    lambda2=strain,
    sigma_r=finite_angle,
    sigma_d=finite_angle,
    d1=translation,
    d2=translation,
)


class TestRotationMatrix:
    def test_zero_is_identity(self):
        assert np.array_equal(rotation_matrix(0.0), np.eye(2))

    def test_quarter_turn(self):
        np.testing.assert_allclose(
            rotation_matrix(math.pi / 2), [[0, -1], [1, 0]], atol=1e-15
        )

    def test_simulation_rotation_angle(self):
        r = rotation_matrix(0.707)
        expected = [
            [math.cos(0.707), -math.sin(0.707)],
            [math.sin(0.707), math.cos(0.707)],
        ]
        np.testing.assert_allclose(r, expected, atol=1e-12)

    @given(finite_angle)
    def test_orthogonal_det_one(self, angle):
        r = rotation_matrix(angle)
        np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(r) - 1.0) < 1e-12


class TestStrainMatrix:
    def test_unit_strains_identity(self):
        np.testing.assert_allclose(strain_matrix(1.0, 1.0, 0.4), np.eye(2), atol=1e-15)

    def test_zero_shear_is_diagonal(self):
        np.testing.assert_allclose(
            strain_matrix(0.9, 0.8, 0.0), np.diag([0.9, 0.8]), atol=1e-15
        )

    def test_eigendecomposition_recovers_parameters(self):
        u = strain_matrix(0.9, 0.8, 0.3)
        # independent eigen-solver oracle
        eigvals, eigvecs = np.linalg.eigh(u)
        np.testing.assert_allclose(sorted(eigvals), [0.8, 0.9], atol=1e-12)
        major = eigvecs[:, np.argmax(eigvals)]
        angle = math.atan2(major[1], major[0]) % math.pi
        assert abs(angle - 0.3) < 1e-12

    @given(strain, strain, finite_angle)
    def test_symmetric_with_bounded_eigenvalues(self, l1, l2, sd):
        u = strain_matrix(l1, l2, sd)
        assert u[0, 1] == u[1, 0]
        smallest = np.linalg.eigvalsh(u)[0]
        assert smallest >= min(l1, l2) - 1e-12


class TestJacobian:
    def test_identity_coords(self):
        np.testing.assert_allclose(
            jacobian(GeneralizedCoordinates.identity()), np.eye(2), atol=1e-15
        )

    def test_pure_principal_stretch(self):
        c = GeneralizedCoordinates(0.9, 0.8, 0.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(jacobian(c), np.diag([0.9, 0.8]), atol=1e-15)

    def test_against_explicit_three_matrix_product(self):
        c = GeneralizedCoordinates(0.9, 0.8, 0.707, 0.3, 0.0, 0.0)
        # oracle: build R, Rd, diag, Rd^T entry by entry and multiply
        cr, sr = math.cos(0.707), math.sin(0.707)
        cd, sd = math.cos(0.3), math.sin(0.3)
        rot = np.array([[cr, -sr], [sr, cr]])
        rd = np.array([[cd, -sd], [sd, cd]])
        expected = rot @ (rd @ np.diag([0.9, 0.8]) @ rd.T)
        np.testing.assert_allclose(jacobian(c), expected, atol=1e-14)

    @given(coords_strategy)
    def test_singular_values_are_strains(self, coords):
        q = jacobian(coords)
        sv = sorted(np.linalg.svd(q, compute_uv=False))
        np.testing.assert_allclose(
            sv, sorted([coords.lambda1, coords.lambda2]), atol=1e-12
        )
        assert abs(np.linalg.det(q) - coords.lambda1 * coords.lambda2) < 1e-12


class TestApply:
    def test_identity_transform(self):
        t = GeneralizedCoordinates.identity()
        np.testing.assert_array_equal(apply(t, [[1.0, 2.0]]), [[1.0, 2.0]])

    def test_pure_translation(self):
        t = GeneralizedCoordinates(1.0, 1.0, 0.0, 0.0, 1.0, 1.0)
        np.testing.assert_array_equal(apply(t, [[0.0, 0.0]]), [[1.0, 1.0]])

    def test_table_coords_on_seven_cell_reference(self, seven_cell_reference):
        coords = GeneralizedCoordinates(0.9, 0.8, 0.707, 0.3, 1.0, 1.0)
        q, d = jacobian(coords), (coords.d1, coords.d2)
        all_cells = apply(coords, seven_cell_reference.positions)
        for i, a in enumerate(seven_cell_reference.positions):
            (got,) = apply(coords, a[None])
            # independent per-entry dot products
            expected = [
                q[0, 0] * a[0] + q[0, 1] * a[1] + d[0],
                q[1, 0] * a[0] + q[1, 1] * a[1] + d[1],
            ]
            np.testing.assert_allclose(got, expected, atol=1e-14)
            np.testing.assert_array_equal(all_cells[i], got)

    def test_batch_of_times_matches_each_time(self, seven_cell_reference):
        rows = [(0.9, 0.8, 0.707, 0.3, 1.0, 1.0), (1.0, 0.6, -0.2, 2.0, -0.5, 0.1)]
        batch = GeneralizedCoordinates(*(np.array(field) for field in zip(*rows)))
        q = jacobian(batch)
        assert q.shape == (2, 2, 2)
        got = apply(batch, seven_cell_reference.positions)
        assert got.shape == (2, 7, 2)
        for k, row in enumerate(rows):
            single = GeneralizedCoordinates(*row)
            np.testing.assert_allclose(q[k], jacobian(single), rtol=0, atol=1e-15)
            np.testing.assert_allclose(
                got[k], apply(single, seven_cell_reference.positions), rtol=0, atol=1e-15
            )

    @given(
        coords_strategy,
        st.tuples(translation, translation),
        st.tuples(translation, translation),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    )
    @settings(max_examples=50)
    def test_affine_linearity(self, coords, a, b, alpha, beta):
        a, b = np.array([a]), np.array([b])
        d = np.array([coords.d1, coords.d2])
        lhs = apply(coords, alpha * a + beta * b)
        rhs = alpha * apply(coords, a) + beta * apply(coords, b) - (alpha + beta - 1.0) * d
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def assert_polar_factors(coords, atol):
    """jacobian(coords) is rotation(sigma_r) @ strain(lambda1, lambda2,
    sigma_d): its singular values are (max, min) of the strains, its
    determinant lambda1 * lambda2 > 0, and removing the strain factor leaves
    the rotation."""
    q = jacobian(coords)
    l1, l2 = coords.lambda1, coords.lambda2
    np.testing.assert_allclose(np.linalg.svd(q, compute_uv=False), [max(l1, l2), min(l1, l2)], atol=atol)
    det = np.linalg.det(q)
    assert det > 0.0
    assert abs(det - l1 * l2) <= atol
    rotation = q @ np.linalg.inv(strain_matrix(l1, l2, coords.sigma_d))
    np.testing.assert_allclose(rotation, rotation_matrix(coords.sigma_r), atol=atol)


class TestDecompose:
    """The Jacobian's polar factors, read back without an inverse map."""

    def test_identity(self):
        q = jacobian(GeneralizedCoordinates.identity())
        assert np.array_equal(q, np.eye(2))
        assert_polar_factors(GeneralizedCoordinates.identity(), atol=0.0)

    def test_diagonal(self):
        c = GeneralizedCoordinates(0.9, 0.8, 0.0, 0.0, 0.0, 0.0)
        np.testing.assert_allclose(jacobian(c), np.diag([0.9, 0.8]), atol=1e-15)
        assert_polar_factors(c, atol=1e-15)

    def test_round_trip_of_known_coordinates(self):
        assert_polar_factors(GeneralizedCoordinates(0.9, 0.8, 0.707, 0.3, 0.0, 0.0), atol=1e-9)

    def test_lambda_ordering_and_sigma_d_range(self):
        c = GeneralizedCoordinates(0.5, 0.95, 1.2, -0.4, 0, 0)
        sv = np.linalg.svd(jacobian(c), compute_uv=False)
        assert sv[0] >= sv[1]
        np.testing.assert_allclose(sv, [0.95, 0.5], atol=1e-12)
        # sigma_d matters modulo pi: the strain axis has no direction
        np.testing.assert_allclose(strain_matrix(0.5, 0.95, -0.4), strain_matrix(0.5, 0.95, -0.4 + math.pi), atol=1e-12)

    @given(coords_strategy)
    @settings(max_examples=200)
    def test_round_trip_rebuilds_jacobian(self, coords):
        assert_polar_factors(coords, atol=1e-9)


class TestGeneralizedCoordinates:
    def test_strain_bounds_enforced(self):
        with pytest.raises(InvalidArgumentError):
            GeneralizedCoordinates(1.1, 0.8, 0, 0, 0, 0)
        with pytest.raises(InvalidArgumentError):
            GeneralizedCoordinates(0.9, 0.0, 0, 0, 0, 0)
