import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nbpk.inertial import (
    RigidBody,
    body_from_dict,
    bundled_backpack_body,
    com_shift,
    compose,
    load_bodies,
    parallel_axis,
    symmetric_eigenvalues,
    validate_inertia,
)

from oracles import (
    analytic_cuboid_inertia,
    cloud_inertia_about,
    cloud_mass_properties,
    cuboid_cloud,
    random_rotation,
    rel_err,
)

TOL = 1e-3


def random_cuboid_body(rng, with_rotation=True):
    """A solid cuboid as (RigidBody, its point cloud)."""
    extents = rng.uniform(0.02, 0.3, size=3)
    center = rng.uniform(-0.5, 0.5, size=3)
    rot = random_rotation(rng) if with_rotation else None
    density = rng.uniform(200.0, 2000.0)
    pts, masses = cuboid_cloud(extents, center, rot, density)
    mass = float(masses.sum())
    body = RigidBody(mass=mass, com=center,
                     inertia=analytic_cuboid_inertia(mass, extents, rot))
    return body, pts, masses


class TestOracleSelfCheck:
    """The cloud integrator must reproduce the closed-form cuboid tensor
    before it is trusted to judge anything else."""

    def test_axis_aligned_cuboid(self):
        pts, masses = cuboid_cloud([0.1, 0.2, 0.3], [0.0, 0.0, 0.0], density=1000.0)
        m, com, inertia = cloud_mass_properties(pts, masses)
        assert m == pytest.approx(1000.0 * 0.1 * 0.2 * 0.3, rel=1e-12)
        assert np.abs(com).max() < 1e-12
        assert rel_err(inertia, analytic_cuboid_inertia(m, [0.1, 0.2, 0.3])) < TOL

    def test_rotated_offset_cuboid(self):
        rng = np.random.default_rng(7)
        rot = random_rotation(rng)
        pts, masses = cuboid_cloud([0.05, 0.15, 0.25], [0.3, -0.2, 0.1], rot, density=500.0)
        m, com, inertia = cloud_mass_properties(pts, masses)
        assert rel_err(com, [0.3, -0.2, 0.1]) < 1e-12
        assert rel_err(inertia, analytic_cuboid_inertia(m, [0.05, 0.15, 0.25], rot)) < TOL


class TestParallelAxis:
    def test_zero_shift_is_identity(self):
        inertia = np.diag([1.0, 2.0, 3.0])
        assert np.array_equal(parallel_axis(inertia, 5.0, [0, 0, 0]), inertia)

    def test_against_cloud(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            body, pts, masses = random_cuboid_body(rng)
            point = rng.uniform(-0.5, 0.5, size=3)
            want = cloud_inertia_about(pts, masses, point)
            got = parallel_axis(body.inertia, body.mass, body.com - point)
            assert rel_err(got, want) < TOL

    def test_point_mass_formula(self):
        # a point mass at distance d about an axis: I = m d^2 for the two
        # perpendicular axes, 0 along the displacement itself
        got = parallel_axis(np.zeros((3, 3)), 2.0, [0.3, 0.0, 0.0])
        assert np.allclose(got, np.diag([0.0, 0.18, 0.18]))

    def test_shift_never_shrinks_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            inertia = np.diag(rng.uniform(0.1, 1.0, size=3))
            d = rng.uniform(-1, 1, size=3)
            shifted = parallel_axis(inertia, 1.5, d)
            assert np.trace(shifted) >= np.trace(inertia) - 1e-15


class TestCompose:
    def test_two_cuboids_match_merged_cloud(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            b1, p1, m1 = random_cuboid_body(rng)
            b2, p2, m2 = random_cuboid_body(rng)
            merged = compose([b1, b2])
            want_m, want_com, want_inertia = cloud_mass_properties(
                np.vstack([p1, p2]), np.concatenate([m1, m2]))
            assert merged.mass == pytest.approx(want_m, rel=1e-12)
            assert rel_err(merged.com, want_com) < 1e-9
            assert rel_err(merged.inertia, want_inertia) < TOL
            assert merged.validate() == []

    def test_single_body_unchanged(self):
        rng = np.random.default_rng(6)
        body, _, _ = random_cuboid_body(rng)
        out = compose([body])
        assert out.mass == body.mass
        assert np.allclose(out.com, body.com)
        assert np.allclose(out.inertia, body.inertia, atol=1e-15)

    def test_order_invariant(self):
        rng = np.random.default_rng(8)
        bodies = [random_cuboid_body(rng)[0] for _ in range(4)]
        a = compose(bodies)
        b = compose(bodies[::-1])
        assert a.mass == pytest.approx(b.mass, rel=1e-14)
        assert np.allclose(a.com, b.com, atol=1e-15)
        assert np.allclose(a.inertia, b.inertia, atol=1e-16)

    def test_associative_grouping(self):
        rng = np.random.default_rng(9)
        bodies = [random_cuboid_body(rng)[0] for _ in range(4)]
        flat = compose(bodies)
        grouped = compose([compose(bodies[:2]), compose(bodies[2:])])
        assert grouped.mass == pytest.approx(flat.mass, rel=1e-14)
        assert rel_err(grouped.com, flat.com) < 1e-12
        assert rel_err(grouped.inertia, flat.inertia) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([])

    def test_zero_total_mass_rejected(self):
        z = RigidBody(mass=0.0, com=[0, 0, 0], inertia=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            compose([z, z])


class TestComShift:
    def test_equal_masses_meet_halfway(self):
        a = RigidBody(mass=1.0, com=[0, 0, 0], inertia=np.eye(3) * 1e-3)
        b = RigidBody(mass=1.0, com=[0.1, 0, 0], inertia=np.eye(3) * 1e-3)
        assert np.allclose(com_shift(a, b), [0.05, 0, 0])

    def test_light_addon_shifts_little(self):
        robot = RigidBody(mass=5.0, com=[0, 0, 0.3], inertia=np.eye(3) * 0.1)
        pack = RigidBody(mass=0.2, com=[-0.05, 0, 0.35], inertia=np.eye(3) * 1e-4)
        shift = com_shift(robot, pack)
        want = 0.2 / 5.2 * np.array([-0.05, 0.0, 0.05])
        assert np.allclose(shift, want)
        assert np.linalg.norm(shift) < 0.01

    def test_matches_compose(self):
        rng = np.random.default_rng(10)
        a, _, _ = random_cuboid_body(rng)
        b, _, _ = random_cuboid_body(rng)
        assert np.allclose(com_shift(a, b), compose([a, b]).com - a.com, atol=1e-15)

    def test_zero_mass_rejected(self):
        a = RigidBody(mass=1.0, com=[0, 0, 0], inertia=np.eye(3))
        z = RigidBody(mass=0.0, com=[1, 0, 0], inertia=np.zeros((3, 3)))
        with pytest.raises(ValueError):
            com_shift(a, z)
        with pytest.raises(ValueError):
            com_shift(z, a)


def symmetric_matrices(max_scale):
    comp = st.floats(-max_scale, max_scale, allow_nan=False, allow_infinity=False)
    return st.tuples(comp, comp, comp, comp, comp, comp).map(
        lambda v: np.array([[v[0], v[3], v[4]],
                            [v[3], v[1], v[5]],
                            [v[4], v[5], v[2]]]))


def tiny_corner_matrix(eps):
    return np.array([[76.0, 76.0, eps], [76.0, 0.0, 76.0], [eps, 76.0, 0.0]])


def reference_eigenvalues(m):
    """Ascending eigenvalues from LAPACK's general solver (eigvals), not its symmetric one.
    A symmetric matrix is normal, so each computed value lies within rounding of a true,
    real eigenvalue (Bauer-Fike), and the sorted real parts are the reference."""
    return np.sort(np.linalg.eigvals(m).real)


class TestEigenvalues:
    def test_diagonal_passthrough(self):
        lam = symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(lam, [1.0, 2.0, 3.0])

    def test_known_rotation(self):
        rot = random_rotation(np.random.default_rng(2))
        m = rot @ np.diag([0.5, 1.5, 4.0]) @ rot.T
        assert np.allclose(symmetric_eigenvalues(m), [0.5, 1.5, 4.0], atol=1e-12)

    def test_degenerate_pair(self):
        rot = random_rotation(np.random.default_rng(4))
        m = rot @ np.diag([2.0, 2.0, 7.0]) @ rot.T
        assert np.allclose(symmetric_eigenvalues(m), [2.0, 2.0, 7.0], atol=1e-12)

    # The closed form loses ~sqrt(eps) of accuracy when two eigenvalues
    # nearly coincide (the acos argument sits at +-1), so the comparison
    # tolerance is 1e-7 of the spectrum scale, not machine epsilon.
    # The examples are matrices on which LAPACK's symmetric solver (eigvalsh)
    # misses: by 3.7e-5 at the first, and -78.10 for -94.77 at the second.
    @settings(max_examples=300)
    @given(symmetric_matrices(1e3))
    @example(tiny_corner_matrix(-8.233734287653239e-158))
    @example(tiny_corner_matrix(-1e-160))
    def test_matches_lapack(self, m):
        got = symmetric_eigenvalues(m)
        want = reference_eigenvalues(m)
        scale = max(1.0, float(np.abs(want).max()))
        assert np.abs(got - want).max() < 1e-7 * scale
        assert got[0] <= got[1] <= got[2]

    @settings(max_examples=100)
    @given(symmetric_matrices(1e-3))
    def test_matches_lapack_small_scale(self, m):
        got = symmetric_eigenvalues(m)
        want = reference_eigenvalues(m)
        scale = max(1e-3, float(np.abs(want).max()))
        assert np.abs(got - want).max() < 1e-7 * scale


class TestValidateInertia:
    def test_sphere_like_tensor_is_valid(self):
        assert validate_inertia(np.eye(3) * 1e-4, 0.5) == []

    def test_real_cuboid_tensors_are_valid(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            body, _, _ = random_cuboid_body(rng)
            assert body.validate() == []

    def test_thin_rod_limit_is_valid(self):
        # a/b -> 0 drives one moment to the sum of the others: boundary case
        assert validate_inertia(analytic_cuboid_inertia(1.0, [1e-6, 1e-6, 0.4]), 1.0) == []

    def test_triangle_violation(self):
        out = validate_inertia(np.diag([1.0, 1.0, 3.0]), 1.0)
        assert len(out) == 1
        assert "triangle" in out[0]

    def test_triangle_violation_any_axis_order(self):
        for d in ([3.0, 1.0, 1.0], [1.0, 3.0, 1.0]):
            out = validate_inertia(np.diag(d), 1.0)
            assert any("triangle" in v for v in out)

    def test_asymmetry_flagged(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        out = validate_inertia(m, 1.0)
        assert any("symmetric" in v for v in out)

    def test_tiny_asymmetry_tolerated(self):
        m = np.eye(3) * 1e-4
        m[0, 1] = m[1, 0] = 1e-5
        m[0, 1] += 1e-13  # below the symmetry tolerance
        assert validate_inertia(m, 1.0) == []

    def test_negative_definite_flagged(self):
        out = validate_inertia(np.diag([-1.0, 2.0, 2.0]), 1.0)
        assert any("positive definite" in v for v in out)

    def test_indefinite_flagged(self):
        out = validate_inertia(np.diag([1.0, -2.0, 3.0]), 1.0)
        assert any("positive definite" in v for v in out)

    def test_zero_mass_checks_symmetry_only(self):
        assert validate_inertia(np.diag([1.0, 1.0, 3.0]), 0.0) == []
        m = np.zeros((3, 3))
        m[0, 1] = 1.0
        assert len(validate_inertia(m, 0.0)) == 1

    def test_scale_invariance(self):
        base = np.diag([1.0, 1.0, 3.0])
        for scale in (1e-8, 1.0, 1e8):
            assert any("triangle" in v for v in validate_inertia(base * scale, 1.0))


class TestRigidBody:
    def test_coerces_sequences(self):
        b = RigidBody(mass=1.0, com=[1, 2, 3], inertia=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert b.com.dtype == np.float64
        assert b.inertia.shape == (3, 3)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            RigidBody(mass=-0.1, com=[0, 0, 0], inertia=np.eye(3))

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            RigidBody(mass=1.0, com=[0, 0], inertia=np.eye(3))
        with pytest.raises(ValueError):
            RigidBody(mass=1.0, com=[0, 0, 0], inertia=np.eye(4))


class TestBundledBody:
    def test_loads(self):
        b = bundled_backpack_body()
        assert b.mass == pytest.approx(0.2074)
        assert b.com[0] < 0  # mounted behind the torso
        assert np.allclose(b.inertia, b.inertia.T)

    def test_tensor_is_not_realizable(self):
        # The shipped example's principal moments fail one triangle
        # inequality; the validator must say so rather than shrug.
        out = bundled_backpack_body().validate()
        assert len(out) == 1
        assert "triangle" in out[0]


class TestJsonLoading:
    def body_dict(self):
        return {"mass": 1.5, "com": [0.1, 0.2, 0.3],
                "inertia": [2e-3, 0, 0, 0, 2e-3, 0, 0, 0, 3e-3]}

    def test_single_object(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps(self.body_dict()))
        bodies = load_bodies(p)
        assert len(bodies) == 1
        assert bodies[0].mass == 1.5

    def test_list(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps([self.body_dict(), self.body_dict()]))
        assert len(load_bodies(p)) == 2

    def test_bodies_key(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text(json.dumps({"bodies": [self.body_dict()], "note": "ignored"}))
        assert len(load_bodies(p)) == 1

    def test_missing_field(self):
        with pytest.raises(ValueError):
            body_from_dict({"mass": 1.0, "com": [0, 0, 0]})

    def test_wrong_inertia_length(self):
        with pytest.raises(ValueError):
            body_from_dict({"mass": 1.0, "com": [0, 0, 0], "inertia": [1, 2, 3]})

    def test_non_body_document(self, tmp_path):
        p = tmp_path / "b.json"
        p.write_text('"just a string"')
        with pytest.raises(ValueError):
            load_bodies(p)
