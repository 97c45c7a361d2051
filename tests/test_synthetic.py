"""Generator correctness: areas, frames, curvature fields, determinism."""

import numpy as np
import pytest

from varifoldlab.errors import InvalidSpec
from varifoldlab.synthetic import (
    SyntheticSpec,
    disk_lattice,
    generate,
    graph_mean_curvature,
    icosphere,
)

from oracles import (
    graph_H_finite_difference,
    hex_lattice_loop,
    oracle_graph_area,
)

CAP_AREA_R10_A1 = 3.1494861522999167


def test_flat_disk_total_weight_is_exact_area():
    sample, truth = generate(SyntheticSpec(kind="flat_disk", n_points=5000))
    assert abs(sample.weights.sum() - np.pi) < 1e-9
    assert truth.area == pytest.approx(np.pi, abs=1e-12)
    assert abs(len(sample) - 5000) / 5000 < 0.05


def test_flat_disk_density_ratio_near_one_at_coarse_scales():
    sample, _ = generate(SyntheticSpec(kind="flat_disk", n_points=5000))
    for sigma in (0.2, 0.3, 0.45):
        idx = sample.ball_query(np.array([0.05, -0.1, 0.0]), sigma)
        ratio = sample.weights[idx].sum() / (np.pi * sigma**2)
        assert abs(ratio - 1.0) < 0.01


def test_sphere_cap_area_matches_closed_form():
    sample, truth = generate(
        SyntheticSpec(kind="sphere_cap", n_points=5000, radius=1.0, sphere_radius=10.0)
    )
    assert truth.area == pytest.approx(CAP_AREA_R10_A1, abs=1e-12)
    assert sample.weights.sum() == pytest.approx(CAP_AREA_R10_A1, abs=1e-9)


def test_sphere_cap_points_frames_and_curvature():
    sample, truth = generate(
        SyntheticSpec(kind="sphere_cap", n_points=2000, radius=1.0, sphere_radius=10.0)
    )
    center = np.array([0.0, 0.0, 10.0])
    radii = np.linalg.norm(sample.points - center, axis=1)
    assert np.abs(radii - 10.0).max() < 1e-10
    # tangent frames orthonormal and orthogonal to the radial direction
    normals = (sample.points - center) / 10.0
    for i in range(0, len(sample), 257):
        B = sample.tangent_bases[i]
        assert np.allclose(B @ B.T, np.eye(2), atol=1e-12)
        assert np.abs(B @ normals[i]).max() < 1e-12
    H = truth.mean_curvature
    assert np.allclose(np.linalg.norm(H, axis=1), 0.2, atol=1e-12)
    # curvature vector points toward the sphere center
    toward = center - sample.points
    cos = np.einsum("ij,ij->i", H, toward) / (
        np.linalg.norm(H, axis=1) * np.linalg.norm(toward, axis=1)
    )
    assert cos.min() > 1.0 - 1e-12


def test_cylinder_band_frames_and_curvature():
    sample, truth = generate(
        SyntheticSpec(kind="cylinder_band", n_points=3000, radius=2.0, band_height=3.0)
    )
    assert truth.area == pytest.approx(2.0 * np.pi * 2.0 * 3.0, rel=1e-12)
    rho = np.linalg.norm(sample.points[:, :2], axis=1)
    assert np.abs(rho - 2.0).max() < 1e-10
    H = truth.mean_curvature
    assert np.allclose(np.linalg.norm(H, axis=1), 0.5, atol=1e-12)
    # inward
    inward = -np.c_[sample.points[:, :2], np.zeros(len(sample))]
    dots = np.einsum("ij,ij->i", H, inward)
    assert dots.min() > 0


def test_graph_area_matches_quadrature_oracle():
    spec = SyntheticSpec(kind="graph", n_points=4000, eps=0.1)
    sample, truth = generate(spec)
    area_oracle = oracle_graph_area(0.1, 1.0)
    assert truth.area == pytest.approx(area_oracle, rel=1e-4)
    assert sample.weights.sum() == pytest.approx(area_oracle, rel=2e-3)


def test_graph_mean_curvature_matches_finite_differences():
    eps = 0.1
    rng = np.random.default_rng(7)
    xy = rng.uniform(-0.7, 0.7, size=(12, 2))
    closed = graph_mean_curvature(eps, xy)
    for i in range(len(xy)):
        fd = graph_H_finite_difference(eps, xy[i], h=1e-4)
        scale = max(np.linalg.norm(fd), 1e-6)
        assert np.linalg.norm(closed[i] - fd) / scale < 0.10


def test_graph_tangent_frames_span_lifted_basis():
    spec = SyntheticSpec(kind="graph", n_points=1500, eps=0.3)
    sample, _ = generate(spec)
    xy = sample.points[:, :2]
    gx, gy = 0.3 * xy[:, 0], -0.3 * xy[:, 1]
    normal = np.stack([-gx, -gy, np.ones(len(sample))], axis=1)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    for i in range(0, len(sample), 113):
        B = sample.tangent_bases[i]
        assert np.allclose(B @ B.T, np.eye(2), atol=1e-12)
        assert np.abs(B @ normal[i]).max() < 1e-12


def test_perturbed_disk_is_seeded_and_bounded():
    spec = SyntheticSpec(kind="perturbed_disk", n_points=2000, noise=0.003, seed=5)
    s1, _ = generate(spec)
    s2, _ = generate(spec)
    assert np.array_equal(s1.points, s2.points)
    assert np.abs(s1.points[:, 2]).max() <= 0.003
    s3, _ = generate(
        SyntheticSpec(kind="perturbed_disk", n_points=2000, noise=0.003, seed=6)
    )
    assert not np.array_equal(s1.points, s3.points)


def test_punched_disk_has_a_hole():
    spec = SyntheticSpec(kind="punched_disk", n_points=5000, hole_center=(0.3, 0.0))
    sample, truth = generate(spec)
    d = truth.params["hole_diameter"]
    dist = np.linalg.norm(sample.points[:, :2] - np.array([0.3, 0.0]), axis=1)
    assert dist.min() > d / 2.0
    assert truth.area < np.pi - 0.5 * np.pi * (d / 2.0) ** 2


def test_sunflower_pattern_also_fills_the_disk():
    sample, _ = generate(SyntheticSpec(kind="flat_disk", n_points=2000, pattern="sunflower"))
    assert len(sample) == 2000
    r = np.linalg.norm(sample.points[:, :2], axis=1)
    assert r.max() <= 1.0
    assert sample.weights.sum() == pytest.approx(np.pi, abs=1e-9)


@pytest.mark.parametrize(
    "radius,target_n", [(0.5, 3000), (0.0625, 16), (1.0, 12000), (0.3, 17), (2.5, 101)]
)
def test_disk_lattice_matches_row_loop(radius, target_n):
    pts = disk_lattice(radius, target_n)
    loop = hex_lattice_loop(radius, target_n)
    assert pts.shape == loop.shape
    assert np.array_equal(pts, loop)
    assert np.array_equal(np.signbit(pts), np.signbit(loop))


def test_invalid_specs_are_rejected():
    with pytest.raises(InvalidSpec):
        SyntheticSpec(kind="torus")
    with pytest.raises(InvalidSpec):
        SyntheticSpec(n_points=4)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(kind="sphere_cap", radius=11.0, sphere_radius=10.0)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(radius=-1.0)
    with pytest.raises(InvalidSpec):
        SyntheticSpec(pattern="poisson")


def test_icosphere_is_a_closed_manifold_on_the_sphere():
    verts, faces = icosphere(2, 10.0)
    assert np.abs(np.linalg.norm(verts, axis=1) - 10.0).max() < 1e-10
    # every edge shared by exactly two faces
    edges = {}
    for tri in faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    assert set(edges.values()) == {2}
    # Euler characteristic 2
    assert len(verts) - len(edges) + len(faces) == 2
