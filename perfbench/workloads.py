"""The three benchmark workloads: seeded inputs, timed jobs, output checks.

A job is one surface through one pipeline.  ``Job.run`` is the timed part
and calls only the public Python API of ``varifoldlab``; ``Job.check`` runs
untimed on its result, raises ``CheckFailed`` when an output breaks ground
truth or an invariant, and otherwise returns the job's accuracy figures.

The seed sets a random rotation and translation applied to every generated
sample (and the jitter of ``perturbed_disk``).  The library only ever sees
the moved samples; analytic mean curvature is moved with them.

Every layer call goes through a module attribute (``ms.certify_chord_arc``,
not a name imported into this file), so the tracer's wrappers see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from varifoldlab import geometry, synthetic


class CheckFailed(Exception):
    """An output broke its ground truth or invariant."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str  # the surface; jobs of one name do the same amount of work
    run: Callable[[], Any]
    check: Callable[[Any], dict]


@dataclass
class Workload:
    """Jobs of one batch plus the reduction of job figures to guards."""

    jobs: list[Job]
    guards: Callable[[list[dict]], dict]
    headline: str  # the guard reported as the end-to-end accuracy_err


def rigid_motion(rng: np.random.Generator):
    """Uniformly random proper rotation and a translation in [-2, 2]^3."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q, rng.uniform(-2.0, 2.0, 3)


def _fresh(sample):
    """New sample object over the same arrays, so no cached KD-tree or
    projector carries over from an earlier job or batch."""
    return geometry.WeightedSurfaceSample(
        sample.points, sample.weights, sample.tangent_bases
    )


# ---------------------------------------------------------------------------
# certify: multiscale certification and weak mean curvature on large balls

CERTIFY_GAMMA_WINDOW = (0.075, 0.095)  # sphere cap R = 10, analytic ~0.0886
H_TOLERANCE = 1e-3  # max |H_est - H_true| per surface


def _certify_job(name, sample, H_true, origin, gamma_window):
    from varifoldlab import curvature as cv
    from varifoldlab import multiscale as ms

    def run():
        s = _fresh(sample)
        domain = geometry.Ball(origin, 1.0)
        family = ms.build_scale_family(s, domain, sigma_max=0.5)
        report = ms.certify_chord_arc(s, domain, family)
        beta = ms.beta_report(s, origin, 0.3, floor=0.075)
        rows = s.ball_query(origin, 0.4)
        field = cv.build_curvature_field(s, 0.25, indices=rows)
        return report, beta, field

    def check(out):
        report, beta, field = out
        _require(not report.errors, f"{len(report.errors)} ball errors")
        _require(report.balls, "no certified ball")
        if gamma_window is not None:
            lo, hi = gamma_window
            _require(lo <= report.gamma <= hi, f"gamma {report.gamma} outside {gamma_window}")
        _require(np.isfinite(beta.carleson), "non-finite Carleson sum")
        truth = H_true[field.indices]
        err = float(np.linalg.norm(field.vectors - truth, axis=1).max())
        _require(err <= H_TOLERANCE, f"|H_est - H_true| = {err}")
        return {"h_abs_err": err, "h_scale": float(np.linalg.norm(truth, axis=1).max())}

    return Job(name, run, check)


def _certify_guards(figures):
    return {
        "h_err": max(f["h_abs_err"] for f in figures)
        / max(f["h_scale"] for f in figures)
    }


def certify(seed: int, tiny: bool = False) -> Workload:
    """Sphere cap (R = 10) and saddle graph (eps = 0.1), ~12k points each."""
    rng = np.random.default_rng(seed)
    n = 5000 if tiny else 12000
    specs = [
        (
            "sphere_cap",
            synthetic.SyntheticSpec(kind="sphere_cap", n_points=n, sphere_radius=10.0),
            CERTIFY_GAMMA_WINDOW,
        ),
        ("graph", synthetic.SyntheticSpec(kind="graph", n_points=n, eps=0.1), None),
    ]
    jobs = []
    for name, spec, window in specs:
        sample, truth = synthetic.generate(spec)
        rot, shift = rigid_motion(rng)
        moved = sample.transformed(rotation=rot, translation=shift)
        jobs.append(_certify_job(name, moved, truth.mean_curvature @ rot.T, shift, window))
    return Workload(jobs, _certify_guards, "h_err")


# ---------------------------------------------------------------------------
# stagewise: iterated projection, one small-ball query per row per stage

def _stagewise_job(name, sample, nu, needs_refill):
    from varifoldlab import iterated_projection as ip

    def run():
        return ip.iterate_parameterization(_fresh(sample), gamma_hint=0.0, nu=nu)

    def check(res):
        if needs_refill:
            _require(res.group_count_history, "never reached the refill regime")
        cmap = res.map
        _require(
            np.array_equal(cmap.source_points, cmap.target_points + cmap.displacements),
            "source != target + displacement",
        )
        spread = float(res.report.spread)
        _require(np.isfinite(spread) and 1.0 <= spread <= 1.1, f"distortion spread {spread}")
        return {"distortion_excess": spread - 1.0}

    return Job(name, run, check)


def _stagewise_guards(figures):
    return {"distortion_excess": max(f["distortion_excess"] for f in figures)}


def stagewise(seed: int, tiny: bool = False) -> Workload:
    """Plateau graph in the refill regime plus a jittered flat disk."""
    rng = np.random.default_rng(seed)
    plateau = synthetic.SyntheticSpec(
        kind="plateau_graph",
        n_points=1000 if tiny else 3500,
        eps=0.05,
        plateau_radius=0.15,
        wall_scale=0.055,
    )
    disk = synthetic.SyntheticSpec(
        kind="perturbed_disk", n_points=500 if tiny else 2000, noise=0.003, seed=seed
    )
    jobs = []
    # below ~3.5k points the plateau silently takes the fine-only path
    for name, spec, nu, refill in [
        ("plateau_graph", plateau, 0.0225, not tiny),
        ("perturbed_disk", disk, 0.05, False),
    ]:
        sample, _ = synthetic.generate(spec)
        rot, shift = rigid_motion(rng)
        moved = sample.transformed(rotation=rot, translation=shift)
        jobs.append(_stagewise_job(name, moved, nu, refill))
    return Workload(jobs, _stagewise_guards, "distortion_excess")


# ---------------------------------------------------------------------------
# conformal: disk patches, harmonic maps and their diagnostics

MC_RESIDUAL_MAX = 0.15
# seeded patch centers per surface besides the origin; with them one batch
# lasts ~15 s on a 2-vCPU x86-64 VM
EXTRA_CENTERS = 2


def _conformal_job(name, sample, center, sigma, curvature):
    from varifoldlab import conformal as conf

    def run():
        patch = conf.extract_disk_patch(_fresh(sample), center, sigma)
        param = conf.harmonic_disk_param(patch)
        diag = conf.conformal_diagnostics(param, curvature)
        metric = conf.intrinsic_metric_diagnostics(patch, seed=0)
        return patch, param, diag, metric

    def check(out):
        patch, param, diag, metric = out
        _require(patch.euler_characteristic() == 1, "patch is not a disk")
        u = param.disk_points[param.triangles]
        e1, e2 = u[:, 1] - u[:, 0], u[:, 2] - u[:, 0]
        folded = int(np.sum(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] <= 0))
        _require(folded == 0, f"{folded} folded triangles")
        for key in ("bmo", "a2", "inverse_holder_max", "max_qc_dilatation"):
            _require(np.isfinite(getattr(diag, key)), f"non-finite {key}")
        _require(np.isfinite(metric["path_over_chord_max"]), "non-finite path metric")
        figures = {"qc_excess": float(diag.max_qc_dilatation) - 1.0}
        if curvature is not None:
            mc = float(diag.mc_residual)
            _require(mc <= MC_RESIDUAL_MAX, f"mean-curvature residual {mc}")
            figures["mc_residual"] = mc
        return figures

    return Job(name, run, check)


def _refusal_job(name, sample, center, sigma):
    from varifoldlab import conformal as conf
    from varifoldlab.errors import NotDiskTopology

    def run():
        try:
            return conf.extract_disk_patch(_fresh(sample), center, sigma)
        except NotDiskTopology as exc:
            return exc

    def check(out):
        _require(isinstance(out, NotDiskTopology), "punched ball was accepted as a disk")
        return {}

    return Job(name, run, check)


def _conformal_guards(figures):
    patches = [f for f in figures if "qc_excess" in f]
    return {
        "qc_excess": max(f["qc_excess"] for f in patches),
        "mc_residual": max(f["mc_residual"] for f in patches if "mc_residual" in f),
    }


def conformal(seed: int, tiny: bool = False) -> Workload:
    """Sphere cap, saddle graph and flat disk patches (20k points each) at
    the origin and at seeded centers, plus one punched ball to refuse."""
    rng = np.random.default_rng(seed)
    n = 4000 if tiny else 20000
    R = 10.0
    surfaces = [
        (
            "sphere_cap",
            synthetic.SyntheticSpec(kind="sphere_cap", n_points=n, sphere_radius=R),
            0.8,
            0.15,
        ),
        ("graph", synthetic.SyntheticSpec(kind="graph", n_points=n, eps=0.3), 0.5, 0.4),
        ("flat_disk", synthetic.SyntheticSpec(kind="flat_disk", n_points=n), 0.5, 0.4),
    ]
    jobs = []
    # reach: largest chart offset of a seeded center that keeps its ball
    # inside the surface
    for name, spec, sigma, reach in surfaces:
        sample, _ = synthetic.generate(spec)
        rot, shift = rigid_motion(rng)
        moved = sample.transformed(rotation=rot, translation=shift)
        curvature = None
        if name == "sphere_cap":
            sphere_center = rot @ np.array([0.0, 0.0, R]) + shift

            def curvature(p, c=sphere_center):
                return (2.0 / R**2) * (c - p)

        offsets = [np.zeros(2)]
        for _ in range(EXTRA_CENTERS):
            radius, angle = reach * np.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * np.pi)
            offsets.append(radius * np.array([np.cos(angle), np.sin(angle)]))
        for off in offsets:
            row = int(np.argmin(np.linalg.norm(sample.points[:, :2] - off, axis=1)))
            jobs.append(_conformal_job(name, moved, moved.points[row], sigma, curvature))
    punched, _ = synthetic.generate(
        synthetic.SyntheticSpec(kind="punched_disk", n_points=n, seed=1, hole_center=(0.3, 0.0))
    )
    rot, shift = rigid_motion(rng)
    moved = punched.transformed(rotation=rot, translation=shift)
    hole = rot @ np.array([0.3, 0.0, 0.0]) + shift
    jobs.append(_refusal_job("punched_disk", moved, hole, 0.25))
    return Workload(jobs, _conformal_guards, "qc_excess")


WORKLOADS = {"certify": certify, "stagewise": stagewise, "conformal": conformal}
