"""Exported names: every ``__all__`` entry resolves, ``conformal.__all__``
lists exactly the public classes and functions the module defines, and so
do the pinned lists of the public definitions of `synthetic`,
`iterated_projection`, `multiscale`, `curvature`, `geometry` and
`meshing`.  Source checks: one module owns the eigenframe, projector and
second-moment kernels, the row check and the pair-distance tables, the
stage refill is one first-come pass, every disk patch is built by
`DiskPatch.from_mesh`, the mesh kernels have one owner each, lazy views
are cached properties, and retired knobs stay gone; every settable
keyword and every `SyntheticSpec` field is listed."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import varifoldlab
from varifoldlab import (
    conformal,
    curvature,
    geometry,
    iterated_projection,
    meshing,
    multiscale,
    synthetic,
)
from varifoldlab.synthetic import SyntheticSpec


@pytest.mark.parametrize("module", [varifoldlab, conformal], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def _public_definitions(module):
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    )


def test_conformal_exports_exactly_its_public_definitions():
    assert sorted(conformal.__all__) == _public_definitions(conformal)


# The public classes and functions of `synthetic`.  A new public helper
# fails here until it is listed; a helper only the module calls is private.
SYNTHETIC_PUBLIC = [
    "GroundTruth",
    "SyntheticSpec",
    "disk_lattice",
    "generate",
    "graph_height",
    "graph_mean_curvature",
]


# The public classes and functions of `iterated_projection`, pinned the
# same way.
ITERATED_PROJECTION_PUBLIC = [
    "CorrespondenceMap",
    "DeltaField",
    "DistortionReport",
    "FineSet",
    "IterationResult",
    "MissingNormalField",
    "SeparatedNet",
    "SmoothedSurfaceStage",
    "build_separated_net",
    "build_sigma_delta",
    "compose_maps",
    "distortion_report",
    "extract_fine_set",
    "iterate_parameterization",
    "make_delta0",
    "next_delta",
    "normal_field",
    "partition_of_unity",
    "project_tau",
]


# The public classes and functions of the statistics and geometry modules,
# pinned the same way: each statistic has one public batched entry, and
# its one-ball case is a private kernel that tests call directly.
PINNED_PUBLIC = {
    multiscale: [
        "BallStats",
        "BetaReport",
        "ChordArcReport",
        "FlatnessDetails",
        "ScaleFamily",
        "beta_report",
        "build_scale_family",
        "caccioppoli_bound_check",
        "carleson_chain_majorant",
        "carleson_scales",
        "certify_chord_arc",
        "projection_no_hole_check",
        "resolution_floor",
    ],
    curvature: [
        "CurvatureField",
        "MonotonicityLedger",
        "build_curvature_field",
        "mesh_mean_curvature",
        "monotonicity_identity",
        "monotonicity_inequality",
        "willmore_energy",
    ],
    geometry: [
        "Ball",
        "Plane",
        "WeightedSurfaceSample",
        "complement_frame",
        "fit_plane_pca",
        "grassmann_bases",
        "projector_distance",
    ],
    meshing: [
        "angle_defects",
        "cotangent_laplacian",
        "mesh_edges",
        "orient_ccw",
        "orientation_dets",
        "triangle_areas",
        "vertex_areas",
        "vertex_sums",
    ],
}


@pytest.mark.parametrize("module", PINNED_PUBLIC, ids=lambda m: m.__name__.split(".")[-1])
def test_public_definitions_are_pinned(module):
    assert _public_definitions(module) == PINNED_PUBLIC[module]


def test_synthetic_public_definitions_are_pinned():
    assert _public_definitions(synthetic) == SYNTHETIC_PUBLIC


def test_iterated_projection_public_definitions_are_pinned():
    assert _public_definitions(iterated_projection) == ITERATED_PROJECTION_PUBLIC


def _modules_matching(pattern):
    src = Path(varifoldlab.__file__).parent
    return sorted(path.name for path in src.glob("*.py") if re.search(pattern, path.read_text()))


def test_eigh_is_called_only_by_the_geometry_kernel():
    """Every principal frame comes from `geometry._principal_frames`; a second
    eigendecomposition elsewhere would copy its order, rank and sign rules."""
    assert _modules_matching(r"\beigh\b") == ["geometry.py"]


def test_projectors_are_formed_only_by_the_geometry_kernel():
    """Every orthogonal projector B^T B comes from `geometry._span_projectors`;
    a second form of the product, such as an einsum, can differ from it in
    the last bit on rotated bases."""
    patterns = [
        r"\b([\w.]+)\.T @ \1\b",
        r'einsum\("(\w*)(\w)(\w),\1\2(\w)->\1\3\4", (\w+), \5\)',
        r"matmul\(np\.swapaxes\((\w+), -1, -2\), \1\)",
    ]
    found = {name for pattern in patterns for name in _modules_matching(pattern)}
    assert sorted(found) == ["geometry.py"]


def test_plane_split_is_formed_only_by_the_geometry_kernel():
    """Every split of points about a plane into in-plane coordinates and
    normal parts, for one basis or a stack, comes from
    `geometry._plane_split`."""
    transposed = r"(?:\.T|\.transpose\(0, 2, 1\))"
    patterns = [
        rf"(\w+) = (\w+) @ ([\w.]+){transposed}\n[^\n]*\b\2 - \1 @ \3\b",
        rf"(\w+) - \(\1 @ ([\w.]+){transposed}?\) @ \2{transposed}?",
        r"(\w+) = (\w+) @ np\.swapaxes\((\w+), -1, -2\)\n[^\n]*\b\2 - \1 @ \3\b",
    ]
    found = {name for pattern in patterns for name in _modules_matching(pattern)}
    assert sorted(found) == ["geometry.py"]


def test_row_shape_check_has_one_owner():
    """Every (k, n) rows check, and its message, is `geometry._require_rows`."""
    assert _modules_matching(r"need \(k, ") == ["geometry.py"]
    assert _modules_matching(r"\.ndim != 2") == ["geometry.py"]
    geometry_source = Path(geometry.__file__).read_text()
    assert geometry_source.count(".ndim != 2") == 1
    assert ".ndim != 2" in inspect.getsource(geometry._require_rows)


def test_pair_distance_tables_have_one_owner():
    """Every table of pairwise distances comes from `geometry._pair_blocks`
    (or, for the small balls of `_pair_lipschitz`, its condensed `pdist`
    form); no module broadcasts a row set against itself."""
    assert _modules_matching(r"\b[cp]dist\b") == ["geometry.py"]
    geometry_source = Path(geometry.__file__).read_text()
    assert geometry_source.count("cdist(") == 1
    assert "cdist(" in inspect.getsource(geometry._pair_blocks)
    assert _modules_matching(r"(\w+)\[:, None, :\] - \1\[None, :, :\]") == []


def test_weighted_second_moments_have_one_owner():
    """Every normalized weighted second-moment matrix (rel * w)^T rel / sum(w),
    of one row set or a stack, comes from `geometry._second_moments`."""
    product = r"(\w+) \* \w+\[[.:, ]*None\]\)?(?:\.T|\.transpose\([^)]*\)|, -1, -2\)) @ \1 /"
    assert _modules_matching(product) == ["geometry.py"]
    assert re.search(product, inspect.getsource(geometry._second_moments))


def test_stage_refill_is_one_first_come_pass():
    """`build_sigma_delta` asks one KD-tree of the fine points for every
    member's anchors and every candidate's fine neighbour, and thins the
    candidates of all members in one `_greedy_net` pass: no tree and no
    packing per net group."""
    source = inspect.getsource(iterated_projection.build_sigma_delta)
    assert source.count("cKDTree(") == 1
    assert source.count("_greedy_net(") == 1


def test_disk_patches_have_one_constructor():
    """Every `DiskPatch` is built by `DiskPatch.from_mesh`, the one caller
    of the disk check: extracted and refined patches pass the gate a
    wrapped mesh passes, and change only `psi` and `sample_rows` after."""
    call = r"(?<!def )\b_disk_complex\("
    assert _modules_matching(call) == ["conformal.py"]
    assert len(re.findall(call, Path(conformal.__file__).read_text())) == 1
    assert re.search(call, inspect.getsource(conformal.DiskPatch.from_mesh))
    assert _modules_matching(r"\bDiskPatch\(") == []


def test_mesh_kernels_have_one_owner():
    """Face values reach vertices through `meshing.vertex_sums` and wedge
    norms come from `meshing._wedge_norms`, in any dimension; the one
    `np.cross` left builds the R^3 frames of `geometry.complement_frame`."""
    assert _modules_matching(r"np\.add\.at") == []
    assert _modules_matching(r"np\.cross") == ["geometry.py"]


def test_cached_views_are_cached_properties():
    """Lazy views are `functools.cached_property`, never a ``None`` cache
    field filled on first use."""
    assert _modules_matching(r"field\(default=None, init=False") == []
    assert _modules_matching(r"\bcached_property\b") == [
        "conformal.py", "geometry.py", "iterated_projection.py"
    ]


@pytest.mark.parametrize("name", ["dyadic_squares", "conformal_diagnostics"])
def test_dyadic_depth_is_a_module_constant(name):
    """Dyadic statistics run to `conformal.DYADIC_DEPTH`; no call sets a depth."""
    assert "depth" not in inspect.signature(getattr(conformal, name)).parameters


# Every keyword parameter with a default of a public function or method,
# with that default.  A new knob fails here until it is listed.
KEYWORD_DEFAULTS = {
    "conformal.DiskPatch.from_mesh": {
        "center": None, "plane_coords": None, "sigma": None, "spacing": None
    },
    "conformal.conformal_diagnostics": {"curvature": None},
    "conformal.intrinsic_metric_diagnostics": {"seed": 0},
    "conformal.mobius_reparameterized": {"center": (0.0, 0.0), "phase": 0.0},
    "conformal.refine_disk_patch": {"boundary_projector": None, "projector": None},
    "curvature.build_curvature_field": {"indices": None},
    "curvature.monotonicity_identity": {"floor": None},
    "curvature.monotonicity_inequality": {"floor": None},
    "geometry.Plane.lift": {"heights": None},
    "geometry.WeightedSurfaceSample.transformed": {
        "rotation": None, "scale": 1.0, "translation": None
    },
    "geometry.fit_plane_pca": {"center": None, "dim": 2, "weights": None},
    "iterated_projection.extract_fine_set": {"floor": None},
    "iterated_projection.iterate_parameterization": {"nu": None},
    "iterated_projection.make_delta0": {"domain": None},
    "iterated_projection.next_delta": {"domain": None},
    "multiscale.beta_report": {"floor": None},
    "multiscale.build_scale_family": {"floor": None, "sigma_max": None},
    "multiscale.caccioppoli_bound_check": {"plane": None},
    "multiscale.resolution_floor": {"mult": 8.0},
}


def _public_callables(module):
    """(qualified name, function) of the module's public functions and the
    public methods of its public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_every_keyword_default_is_listed():
    found = {}
    for info in pkgutil.iter_modules(varifoldlab.__path__):
        module = importlib.import_module(f"varifoldlab.{info.name}")
        for name, fn in _public_callables(module):
            params = inspect.signature(fn).parameters.values()
            defaults = {p.name: p.default for p in params if p.default is not p.empty}
            if defaults:
                found[f"{info.name}.{name}"] = defaults
    assert found == KEYWORD_DEFAULTS
    assert sum(len(kw) for kw in found.values()) == 29


# Every field of `SyntheticSpec`, with its default.  A new config field fails
# here until it is listed, as a new keyword does above.
SYNTHETIC_SPEC_DEFAULTS = {
    "kind": "flat_disk",
    "n_points": 5000,
    "seed": 0,
    "radius": 1.0,
    "eps": 0.05,
    "sphere_radius": 10.0,
    "band_height": 3.0,
    "noise": 0.0,
    "hole_center": (0.3, 0.0),
    "plateau_radius": 0.15,
    "wall_scale": 0.055,
}


def test_every_synthetic_spec_field_is_listed():
    fields = {f.name: f.default for f in dataclasses.fields(SyntheticSpec)}
    assert fields == SYNTHETIC_SPEC_DEFAULTS
    assert len(fields) == 11
