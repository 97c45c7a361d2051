"""Exported names: every ``__all__`` entry resolves, and ``conformal.__all__``
lists exactly the public classes and functions the module defines.  Source
checks: one module owns the eigenframe kernel, the mesh kernels have one
owner each, and retired knobs stay gone."""

import inspect
import re
from pathlib import Path

import pytest

import varifoldlab
from varifoldlab import conformal


@pytest.mark.parametrize("module", [varifoldlab, conformal], ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_conformal_exports_exactly_its_public_definitions():
    public = {
        name
        for name, obj in vars(conformal).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == conformal.__name__
    }
    assert sorted(conformal.__all__) == sorted(public)


def _modules_matching(pattern):
    src = Path(varifoldlab.__file__).parent
    return sorted(path.name for path in src.glob("*.py") if re.search(pattern, path.read_text()))


def test_eigh_is_called_only_by_the_geometry_kernel():
    """Every principal frame comes from `geometry._principal_frames`; a second
    eigendecomposition elsewhere would copy its order, rank and sign rules."""
    assert _modules_matching(r"\beigh\b") == ["geometry.py"]


def test_mesh_kernels_have_one_owner():
    """Face values reach vertices through `meshing.vertex_sums` and wedge
    norms come from `meshing._wedge_norms`, in any dimension; the one
    `np.cross` left builds the R^3 frames of `geometry.complement_frame`."""
    assert _modules_matching(r"np\.add\.at") == []
    assert _modules_matching(r"np\.cross") == ["geometry.py"]


@pytest.mark.parametrize(
    "name",
    ["dyadic_squares", "bmo_norm", "a2_constant", "inverse_holder_max", "conformal_diagnostics"],
)
def test_dyadic_depth_is_a_module_constant(name):
    """Dyadic statistics run to `conformal.DYADIC_DEPTH`; no call sets a depth."""
    assert "depth" not in inspect.signature(getattr(conformal, name)).parameters
