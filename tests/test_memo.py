"""The one memo (``contact._each``, with ``MetricStructure.cached`` its stack-of-one
case) keeps every array of every entry read-only, directly or inside a tuple or
record, on every structure that a CLI run builds."""

import traceback

import numpy as np
import pytest

from kmgeom import cli, contact, modelfile
from kmgeom.catalog import family_3d, nilpotent_h_5d
from kmgeom.errors import NotNullity


def _arrays(value) -> list:
    """Every array that ``value`` holds, directly or inside a tuple or record, and the
    array that each view looks into (a view of a writeable base can be made writeable)."""
    if isinstance(value, np.ndarray):
        return [value, *_arrays(value.base)]
    if isinstance(value, tuple):
        return [arr for item in value for arr in _arrays(item)]
    return []


@pytest.mark.parametrize(
    "entry, argv, keys",
    [
        (family_3d(1.0, 2.0), ["analyze", "--sasakian", "--legendre3"],
         {"levi_civita", "nullity", "nabla_phi", "nijenhuis_tensor", "contact_basis",
          "eigendistributions", "canonical_pair"}),
        (family_3d(1.0, 0.5), ["derive", "--steps", "6"],
         {"levi_civita", "nullity", "nijenhuis_tensor", "contact_basis", "eigendistributions"}),
        (nilpotent_h_5d(), ["analyze"],
         {"levi_civita", "nullity", "nabla_phi", "nijenhuis_tensor", "contact_basis",
          "canonical_pc_connection", "integrability_and_parasasaki"}),
    ],
    ids=["class-I-analyze", "class-II-derive", "nilpotent-h-5d-analyze"],
)
def test_every_kept_array_is_read_only(tmp_path, capsys, monkeypatch, entry, argv, keys):
    built = []
    init = contact.MetricStructure.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(contact.MetricStructure, "__init__", recording_init)
    path = tmp_path / "model.json"
    path.write_text(modelfile.dumps_entry(entry))
    assert cli.main([argv[0], str(path), *argv[1:]]) == 0
    capsys.readouterr()
    entries = [(key, value) for s in built for key, value in s._cache.items()]
    assert keys <= {key if isinstance(key, str) else key[0] for key, _ in entries}
    kept = [arr for _, value in entries for arr in _arrays(value)]
    assert kept and not [arr for arr in kept if arr.flags.writeable]


def test_the_first_raise_of_a_kept_error_carries_the_builders_frames():
    # the memo keeps a copy without frames; the first caller gets the error as raised
    s = family_3d(1.0, 2.0).structure

    def build():
        raise NotNullity("no nullity condition", 0.5)

    with pytest.raises(NotNullity) as first:
        s.cached("kept-error", build)
    assert "build" in [frame.name for frame in traceback.extract_tb(first.value.__traceback__)]
    with pytest.raises(NotNullity) as later:
        s.cached("kept-error", build)
    assert "build" not in [frame.name for frame in traceback.extract_tb(later.value.__traceback__)]
