"""Error-contract fuzzing: malformed files and configs fail with an SfclError.

Each property feeds mutated or arbitrary input to one parser and accepts
either a result or an ``SfclError`` subclass; any other exception escapes
the CLI's error contract and fails the test. The runs are derandomized, so
tier-1 sees the same cases on every run.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcl.errors import SfclError
from sfcl.io import load_bbox_manifest, load_dataset_manifest, read_ppm
from sfcl.modelfile import load_model, save_model
from sfcl.runconfig import _SECTIONS, run_config_from_dict

FUZZ = settings(max_examples=100, derandomize=True, deadline=None, database=None)

PPM = b"P6\n3 2\n255\n" + bytes(range(0, 180, 10))


@st.composite
def _mutated(draw, blob: bytes):
    """blob with a few bytes overwritten, then maybe cut short or extended."""
    out = bytearray(blob)
    for pos, value in draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                              st.integers(0, 255)), max_size=6)):
        out[pos] = value
    cut = draw(st.none() | st.integers(0, len(out)))
    if cut is not None:
        del out[cut:]
    return bytes(out) + draw(st.binary(max_size=8))


_JSON_SCALARS = (st.none() | st.booleans() | st.sampled_from([0, 1])
                 | st.integers(-(1 << 70), 1 << 70)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
_JSON = st.recursive(_JSON_SCALARS,
                     lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                     max_leaves=12)


def _record(keys, **nested):
    """A JSON object with any subset of ``keys``, maybe one more, any values."""
    values = {k: nested.get(k, _JSON_SCALARS) | _JSON for k in keys}
    return st.fixed_dictionaries({}, optional=values) | st.dictionaries(
        st.sampled_from(keys) | st.text(max_size=4), _JSON, max_size=len(keys) + 1)


_BOX = _record(["x", "y", "w", "h"])
_MANIFESTS = st.lists(_record(["file", "label", "bbox"], bbox=_BOX)
                      | _record(["file", "x", "y", "w", "h"]) | _JSON, max_size=3) | _JSON

_CONFIG_KEYS = sorted({f.name for cls in _SECTIONS.values() for f in dataclasses.fields(cls)})
_CONFIG_DOCS = st.dictionaries(
    st.sampled_from(sorted(_SECTIONS)) | st.text(max_size=4),
    st.dictionaries(st.sampled_from(_CONFIG_KEYS) | st.text(max_size=4),
                    st.lists(_JSON_SCALARS, max_size=5) | _JSON_SCALARS, max_size=4)
    | _JSON_SCALARS,
    max_size=3)


def _only_sfcl_errors(parse, arg):
    try:
        parse(arg)
    except SfclError:
        pass


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def model_blob(fuzz_dir):
    """A valid two-tensor ``.sfcl`` file's bytes."""
    path = fuzz_dir / "seed.sfcl"
    save_model(path, {"a.w": np.arange(6, dtype=np.float32).reshape(2, 3),
                      "b": np.array([0.5, -1.0])})
    return path.read_bytes()


@FUZZ
@given(blob=_mutated(PPM))
def test_mutated_ppm(fuzz_dir, blob):
    path = fuzz_dir / "img.ppm"
    path.write_bytes(blob)
    _only_sfcl_errors(read_ppm, path)


@FUZZ
@given(data=st.data())
def test_mutated_model_file(fuzz_dir, model_blob, data):
    blob = data.draw(_mutated(model_blob))
    path = fuzz_dir / "model.sfcl"
    path.write_bytes(blob)
    _only_sfcl_errors(load_model, path)


@pytest.mark.parametrize("loader", [load_dataset_manifest, load_bbox_manifest])
def test_arbitrary_manifest_json(fuzz_dir, loader):
    @FUZZ
    @given(doc=_MANIFESTS)
    def check(doc):
        path = fuzz_dir / "manifest.json"
        path.write_text(json.dumps(doc))
        _only_sfcl_errors(loader, path)

    check()


@FUZZ
@given(doc=_CONFIG_DOCS)
def test_arbitrary_config_document(doc):
    _only_sfcl_errors(run_config_from_dict, doc)
