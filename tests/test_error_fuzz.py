"""Error-contract fuzzing: malformed files and configs fail with an SfclError.

Each property feeds mutated or arbitrary input to one parser and accepts
either a result or an ``SfclError`` subclass; any other exception escapes
the CLI's error contract and fails the test. The last property runs whole
CLI commands and checks their exit codes and error line. The runs are
derandomized, so tier-1 sees the same cases on every run.
"""

import argparse
import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sfcl import cli
from sfcl.errors import SfclError
from sfcl.io import load_bbox_manifest, load_dataset_manifest, read_ppm
from sfcl.modelfile import load_model, save_model
from sfcl.runconfig import _SECTIONS, run_config_from_dict
from sfcl.synth import SynthConfig, synth_generate

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


# -- the CLI as a whole ---------------------------------------------------------

_SUBPARSERS = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
# gradcheck's stage checks take seconds each and test numerics, not arguments
_QUICK_MODULES = ["classifier", "e2e", "gate", "hcma"]
_TINY_CONFIG = {
    "backbone": {"widths": [4, 6, 8, 10], "output_dim": 16},
    "sbcm": {"widths": [6, 8]},
    "cnnf": {"widths": [8, 8, 16], "strides": [2, 2, 1]},
    "faae": {"attn_dim": 8},
    "hcma": {"embed_dim": 32, "heads": 2, "tokens": 4},
    "train": {"epochs": 1, "batch_size": 4},
    "synth": {"count": 2, "height": 16, "width": 16},
}


@pytest.fixture(scope="module")
def cli_files(fuzz_dir):
    """Input paths, good and bad, and the output paths the CLI may write."""
    root = fuzz_dir / "cli"
    data = root / "data"
    synth_generate(SynthConfig(count=2, height=16, width=16, seed=1), out_dir=str(data))
    config = root / "tiny.json"
    config.write_text(json.dumps(_TINY_CONFIG))
    bad_config = root / "bad.json"
    bad_config.write_text('{"train": {"epochs": 1,')
    model = root / "model.sfcl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["train", "--config", str(config), "--data", str(data),
                         "--out", str(model)]) == 0
    image = sorted(data.glob("*.ppm"))[0]
    bboxes = root / "bboxes.json"
    bboxes.write_text(json.dumps([{"file": image.name, "x": 0, "y": 0, "w": 8, "h": 8}]))
    inputs = [str(p) for p in (data, data / "manifest.json", image, model, config, bad_config,
                               root / "missing", root / "missing.json")]
    out_dir = root / "out"
    out_dir.mkdir()
    outputs = [str(p) for p in (out_dir / "a", out_dir / "b.csv", out_dir,
                                root / "missing" / "a")]
    good = {"data": data, "images": data, "real": data, "fake": data, "image": image,
            "model": model, "manifest": data / "manifest.json", "bboxes": bboxes, "config": config,
            "count": 2, "size": 16, "seed": 1, "init_seed": 1, "band": 5, "bbox": "0,0,8,8"}
    return {"config": str(config), "inputs": inputs, "outputs": outputs,
            "good": {k: str(v) for k, v in good.items()}}


@st.composite
def _cli_args(draw, files):
    """A subcommand and a shuffled subset of its own options, with good and junk values."""
    name = draw(st.sampled_from(sorted(_SUBPARSERS)))
    junk = ["-1", "-0.5", "-7", "0", "1", "16", "x", ""]
    groups = []
    for action in _SUBPARSERS[name]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if name in ("train", "eval") and action.dest == "config":
            continue
        keep = draw(st.integers(0, 4)) > 0 if action.required else draw(st.booleans())
        if not keep:
            continue
        if action.nargs == 0:
            groups.append([action.option_strings[0]])
            continue
        if action.dest in ("out", "log"):
            values = st.sampled_from(files["outputs"])
        else:
            choices = _QUICK_MODULES if action.dest == "module" else list(action.choices or [])
            fits = choices or [files["good"][action.dest]]
            values = st.sampled_from(fits) | st.sampled_from(junk + files["inputs"])
        groups.append([action.option_strings[0], draw(values)])
    argv = [name] + [arg for group in draw(st.permutations(groups)) for arg in group]
    if name in ("train", "eval"):  # never the full-scale model
        argv += ["--config", files["config"]]
    return argv


@settings(FUZZ, max_examples=120)
@given(data=st.data())
def test_cli_exit_codes_and_error_line(cli_files, data):
    argv = data.draw(_cli_args(cli_files), label="argv")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0]), dict)
