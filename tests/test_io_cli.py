"""File formats, strict config parsing, and the CLI contract."""

import dataclasses
import hashlib
import json
import os
import struct
import tracemalloc
import types
import warnings

import numpy as np
import pytest

import sfcl
from sfcl import cli, runconfig, sida
from sfcl.errors import ConfigError, FormatError, InputError, UsageError
from sfcl.frequency import PlanarImage
from sfcl.io import (descriptor_csv_rows, format_cell, load_bbox_manifest,
                     load_dataset_manifest, read_ppm, write_csv, write_ppm)
from sfcl.model import DetectorConfig
from sfcl.modelfile import load_model, save_model
from sfcl.runconfig import load_run_config, run_config_from_dict
from sfcl.sida import MODES, SidaDescriptor, sida_from_image
from sfcl.synth import SynthConfig, synth_generate


class TestPpm:
    def test_round_trip(self, tmp_path, rng):
        px = np.round(rng.uniform(0, 255, (3, 10, 14)))
        path = tmp_path / "img.ppm"
        write_ppm(path, PlanarImage(px, "rgb"))
        back = read_ppm(path)
        assert back.color_space == "rgb"
        assert np.array_equal(back.pixels, px)
        assert back.pixels.dtype == np.uint8  # the file's samples, not 8-byte floats
        assert back.pixels.flags.c_contiguous  # planar, not the file's interleaved order

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(InputError):
            read_ppm(path)

    def test_truncated_pixels(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(InputError, match="expected 12 pixel bytes, found 5"):
            read_ppm(path)

    def test_pixel_bytes_copied_once(self, tmp_path, rng):
        # the file's bytes and the planar array, no third copy of the pixels
        path = tmp_path / "big.ppm"
        write_ppm(path, PlanarImage(rng.integers(0, 256, (3, 512, 512), dtype=np.uint8), "rgb"))
        tracemalloc.start()
        try:
            img = read_ppm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= os.path.getsize(path) + img.pixels.nbytes + 4096

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
        with pytest.raises(InputError):
            read_ppm(path)

    @pytest.mark.parametrize("dims", [b"-1 -1", b"0 2", b"2 0"])
    def test_non_positive_dims(self, tmp_path, dims):
        path = tmp_path / "neg.ppm"
        path.write_bytes(b"P6 " + dims + b" 255\nabc")
        with pytest.raises(InputError, match="at least 1"):
            read_ppm(path)

    @pytest.mark.parametrize("dims", [b"1_0 1", b"+2 1"], ids=["underscore", "plus"])
    def test_header_fields_are_plain_digits(self, tmp_path, dims):
        # int() reads these as 10 and 2
        path = tmp_path / "sign.ppm"
        path.write_bytes(b"P6 " + dims + b" 255\n" + b"\x00" * 30)
        with pytest.raises(InputError, match="non-numeric"):
            read_ppm(path)

    def test_single_whitespace_after_maxval(self, tmp_path):
        # one whitespace byte after maxval belongs to the header, the rest is data
        path = tmp_path / "exact.ppm"
        path.write_bytes(b"P6 1 1 255\n\x01\x02\x03")
        img = read_ppm(path)
        assert np.array_equal(img.pixels[:, 0, 0], [1, 2, 3])


class TestManifests:
    def test_bbox_manifest(self, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps([{"file": "a.ppm", "x": 1, "y": 2, "w": 16, "h": 24}]))
        boxes = load_bbox_manifest(path)
        assert boxes["a.ppm"].w == 16

    def test_bbox_manifest_unknown_key(self, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps([{"file": "a.ppm", "x": 1, "y": 2, "w": 3, "h": 4,
                                     "score": 0.9}]))
        with pytest.raises(InputError, match="score"):
            load_bbox_manifest(path)

    def test_bbox_manifest_file_listed_twice(self, tmp_path):
        path = tmp_path / "boxes.json"
        box = {"file": "a.ppm", "x": 1, "y": 2, "w": 16, "h": 24}
        path.write_text(json.dumps([box, dict(box, x=5)]))
        with pytest.raises(InputError, match=r"boxes.json\[1\]: file 'a.ppm' already has a box"):
            load_bbox_manifest(path)

    def test_dataset_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([
            {"file": "r.ppm", "label": 0},
            {"file": "f.ppm", "label": 1, "bbox": {"x": 0, "y": 0, "w": 16, "h": 16}},
        ]))
        records = load_dataset_manifest(path)
        assert records[0] == ("r.ppm", 0, None)
        assert records[1][2].w == 16

    def test_dataset_manifest_bad_label(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"file": "x.ppm", "label": 2}]))
        with pytest.raises(InputError):
            load_dataset_manifest(path)

    @pytest.mark.parametrize("label", [True, 0.0], ids=["bool", "float"])
    def test_dataset_manifest_non_integer_label(self, tmp_path, label):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"file": "a.ppm", "label": 1},
                                    {"file": "b.ppm", "label": label}]))
        with pytest.raises(InputError, match=r"manifest.json\[1\]: label"):
            load_dataset_manifest(path)

    @pytest.mark.parametrize("loader", [load_bbox_manifest, load_dataset_manifest])
    def test_invalid_json(self, tmp_path, loader):
        path = tmp_path / "manifest.json"
        path.write_text('[{"file": "a.ppm",')
        with pytest.raises(InputError, match="not valid JSON"):
            loader(path)

    @pytest.mark.parametrize("loader", [load_bbox_manifest, load_dataset_manifest])
    def test_non_object_record(self, tmp_path, loader):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([7]))
        with pytest.raises(InputError, match=r"manifest.json\[0\]"):
            loader(path)

    @pytest.mark.parametrize("loader, record", [
        (load_bbox_manifest, {"file": ["a.ppm"], "x": 0, "y": 0, "w": 16, "h": 16}),
        (load_dataset_manifest, {"file": 5, "label": 1}),
    ])
    def test_non_string_file(self, tmp_path, loader, record):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([record]))
        with pytest.raises(InputError, match="file must be a string"):
            loader(path)

    def test_bbox_manifest_non_integer_field(self, tmp_path):
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps([{"file": "a.ppm", "x": "left", "y": 0, "w": 16, "h": 16}]))
        with pytest.raises(InputError, match=r"boxes.json\[0\]: x"):
            load_bbox_manifest(path)

    def test_dataset_manifest_non_integer_bbox_field(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps([{"file": "a.ppm", "label": 1,
                                     "bbox": {"x": 0, "y": 0, "w": [16], "h": 16}}]))
        with pytest.raises(InputError, match=r"manifest.json\[0\].bbox: w"):
            load_dataset_manifest(path)


class TestModelFile:
    def test_save_load_save_byte_identical(self, tmp_path, rng):
        arrays = {
            "a.w": rng.standard_normal((3, 4)).astype(np.float32),
            "b.gamma": rng.standard_normal(7),
            "scalar": np.array(0.5, dtype=np.float64),
        }
        p1, p2 = tmp_path / "m1.sfcl", tmp_path / "m2.sfcl"
        save_model(p1, arrays)
        loaded = load_model(p1)
        assert list(loaded) == list(arrays)
        for k in arrays:
            assert np.array_equal(loaded[k], arrays[k])
            assert loaded[k].dtype == arrays[k].dtype
        save_model(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.sfcl"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v9.sfcl"
        path.write_bytes(b"SFCL" + (9).to_bytes(4, "little") + (0).to_bytes(4, "little"))
        with pytest.raises(FormatError):
            load_model(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "trunc.sfcl"
        save_model(path, {"w": rng.standard_normal(8)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-6])
        with pytest.raises(FormatError):
            load_model(path)

    def test_failed_save_keeps_existing_file(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "m.sfcl"
        save_model(path, {"w": rng.standard_normal(8)})
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            save_model(path, {"w": rng.standard_normal(16)})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.sfcl"]

    def test_non_float_rejected(self, tmp_path):
        with pytest.raises(UsageError):
            save_model(tmp_path / "i.sfcl", {"idx": np.arange(3)})

    def test_non_utf8_name(self, tmp_path):
        path = tmp_path / "name.sfcl"
        path.write_bytes(_model_header(1) + struct.pack("<H", 2) + b"\xff\xfe"
                         + struct.pack("<BB", 0, 0) + b"\x00" * 4)
        with pytest.raises(FormatError, match="UTF-8"):
            load_model(path)

    def test_repeated_name(self, tmp_path):
        # two one-element float32 tensors, both named "w"
        entry = struct.pack("<H", 1) + b"w" + struct.pack("<BBI", 0, 1, 1) + b"\x00" * 4
        path = tmp_path / "twice.sfcl"
        path.write_bytes(_model_header(2) + entry + entry)
        with pytest.raises(FormatError, match="tensor 'w' appears twice"):
            load_model(path)

    def test_overflowing_dims(self, tmp_path):
        path = tmp_path / "dims.sfcl"
        path.write_bytes(_model_header(1) + struct.pack("<H", 1) + b"w"
                         + struct.pack("<BB", 0, 4) + struct.pack("<4I", *[0xFFFFFFFF] * 4))
        with pytest.raises(FormatError, match="truncated"):
            load_model(path)


def _model_header(count):
    return b"SFCL" + struct.pack("<II", 1, count)


class TestRunConfig:
    def test_defaults(self):
        run = load_run_config(None)
        assert run.detector == DetectorConfig()
        assert run.detector.hcma.embed_dim == 1024
        assert run.train.batch_size == 20

    @pytest.mark.parametrize("blob", [b'{"train": {"epochs": 1,', b"P6\n2 2\n255\n\xff\xfe"],
                             ids=["cut_json", "not_utf8"])
    def test_unreadable_file_is_usage_error(self, tmp_path, blob):
        path = tmp_path / "c.json"
        path.write_bytes(blob)
        with pytest.raises(UsageError, match="invalid JSON"):
            load_run_config(str(path))

    def test_unknown_top_key(self):
        with pytest.raises(UsageError, match="optimizer"):
            run_config_from_dict({"optimizer": {}})

    def test_misspelled_section_key_names_it(self):
        with pytest.raises(UsageError, match="sbcm.kernals"):
            run_config_from_dict({"sbcm": {"kernals": [7, 5, 3]}})

    def test_wrong_value_type_names_key_and_type(self):
        with pytest.raises(UsageError, match=r"train\.epochs.*int"):
            run_config_from_dict({"train": {"epochs": "ten"}})
        with pytest.raises(UsageError, match=r"train\.batch_size.*int"):
            run_config_from_dict({"train": {"batch_size": True}})
        with pytest.raises(UsageError, match=r"sbcm\.widths\[1\].*int"):
            run_config_from_dict({"sbcm": {"widths": [16, "32"]}})
        with pytest.raises(UsageError, match=r"sbcm\.widths.*list"):
            run_config_from_dict({"sbcm": {"widths": 16}})

    def test_int_accepted_for_float(self):
        run = run_config_from_dict({"train": {"learning_rate": 1}})
        assert run.train.learning_rate == 1.0 and isinstance(run.train.learning_rate, float)

    def test_section_values_applied(self):
        run = run_config_from_dict({"train": {"epochs": 3, "batch_size": 4},
                                    "hcma": {"embed_dim": 64, "heads": 4, "tokens": 4}})
        assert run.train.epochs == 3
        assert run.detector.hcma.token_dim == 16

    @pytest.mark.parametrize("section, key, value", [
        ("hcma", "heads", 0), ("cnnf", "widths", [256, 0, 2048]), ("sbcm", "widths", [-16, 32]),
        ("train", "seed", -1), ("train", "weight_decay", -1e-8), ("train", "epochs", -3),
        ("train", "learning_rate", float("inf")), ("synth", "grain", float("-inf")),
        ("synth", "count", 0)])
    def test_numbers_outside_the_range_rule(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"'{section}\.{key}(\[\d\])?' must be finite"):
            run_config_from_dict({section: {key: value}})

    def test_zero_where_the_range_rule_allows_it(self):
        run = run_config_from_dict({"train": {"seed": 0, "learning_rate": 0, "weight_decay": 0},
                                    "synth": {"seed": 0, "grain": 0, "smooth_passes": 0}})
        assert run.train.learning_rate == run.train.weight_decay == 0.0 and run.synth.smooth_passes == 0

    @pytest.mark.parametrize("section, key, value", [
        ("backbone", "output_dim", 1 << 40), ("hcma", "embed_dim", 1 << 40),
        ("cnnf", "widths", [256, 728, 8193]), ("sbcm", "widths", [16, 10 ** 6]),
        ("backbone", "widths", [32, 48, 8193, 128]), ("backbone", "widths", [32, 48, 64, 8193]),
        ("faae", "attn_dim", 8193)])
    def test_widths_above_the_maximum(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"'{section}\.{key}(\[\d\])?' must be <= 8192"):
            run_config_from_dict({section: {key: value}})

    def test_widths_at_the_maximum_load(self):
        run = run_config_from_dict({"backbone": {"output_dim": 8192},
                                    "hcma": {"embed_dim": 8192}, "faae": {"attn_dim": 8192}})
        assert run.detector.backbone.output_dim == run.detector.hcma.embed_dim == 8192

    @pytest.mark.parametrize("section, key", [
        ("faae", "spatial_channels"), ("faae", "freq_channels"),
        ("hcma", "spatial_dim"), ("hcma", "freq_dim"), ("sbcm", "batchnorm"),
        ("sbcm", "kernels"), ("sbcm", "strides"), ("cnnf", "strides"), ("faae", "zero_init_out")])
    def test_derived_and_removed_keys_are_unknown(self, section, key):
        with pytest.raises(UsageError, match=rf"unknown config key '{section}\.{key}'"):
            run_config_from_dict({section: {key: 1}})


class TestConfigKeys:
    """Every JSON key each config section accepts; a change here changes the file format."""

    KEYS = {
        "sbcm": ["widths"],
        "cnnf": ["widths"],
        "backbone": ["widths", "output_dim"],
        "faae": ["attn_dim"],
        "hcma": ["embed_dim", "heads", "tokens"],
        "train": ["learning_rate", "weight_decay", "batch_size", "epochs", "seed"],
        "synth": ["count", "height", "width", "seed", "recipe", "grain", "smooth_passes"],
    }

    def test_section_keys_match_snapshot(self):
        got = {name: [f.name for f in dataclasses.fields(cls)]
               for name, cls in runconfig._SECTIONS.items()}
        assert got == self.KEYS
        assert sum(map(len, got.values())) == 20

    def test_every_key_loads_into_its_section(self):
        for name, cls in runconfig._SECTIONS.items():
            doc = {k: list(v) if isinstance(v, tuple) else v
                   for k, v in dataclasses.asdict(cls()).items()}
            run = run_config_from_dict({name: doc})
            owner = run if name in ("train", "synth") else run.detector
            assert getattr(owner, name) == cls()


class TestPublicNames:
    """Every name ``import sfcl`` exports; a change here changes the public API."""

    NAMES = [
        "Adam", "BackboneConfig", "BlockSpectra", "BoundingBox", "Classifier", "CnnF",
        "CnnfConfig", "ConfigError", "DESCRIPTOR_LENGTH", "Detector", "DetectorConfig",
        "Faae", "FaaeConfig", "FormatError", "FrontendBatch", "Hcma", "HcmaConfig",
        "InputError", "NumericError", "PlanarImage", "RunConfig", "Sample", "Sbcm",
        "SbcmConfig", "SfclError", "ShapeError", "SidaDescriptor", "SpatialBackbone",
        "SynthConfig", "Tensor", "TrainConfig", "UsageError", "adam_step",
        "assemble_descriptor", "backward", "bce_loss", "crop_to_grid", "evaluate",
        "extract_frontend", "flatten_bands", "grad_check", "load_model", "load_run_config",
        "make_pair", "metric_accuracy", "metric_auc", "moment_stats", "reconstruct",
        "restructure", "run_config_from_dict", "save_model", "sida_descriptor",
        "sida_from_image", "synth_generate", "train",
    ]

    def test_exports_match_snapshot(self):
        # submodules become attributes as they are imported, so they are not counted
        got = sorted(name for name, value in vars(sfcl).items()
                     if not name.startswith("_") and not isinstance(value, types.ModuleType))
        assert got == self.NAMES
        assert len(got) == 55


# The desk profile as README gave it before the width lists dropped their
# built-in entries and the backbone's two lists merged, and as it gave it
# before the CNN-F strides became a constant.
OLD_DESK_CONFIG = {
    "backbone": {"stem_widths": [3, 16, 24, 32], "deep_widths": [32, 48], "output_dim": 256},
    "sbcm": {"widths": [3, 8, 16, 64]},
    "cnnf": {"widths": [192, 64, 128, 256], "strides": [2, 2, 1]},
    "faae": {"attn_dim": 32},
    "hcma": {"embed_dim": 256, "heads": 8, "tokens": 8},
    "train": {"epochs": 10, "batch_size": 20, "seed": 2},
}
STRIDES_DESK_CONFIG = {
    "backbone": {"widths": [16, 24, 32, 48], "output_dim": 256},
    "sbcm": {"widths": [8, 16]},
    "cnnf": {"widths": [64, 128, 256], "strides": [2, 2, 1]},
    "faae": {"attn_dim": 32},
    "hcma": {"embed_dim": 256, "heads": 8, "tokens": 8},
    "train": {"epochs": 10, "batch_size": 20, "seed": 2},
}


def _tiny_config(tmp_path):
    doc = {
        "backbone": {"widths": [4, 6, 8, 10], "output_dim": 16},
        "sbcm": {"widths": [6, 8]},
        "cnnf": {"widths": [8, 8, 16]},
        "faae": {"attn_dim": 8},
        "hcma": {"embed_dim": 32, "heads": 2, "tokens": 4},
        "train": {"epochs": 1, "batch_size": 4, "seed": 3},
        "synth": {"count": 4, "height": 16, "width": 16, "seed": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCli:
    def test_dataset_synth_then_train_eval(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path)
        data = str(tmp_path / "data")
        assert cli.main(["dataset-synth", "--out", data, "--config", cfg]) == 0
        assert os.path.isfile(os.path.join(data, "manifest.json"))

        model = str(tmp_path / "model.sfcl")
        logp = str(tmp_path / "log.jsonl")
        assert cli.main(["train", "--config", cfg, "--data", data,
                         "--out", model, "--log", logp]) == 0
        lines = [json.loads(l) for l in open(logp)]
        assert lines and set(lines[0]) == {"epoch", "loss", "acc"}

        assert cli.main(["eval", "--config", cfg, "--data", data, "--model", model]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert {"samples", "acc", "auc"} <= set(out)

    def test_train_same_seed_identical_hashes(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path)
        data = str(tmp_path / "data")
        cli.main(["dataset-synth", "--out", data, "--config", cfg])
        digests = []
        for name in ("m1.sfcl", "m2.sfcl"):
            target = tmp_path / name
            assert cli.main(["train", "--config", cfg, "--data", data,
                             "--out", str(target)]) == 0
            digests.append(hashlib.sha256(target.read_bytes()).hexdigest())
        capsys.readouterr()
        assert digests[0] == digests[1]

    def test_features_sida_column_counts(self, tmp_path, capsys):
        data = str(tmp_path / "imgs")
        samples = synth_generate(SynthConfig(count=2, height=16, width=16, seed=1),
                                 out_dir=data)
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps(
            [{"file": s.file, "x": 0, "y": 0, "w": 16, "h": 16} for s in samples]))
        csv_plain = str(tmp_path / "d.csv")
        assert cli.main(["features-sida", "--images", data, "--bboxes", str(boxes),
                         "--out", csv_plain]) == 0
        header = open(csv_plain).readline().rstrip("\n").split(",")
        assert len(header) == 2305  # file + 2304 bands
        csv_labeled = str(tmp_path / "dl.csv")
        assert cli.main(["features-sida", "--images", data,
                         "--manifest", os.path.join(data, "manifest.json"),
                         "--out", csv_labeled]) == 0
        header = open(csv_labeled).readline().rstrip("\n").split(",")
        assert len(header) == 2306  # file + label + 2304 bands
        capsys.readouterr()

    def test_features_sida_refuses_bboxes_with_manifest(self, tmp_path, capsys):
        data = str(tmp_path / "imgs")
        samples = synth_generate(SynthConfig(count=2, height=16, width=16, seed=1),
                                 out_dir=data)
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps(
            [{"file": s.file, "x": 0, "y": 0, "w": 8, "h": 8} for s in samples]))
        out = tmp_path / "d.csv"
        capsys.readouterr()
        code = cli.main(["features-sida", "--images", data, "--bboxes", str(boxes),
                         "--manifest", os.path.join(data, "manifest.json"), "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "UsageError" and "--bboxes or --manifest" in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["features-sida", "extract-spectra"])
    @pytest.mark.parametrize("case", ["typo", "twice"])
    def test_bboxes_entry_that_boxes_no_image_refused(self, tmp_path, capsys, command, case):
        data = str(tmp_path / "imgs")
        samples = synth_generate(SynthConfig(count=2, height=16, width=16, seed=1),
                                 out_dir=data)
        name = samples[0].file
        boxes = [{"file": s.file, "x": 0, "y": 0, "w": 8, "h": 8} for s in samples]
        if case == "typo":  # a name one letter short matches no image
            boxes[0]["file"], want = name[1:], name[1:]
        else:  # the second box for one file would silently replace the first
            boxes.append({"file": name, "x": 8, "y": 8, "w": 8, "h": 8})
            want = "already has a box"
        path = tmp_path / "boxes.json"
        path.write_text(json.dumps(boxes))
        out = tmp_path / "out"
        capsys.readouterr()
        assert cli.main([command, "--images", data, "--bboxes", str(path), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "InputError" and want in err["message"]
        assert not out.exists()

    def test_bboxes_may_name_a_sibling_of_a_single_image(self, tmp_path, capsys):
        data = tmp_path / "imgs"
        samples = synth_generate(SynthConfig(count=2, height=16, width=16, seed=1),
                                 out_dir=str(data))
        boxes = tmp_path / "boxes.json"
        boxes.write_text(json.dumps(
            [{"file": s.file, "x": 0, "y": 0, "w": 16, "h": 16} for s in samples]))
        out = tmp_path / "d.csv"
        assert cli.main(["features-sida", "--images", str(data / samples[0].file),
                         "--bboxes", str(boxes), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2  # header + the one image
        capsys.readouterr()

    def test_export_heatmap_constant_image(self, tmp_path, capsys):
        img = tmp_path / "gray.ppm"
        write_ppm(img, PlanarImage(np.full((3, 24, 32), 128.0), "rgb"))
        out = tmp_path / "heat.csv"
        assert cli.main(["export-heatmap", "--image", str(img), "--band", "5",
                         "--channel", "Y", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == 3 and len(rows[0]) == 4  # (H/8) x (W/8)
        assert all(float(v) == 0.0 for row in rows for v in row)
        capsys.readouterr()

    @pytest.mark.parametrize("channel", ["Y", "Cb", "Cr"])
    def test_export_heatmap_matches_core_path_exactly(self, tmp_path, capsys, rng, monkeypatch,
                                                      channel):
        """The whole 11x9-block image and a 9x7-block box, in strips sized
        for 2 rows of 7 block columns (1 row of the whole image's 9), the
        box's last strip partial: each matrix equals restructure's, and no
        channel after the printed one is formed."""
        from sfcl import frequency as fq
        from sfcl.frequency import BoundingBox, restructure
        img = tmp_path / "noise.ppm"
        write_ppm(img, PlanarImage(np.round(rng.uniform(0, 255, (3, 88, 72))), "rgb"))
        monkeypatch.setattr(fq, "_BLOCK_STRIP_BYTES", 2 * 3 * 7 * fq.BANDS * 8)
        formed, kernel = [], fq._strip_spectra

        def counted(ch, *args):
            formed.append(ch)
            kernel(ch, *args)

        ch = fq.CHANNEL_NAMES.index(channel)
        cases = [(None, 11), (BoundingBox(5, 3, 60, 78), 5)]
        wants = [np.abs(restructure(read_ppm(img), box).coefficients[ch, 7]) for box, _ in cases]
        monkeypatch.setattr(fq, "_strip_spectra", counted)
        for (box, strips), want in zip(cases, wants):
            formed.clear()
            out = tmp_path / "heat.csv"
            bbox = ["--bbox", f"{box.x},{box.y},{box.w},{box.h}"] if box else []
            assert cli.main(["export-heatmap", "--image", str(img), "--band", "7",
                             "--channel", channel, "--out", str(out)] + bbox) == 0
            assert formed == [c for c in range(ch + 1) for _ in range(strips)]
            got = np.array([[float(v) for v in line.split(",")]
                            for line in out.read_text().splitlines()])
            assert np.array_equal(got, want)  # repr round-trips doubles exactly
        assert wants[1].shape == (9, 7)
        capsys.readouterr()

    def test_export_heatmap_band_range(self, tmp_path):
        img = tmp_path / "gray.ppm"
        write_ppm(img, PlanarImage(np.full((3, 16, 16), 128.0), "rgb"))
        assert cli.main(["export-heatmap", "--image", str(img), "--band", "64",
                         "--out", str(tmp_path / "x.csv")]) == 1

    def test_export_heatmap_unknown_channel(self, tmp_path, capsys):
        img = tmp_path / "gray.ppm"
        write_ppm(img, PlanarImage(np.full((3, 16, 16), 128.0), "rgb"))
        assert cli.main(["export-heatmap", "--image", str(img), "--band", "5",
                         "--channel", "Cg", "--out", str(tmp_path / "x.csv")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "UsageError" and "'Cg'" in err["message"]
        assert not (tmp_path / "x.csv").exists()

    def test_export_sida_plot_identical_sets(self, tmp_path, capsys):
        data = str(tmp_path / "set")
        synth_generate(SynthConfig(count=2, height=16, width=16, seed=8), out_dir=data)
        out = tmp_path / "plot.csv"
        assert cli.main(["export-sida-plot", "--real", data, "--fake", data,
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,real_mean,fake_mean,diff"
        assert len(lines) == 193
        assert all(float(line.split(",")[3]) == 0.0 for line in lines[1:])
        descriptors = [sida_from_image(read_ppm(os.path.join(data, name))).values
                       for name in sorted(os.listdir(data)) if name.endswith(".ppm")]
        want = [np.mean([d[SidaDescriptor.position("mean", mode, 0, band)]
                         for d in descriptors])
                for mode in MODES for band in range(64)]
        assert [float(line.split(",")[1]) for line in lines[1:]] == want
        capsys.readouterr()

    def test_gradcheck_exit_code(self, capsys):
        assert cli.main(["gradcheck", "--module", "hcma", "--seed", "7"]) == 0
        out = json.loads(capsys.readouterr().out.strip())
        assert out["max_rel_err"] < out["tolerance"]

    @pytest.mark.parametrize("argv", [
        ["dataset-synth", "--out", "{tmp}/d", "--seed", "-1"],
        ["train", "--data", "{tmp}/d", "--out", "{tmp}/m.sfcl", "--init-seed", "-1"],
        ["gradcheck", "--module", "hcma", "--seed", "-1"],
        ["gradcheck", "--module", "hcma", "--seed", "x"],
    ], ids=["dataset-synth", "train", "gradcheck", "gradcheck_not_int"])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, argv):
        code = cli.main([a.format(tmp=tmp_path) for a in argv])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "UsageError"
        assert "seed" in err["message"] and "non-negative integer" in err["message"]
        assert not os.listdir(tmp_path)

    def test_eval_takes_no_init_seed(self, tmp_path, capsys):
        # eval loads every parameter from the model file, so no init seed reaches it
        code = cli.main(["eval", "--data", str(tmp_path / "d"), "--model", str(tmp_path / "m.sfcl"),
                         "--init-seed", "1"])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "unrecognized arguments: --init-seed 1" in json.loads(lines[0])["message"]

    def test_gradcheck_wrong_backward_exits_3(self, capsys, skewed_sigmoid):
        assert cli.main(["gradcheck", "--module", "gate"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "numeric" and "gradcheck gate" in err["message"]

    def test_train_one_image_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "data"
        synth_generate(SynthConfig(count=1, height=16, width=16, seed=1), out_dir=str(data))
        manifest = data / "manifest.json"
        manifest.write_text(json.dumps(json.loads(manifest.read_text())[:1]))
        capsys.readouterr()
        code = cli.main(["train", "--data", str(data), "--out", str(tmp_path / "m.sfcl")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "ConfigError" and "at least 2 samples" in err["message"]
        assert not (tmp_path / "m.sfcl").exists()

    def test_gradcheck_unknown_module(self, capsys):
        assert cli.main(["gradcheck", "--module", "nonexistent"]) == 1
        capsys.readouterr()

    def test_unknown_flag_suggestion(self, tmp_path, capsys):
        code = cli.main(["dataset-synth", "--out", str(tmp_path / "d"), "--cout", "2"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "usage"
        assert "--count" in err["message"]

    def test_refused_allocation_is_input_error(self, tmp_path, capsys):
        # numpy refuses a 6.94 EiB array at once, so nothing is allocated
        code = cli.main(["dataset-synth", "--out", str(tmp_path / "d"), "--count", "1",
                         "--size", "1000000000"])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "input" and "allocate" in err["message"]

    def test_missing_data_dir_is_input_error(self, tmp_path, capsys):
        code = cli.main(["eval", "--config", _tiny_config(tmp_path),
                         "--data", str(tmp_path / "nope"),
                         "--model", str(tmp_path / "nope.sfcl")])
        assert code == 2
        capsys.readouterr()

    def test_eval_malformed_model_is_input_error(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path)
        data = str(tmp_path / "data")
        assert cli.main(["dataset-synth", "--out", data, "--config", cfg]) == 0
        bad = tmp_path / "bad.sfcl"
        bad.write_bytes(_model_header(1) + struct.pack("<H", 1) + b"\x80")
        capsys.readouterr()
        code = cli.main(["eval", "--config", cfg, "--data", data, "--model", str(bad)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["type"] == "FormatError"

    @pytest.mark.parametrize("fusion_mode", ["hierarchical", "concat"])
    def test_eval_non_finite_model_is_format_error(self, tmp_path, capsys, fusion_mode):
        cfg = _tiny_config(tmp_path)
        data = str(tmp_path / "data")
        model = str(tmp_path / "m.sfcl")
        flags = ["--config", cfg, "--data", data, "--fusion-mode", fusion_mode]
        assert cli.main(["dataset-synth", "--out", data, "--config", cfg]) == 0
        assert cli.main(["train", *flags, "--out", model]) == 0
        state = load_model(model)
        state["model.classifier.head.b"][0] = np.nan
        save_model(model, state)
        capsys.readouterr()
        code = cli.main(["eval", *flags, "--model", model])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and not captured.out
        err = json.loads(lines[0])
        assert err["type"] == "FormatError" and "model.classifier.head.b" in err["message"]

    @pytest.mark.parametrize("train_flags, eval_flags", [(["--no-sida-gate"], []),
                                                         ([], ["--no-sida-gate"])],
                             ids=["no_gate_file", "no_gate_model"])
    def test_eval_gate_mismatch_is_format_error(self, tmp_path, capsys, train_flags, eval_flags):
        cfg = _tiny_config(tmp_path)
        data = str(tmp_path / "data")
        model = str(tmp_path / "m.sfcl")
        assert cli.main(["dataset-synth", "--out", data, "--config", cfg]) == 0
        assert cli.main(["train", "--config", cfg, "--data", data, *train_flags,
                         "--out", model]) == 0
        capsys.readouterr()
        code = cli.main(["eval", "--config", cfg, "--data", data, *eval_flags, "--model", model])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and not captured.out
        err = json.loads(lines[0])
        assert err["type"] == "FormatError" and "model.hcma.gate.w" in err["message"]

    @staticmethod
    def _eval_overflowing_head(tmp_path, capsys, alternate):
        """``sfcl eval`` after a 1e30 batch-norm shift feeds a head of 3e38
        weights, alternating in sign or not; returns (exit code, stderr lines)."""
        cfg = _tiny_config(tmp_path)
        data = str(tmp_path / "data")
        model = str(tmp_path / "m.sfcl")
        assert cli.main(["dataset-synth", "--out", data, "--config", cfg]) == 0
        assert cli.main(["train", "--config", cfg, "--data", data, "--out", model]) == 0
        state = load_model(model)
        w = state["model.classifier.head.w"]
        w[:] = 3e38
        if alternate:
            w[1::2] = -3e38
        state["model.hcma.bn.beta"][:] = 1e30
        save_model(model, state)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would be a second stderr line
            code = cli.main(["eval", "--config", cfg, "--data", data, "--model", model])
        captured = capsys.readouterr()
        assert not captured.out
        return code, captured.err.splitlines()

    def test_eval_overflowing_inference_is_numeric_error(self, tmp_path, capsys):
        # finite weights whose sum is inf - inf, so every logit is NaN
        code, lines = self._eval_overflowing_head(tmp_path, capsys, alternate=True)
        assert code == 3 and len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "NumericError" and "non-finite" in err["message"]

    def test_eval_logits_overflowing_to_inf_is_numeric_error(self, tmp_path, capsys):
        # every logit is +inf, whose probability sigmoid(inf) = 1.0 is finite
        code, lines = self._eval_overflowing_head(tmp_path, capsys, alternate=False)
        assert code == 3 and len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "NumericError" and "8 non-finite logits" in err["message"]

    def test_train_diverging_is_one_numeric_error_line(self, tmp_path, capsys):
        cfg = _tiny_config(tmp_path)
        doc = json.loads(open(cfg).read())
        doc["train"]["learning_rate"] = 1e30
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        data = str(tmp_path / "data")
        assert cli.main(["dataset-synth", "--out", data, "--config", cfg]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["train", "--config", cfg, "--data", data,
                             "--out", str(tmp_path / "m.sfcl")])
        lines = capsys.readouterr().err.splitlines()
        assert code == 3 and len(lines) == 1
        assert json.loads(lines[0])["type"] == "NumericError"

    def test_train_config_value_type_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"train": {"epochs": "ten"}}))
        data = str(tmp_path / "data")
        synth_generate(SynthConfig(count=2, height=16, width=16, seed=1), out_dir=data)
        capsys.readouterr()
        code = cli.main(["train", "--config", str(cfg), "--data", data,
                         "--out", str(tmp_path / "m.sfcl")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "UsageError"
        assert "train.epochs" in err["message"] and "int" in err["message"]

    @pytest.mark.parametrize("doc", [
        {"hcma": {"tokens": 0}}, {"faae": {"attn_dim": 0}},
        {"backbone": {"output_dim": -1}}, {"train": {"learning_rate": float("nan")}},
        {"backbone": {"output_dim": 1 << 40}}, {"hcma": {"embed_dim": 1 << 40}}],
        ids=["hcma_tokens_0", "faae_attn_dim_0", "backbone_output_dim_-1", "learning_rate_nan",
             "backbone_output_dim_2^40", "hcma_embed_dim_2^40"])
    def test_train_config_out_of_range_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                       doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))  # NaN is written as JSON's NaN token
        data = str(tmp_path / "data")
        synth_generate(SynthConfig(count=2, height=16, width=16, seed=1), out_dir=data)

        def no_read(path):
            raise AssertionError(f"train read {path} before rejecting its config")
        monkeypatch.setattr(cli, "read_ppm", no_read)
        capsys.readouterr()
        code = cli.main(["train", "--config", str(cfg), "--data", data,
                         "--out", str(tmp_path / "m.sfcl")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "ConfigError"
        (section, fields), = doc.items()
        assert f"'{section}.{next(iter(fields))}'" in err["message"]

    @pytest.mark.parametrize("doc, key", [
        (OLD_DESK_CONFIG, "backbone.stem_widths"),
        ({"sbcm": {"widths": [3, 16, 32, 64]}}, "sbcm.widths"),
        ({"cnnf": {"widths": [192, 256, 728, 2048]}}, "cnnf.widths"),
        ({"backbone": {"stem_widths": [3, 32, 48, 64]}}, "backbone.stem_widths"),
        ({"backbone": {"deep_widths": [64, 128, 256]}}, "backbone.deep_widths"),
        (STRIDES_DESK_CONFIG, "cnnf.strides"),
        ({"sbcm": {"kernels": [7, 5, 3]}}, "sbcm.kernels"),
        ({"sbcm": {"strides": [3, 2, 2]}}, "sbcm.strides"),
        ({"faae": {"zero_init_out": True}}, "faae.zero_init_out")],
        ids=["old_readme_desk_block", "old_sbcm_widths", "old_cnnf_widths",
             "old_stem_widths", "old_deep_widths", "strides_readme_desk_block",
             "sbcm_kernels", "sbcm_strides", "faae_zero_init_out"])
    def test_train_old_width_format_fails_before_reading_images(self, tmp_path, capsys,
                                                                monkeypatch, doc, key):
        # width lists that spelled out the built-in 3, 64 and 192 channels, or
        # keys for the SBCM, CNN-F and FAAE settings that are now constants
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        data = str(tmp_path / "data")
        synth_generate(SynthConfig(count=2, height=16, width=16, seed=1), out_dir=data)

        def no_read(path):
            raise AssertionError(f"train read {path} before rejecting its config")
        monkeypatch.setattr(cli, "read_ppm", no_read)
        capsys.readouterr()
        code = cli.main(["train", "--config", str(cfg), "--data", data,
                         "--out", str(tmp_path / "m.sfcl")])
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "usage" and key in err["message"]
        assert not (tmp_path / "m.sfcl").exists()

    def test_model_flags_replace_config_fields(self, tmp_path):
        cfg = _tiny_config(tmp_path)
        base = cli._detector_config(cli.build_parser().parse_args(
            ["train", "--config", cfg, "--data", "d", "--out", "m"]),
            load_run_config(cfg))
        assert base == load_run_config(cfg).detector
        args = cli.build_parser().parse_args(
            ["train", "--config", cfg, "--data", "d", "--out", "m", "--no-sbcm",
             "--fusion-mode", "concat", "--no-sida-gate", "--precision", "double",
             "--init-seed", "7"])
        got = cli._detector_config(args, load_run_config(cfg))
        assert got == dataclasses.replace(base, use_sbcm=False, fusion_mode="concat",
                                          use_sida_gate=False, precision="double",
                                          init_seed=7)

    def test_thread_env_validation(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SFCL_THREADS", "zero")
        data = str(tmp_path / "imgs")
        synth_generate(SynthConfig(count=1, height=16, width=16, seed=1), out_dir=data)
        code = cli.main(["features-sida", "--images", data,
                         "--out", str(tmp_path / "d.csv")])
        assert code == 1
        capsys.readouterr()

    def test_default_worker_count_is_the_affinity_set(self, monkeypatch):
        monkeypatch.delenv("SFCL_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert cli._worker_count() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._worker_count() == 64  # where the platform has no affinity call
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._worker_count() == 1

    def test_features_sida_csv_independent_of_pool_and_chunking(self, tmp_path, monkeypatch,
                                                                 capsys, rng):
        data = tmp_path / "imgs"
        data.mkdir()
        records = []
        for i, (h, w) in enumerate([(16, 16), (40, 56), (64, 64), (56, 40), (64, 64)]):
            name = f"im{i}.ppm"
            write_ppm(data / name, PlanarImage(np.round(rng.uniform(0, 255, (3, h, w))), "rgb"))
            records.append({"file": name, "label": i % 2})
        records[2]["bbox"] = {"x": 5, "y": 3, "w": 40, "h": 48}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(records))

        def csv_bytes(threads, chunk_bytes=sida._CHUNK_BYTES):
            monkeypatch.setenv("SFCL_THREADS", threads)
            monkeypatch.setattr(sida, "_CHUNK_BYTES", chunk_bytes)
            out = tmp_path / f"d{threads}-{chunk_bytes}.csv"
            assert cli.main(["features-sida", "--images", str(data), "--manifest",
                             str(manifest), "--out", str(out)]) == 0
            return out.read_bytes()

        serial = csv_bytes("1")
        assert csv_bytes("2") == serial
        assert csv_bytes("2", chunk_bytes=8) == serial  # one (channel, band) row a chunk
        assert serial.count(b"\n") == 1 + len(records)
        capsys.readouterr()

    def test_negative_ppm_dims_is_input_error(self, tmp_path, capsys):
        img = tmp_path / "neg.ppm"
        img.write_bytes(b"P6 -1 -1 255\nabc")
        code = cli.main(["features-sida", "--images", str(img), "--out", str(tmp_path / "o.csv")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "InputError" and "at least 1" in err["message"]

    def test_descriptor_csv_matches_per_cell_formatting(self, tmp_path):
        values = np.array([-0.0, 1e-300, 1e16, 0.1, 5e-324, 1.0, -2.5, 1 / 3, 123456789.0])
        entries = [("a.ppm", 1, values), ("b.ppm", 0, -values[::-1])]
        path = tmp_path / "d.csv"
        write_csv(path, *descriptor_csv_rows(entries, True))
        want = "file,label," + ",".join(f"d{i}" for i in range(len(values))) + "\n"
        for name, label, row in entries:
            want += ",".join([name, str(label)] + [format_cell(v) for v in row]) + "\n"
        assert path.read_bytes() == want.encode()
        assert "-0.0,1e-300,1e+16,0.1," in want

    def test_eval_single_label_is_input_error_before_inference(self, tmp_path, capsys, monkeypatch):
        cfg = _tiny_config(tmp_path)
        data = str(tmp_path / "data")
        assert cli.main(["dataset-synth", "--out", data, "--config", cfg]) == 0
        manifest = os.path.join(data, "manifest.json")
        with open(manifest) as fh:
            real = [r for r in json.load(fh) if r["label"] == 0]
        with open(manifest, "w") as fh:
            json.dump(real, fh)

        def no_inference(*args, **kwargs):
            raise AssertionError("eval ran inference on a single-label dataset")
        monkeypatch.setattr(cli, "evaluate", no_inference)
        capsys.readouterr()
        code = cli.main(["eval", "--config", cfg, "--data", data,
                         "--model", str(tmp_path / "absent.sfcl")])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "InputError" and "found labels [0]" in err["message"]

    def test_csv_is_locale_independent(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b"], [[1.5, 2], [0.25, -3]])
        assert path.read_text() == "a,b\n1.5,2\n0.25,-3\n"
