"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 input/data error, 3 numeric failure.
Errors go to stderr as one JSON object per failure. The SFCL_THREADS
environment variable caps the worker count for data-parallel extraction
commands (default: the CPUs this process may run on).
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from .checks import CHECKS, GRAD_TOL, run_check
from .errors import InputError, NumericError, SfclError, UsageError
from .frequency import BANDS, CHANNEL_NAMES, BoundingBox, restructure
from .io import (descriptor_csv_rows, load_bbox_manifest, load_dataset_manifest,
                 read_ppm, write_csv)
from .metrics import metric_accuracy, metric_auc
from .model import FUSION_MODES, PRECISIONS, Detector, DetectorConfig
from .modelfile import load_model, save_model
from .runconfig import load_run_config
from .sida import MODES, SidaDescriptor, sida_from_image
from .synth import RECIPES, Sample, synth_generate
from .train import evaluate, train


class _Parser(argparse.ArgumentParser):
    """argparse that raises UsageError (with a suggestion) instead of exiting."""

    def _known_flags(self):
        flags = {s for a in self._actions for s in a.option_strings}
        for action in self._actions:
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    flags.update(s for a in sub._actions for s in a.option_strings)
        return sorted(flags)

    def error(self, message):
        if "unrecognized arguments" in message:
            bad = message.split(":", 1)[1].strip().split()
            known = self._known_flags()
            hints = []
            for flag in bad:
                close = difflib.get_close_matches(flag, known, n=1)
                if close:
                    hints.append(f"did you mean {close[0]}?")
            if hints:
                message = f"{message} ({' '.join(hints)})"
        raise UsageError(message)


def _worker_count() -> int:
    value = os.environ.get("SFCL_THREADS")
    if value is None:  # the CPUs this process may use, not the host's (cpusets, taskset)
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(value)
    except ValueError:
        raise UsageError(f"SFCL_THREADS must be an integer, got {value!r}") from None
    if n < 1:
        raise UsageError(f"SFCL_THREADS must be >= 1, got {n}")
    return n


def _parallel_map(fn, items: Sequence):
    """Order-preserving map with SFCL_THREADS workers."""
    workers = min(_worker_count(), max(len(items), 1))
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _list_images(path) -> List[str]:
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.lower().endswith(".ppm"))
        if not names:
            raise InputError(f"no .ppm images found in {path}")
        return [os.path.join(path, n) for n in names]
    if os.path.isfile(path):
        return [path]
    raise InputError(f"no such file or directory: {path}")


def _load_bboxes(path: Optional[str], files: List[str]) -> Dict[str, BoundingBox]:
    """--bboxes's boxes by file name; each names a .ppm in the directory of ``files``."""
    if not path:
        return {}
    boxes = load_bbox_manifest(path)
    root = os.path.dirname(files[0]) or "."
    known = {n for n in os.listdir(root) if n.lower().endswith(".ppm")}
    known.update(os.path.basename(f) for f in files)  # a single image of another name
    for name in boxes:
        if name not in known:
            raise InputError(f"{path}: entry {name!r} names no .ppm image in {root}")
    return boxes


def _seed(text: str) -> int:
    """argparse type of the seed flags: a non-negative integer, as numpy needs."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _parse_bbox(text: Optional[str]) -> Optional[BoundingBox]:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--bbox expects 'x,y,w,h', got {text!r}")
    try:
        x, y, w, h = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--bbox fields must be integers, got {text!r}") from None
    return BoundingBox(x, y, w, h)


def _load_samples(data_dir) -> List[Sample]:
    manifest = os.path.join(data_dir, "manifest.json")
    if not os.path.isfile(manifest):
        raise InputError(f"{data_dir}: missing manifest.json")
    samples = []
    for fname, label, bbox in load_dataset_manifest(manifest):
        img = read_ppm(os.path.join(data_dir, fname))
        samples.append(Sample(img.pixels, label, bbox=bbox, file=fname))
    return samples


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


# -- subcommands --------------------------------------------------------------


def _cmd_dataset_synth(args) -> int:
    run = load_run_config(args.config)
    overrides = {}
    if args.count is not None:
        overrides["count"] = args.count
    if args.size is not None:
        overrides["height"] = overrides["width"] = args.size
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.recipe is not None:
        overrides["recipe"] = args.recipe
    cfg = dataclasses.replace(run.synth, **overrides)
    samples = synth_generate(cfg, out_dir=args.out)
    _emit({"dir": args.out, "samples": len(samples),
           "real": sum(1 for s in samples if s.label == 0),
           "fake": sum(1 for s in samples if s.label == 1)})
    return 0


def _cmd_extract_spectra(args) -> int:
    files = _list_images(args.images)
    bboxes = _load_bboxes(args.bboxes, files)
    os.makedirs(args.out, exist_ok=True)

    def one(path):
        name = os.path.basename(path)
        spectra = restructure(read_ppm(path), bboxes.get(name))
        stem = os.path.splitext(name)[0]
        target = os.path.join(args.out, stem + ".sfcl")
        save_model(target, {"spectra": spectra.coefficients})
        return target

    written = _parallel_map(one, files)
    _emit({"dir": args.out, "files": len(written)})
    return 0


def _cmd_features_sida(args) -> int:
    if args.manifest and args.bboxes:
        raise UsageError("features-sida takes --bboxes or --manifest, not both: "
                         "a manifest gives each image's box in its bbox field")
    if args.manifest:
        records = load_dataset_manifest(args.manifest)
        entries = [(f, lab, bb) for f, lab, bb in records]
        with_labels = True
        root = args.images
    else:
        files = _list_images(args.images)
        bboxes = _load_bboxes(args.bboxes, files)
        entries = [(os.path.basename(p), None, bboxes.get(os.path.basename(p))) for p in files]
        with_labels = False
        root = os.path.dirname(files[0]) or "."

    def one(entry):
        fname, label, bbox = entry
        d = sida_from_image(read_ppm(os.path.join(root, fname)), bbox)
        return fname, label, d.values

    rows = _parallel_map(one, entries)
    header, body = descriptor_csv_rows(rows, with_labels)
    write_csv(args.out, header, body)
    _emit({"csv": args.out, "rows": len(body), "columns": len(header)})
    return 0


def _detector_config(args, run) -> DetectorConfig:
    """The config's detector with the model flags applied (flag dest = field name)."""
    flags = {f.name: getattr(args, f.name) for f in dataclasses.fields(DetectorConfig)
             if hasattr(args, f.name)}
    return dataclasses.replace(run.detector, **flags)


def _cmd_train(args) -> int:
    run = load_run_config(args.config)
    cfg = _detector_config(args, run)
    samples = _load_samples(args.data)
    model = Detector(cfg)
    log = train(model, samples, run.train)
    save_model(args.out, model.state_arrays())
    if args.log:
        with open(args.log, "w") as fh:
            for entry in log:
                fh.write(json.dumps(entry) + "\n")
    _emit({"model": args.out, "epochs": len(log),
           "final_loss": log[-1]["loss"], "final_acc": log[-1]["acc"]})
    return 0


def _cmd_eval(args) -> int:
    cfg = _detector_config(args, load_run_config(args.config))
    samples = _load_samples(args.data)
    classes = sorted({s.label for s in samples})
    if len(classes) < 2:  # AUC is undefined; fail before any frontend or inference work
        raise InputError(f"{args.data}: eval needs real (0) and fake (1) samples, "
                         f"found labels {classes}")
    model = Detector(cfg)
    model.load_state_arrays(load_model(args.model))
    probs, labels = evaluate(model, samples)
    _emit({"samples": len(samples),
           "acc": metric_accuracy(probs, labels),
           "auc": metric_auc(probs, labels)})
    return 0


def _cmd_export_heatmap(args) -> int:
    if args.band < 0 or args.band > 63:
        raise UsageError(f"--band must be in [0, 63], got {args.band}")
    spectra = restructure(read_ppm(args.image), _parse_bbox(args.bbox))
    matrix = np.abs(spectra.coefficients[CHANNEL_NAMES.index(args.channel), args.band])
    with open(args.out, "w", newline="") as fh:
        for row in matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    _emit({"csv": args.out, "rows": matrix.shape[0], "cols": matrix.shape[1],
           "band": args.band, "channel": args.channel})
    return 0


def _mean_stat_y_slices(directory) -> np.ndarray:
    """Average of the Y-channel mean-statistic rows (row|col|intra), 192 long."""
    files = _list_images(directory)
    rows = [SidaDescriptor.position("mean", mode, 0, band)
            for mode in MODES for band in range(BANDS)]

    def one(path):
        return sida_from_image(read_ppm(path)).values[rows]

    return np.mean(_parallel_map(one, files), axis=0)


def _cmd_export_sida_plot(args) -> int:
    real = _mean_stat_y_slices(args.real)
    fake = _mean_stat_y_slices(args.fake)
    rows = [(i, real[i], fake[i], fake[i] - real[i]) for i in range(len(real))]
    write_csv(args.out, ["index", "real_mean", "fake_mean", "diff"], rows)
    _emit({"csv": args.out, "rows": len(rows)})
    return 0


def _cmd_gradcheck(args) -> int:
    err = run_check(args.module, args.seed)
    _emit({"module": args.module, "seed": args.seed,
           "max_rel_err": err, "tolerance": GRAD_TOL})
    if not np.isfinite(err) or err >= GRAD_TOL:
        raise NumericError(f"gradcheck {args.module}: max rel err {err:.3e} >= {GRAD_TOL}")
    return 0


# -- wiring -------------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--no-sbcm", dest="use_sbcm", action="store_false",
                   default=DetectorConfig.use_sbcm, help="bypass the band-conv stack")
    p.add_argument("--fusion-mode", choices=FUSION_MODES, default=DetectorConfig.fusion_mode)
    p.add_argument("--no-sida-gate", dest="use_sida_gate", action="store_false",
                   default=DetectorConfig.use_sida_gate, help="disable the descriptor gate")
    p.add_argument("--precision", choices=PRECISIONS, default=DetectorConfig.precision)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sfcl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset-synth", help="generate a synthetic forgery dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--count", type=int)
    p.add_argument("--size", type=int, help="square image size in pixels")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--recipe", choices=RECIPES)
    p.set_defaults(fn=_cmd_dataset_synth)

    p = sub.add_parser("extract-spectra", help="write block spectra per image")
    p.add_argument("--images", required=True)
    p.add_argument("--bboxes", help="bounding-box manifest JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_extract_spectra)

    p = sub.add_parser("features-sida", help="export differential-statistics descriptors")
    p.add_argument("--images", required=True)
    p.add_argument("--bboxes", help="bounding-box manifest JSON")
    p.add_argument("--manifest", help="dataset manifest JSON (adds a label column)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_features_sida)

    p = sub.add_parser("train", help="train the detector on a dataset directory")
    _add_model_flags(p)
    p.add_argument("--init-seed", type=_seed, default=DetectorConfig.init_seed,
                   help="parameter init seed")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--log", help="JSONL per-epoch training log")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    _add_model_flags(p)
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("export-heatmap", help="per-block |coefficient| matrix for one band")
    p.add_argument("--image", required=True)
    p.add_argument("--bbox", help="x,y,w,h")
    p.add_argument("--band", type=int, required=True)
    p.add_argument("--channel", choices=CHANNEL_NAMES, default="Y")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_heatmap)

    p = sub.add_parser("export-sida-plot", help="real-vs-fake mean statistic lines")
    p.add_argument("--real", required=True)
    p.add_argument("--fake", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_sida_plot)

    p = sub.add_parser("gradcheck", help="finite-difference check of one module")
    p.add_argument("--module", required=True, choices=sorted(CHECKS))
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=_cmd_gradcheck)

    return parser


def _fail(kind: str, exc: Exception, code: int) -> int:
    sys.stderr.write(json.dumps({"error": kind, "type": type(exc).__name__,
                                 "message": str(exc)}) + "\n")
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        return _fail("usage", exc, 1)
    except InputError as exc:
        return _fail("input", exc, 2)
    except OSError as exc:
        return _fail("input", exc, 2)
    except MemoryError as exc:  # numpy refused an allocation the input asked for
        return _fail("input", exc, 2)
    except NumericError as exc:
        return _fail("numeric", exc, 3)
    except SfclError as exc:  # any future subclasses default to usage
        return _fail("usage", exc, 1)


if __name__ == "__main__":
    sys.exit(main())
