"""One workload in one process: set up, run timed, check outputs, report.

    python3 perfbench/workloads.py --workload NAME --data DIR --seconds N \
        --trace 0|1 --result FILE

``run.py`` starts this after ``gen.py`` has written DIR, so input generation
counts toward no metric. ``setup_s`` is the median time fresh interpreters
take to import sfcl once numpy is loaded, plus the median of repeated
in-process set-ups; half of both are measured after the timed loop.
``peak_rss_mb`` is the peak RSS of a fresh process that sets up and does one
unit of work (``--probe``), as one sfcl command does. Every check
runs after the timed region and, in a traced run, after the wrappers are
removed.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time

import numpy as np

from sfcl import cli, metrics
from sfcl import model as model_mod
from sfcl import sida as sida_mod
from sfcl.errors import SfclError
from sfcl.io import load_dataset_manifest, read_ppm
from sfcl.model import Detector, desk_detector_config
from sfcl.synth import Sample
from sfcl.train import TrainConfig

import spans
from oracle import ACCEPTANCE_TOL, load_oracles, oracle_descriptor, relative_error
from stats import describe_ms, median

train_mod = importlib.import_module("sfcl.train")  # the package exports a train() too
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUPS = 8            # set-up repetitions, half before and half after the timed loop
BCE_CLIP = 1e-7       # float32 probabilities can round to exactly 0 or 1
BATCH_TOL = 1e-5      # batch-of-32 vs single-image probabilities, float32 model
# The end-to-end metrics every workload reports, with their units.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("throughput_per_s", "1/s"))


class Workload:
    """Counts units of work attempted and failed; subclasses define the work.

    ``throughput()`` is the workload's ``throughput_per_s``: its own items
    per second. ``figures()`` are further outputs, printed for people.
    """

    def __init__(self, data: str, tracer):
        self.data = data
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, units: int, message: str) -> None:
        self.failed += units
        self.problems.append(message)

    def probe(self) -> None:
        """One unit of work, as one sfcl command does it."""
        self.run(0.0)


class TrainDesk(Workload):
    """Desk-profile training on 64x64 images; set-up extracts the frontend."""

    config = TrainConfig(epochs=2)  # default Adam and batch size 20

    def setup(self):
        entries = load_dataset_manifest(os.path.join(self.data, "manifest.json"))
        self.samples = [Sample(cli.read_ppm(os.path.join(self.data, f)).pixels, label)
                        for f, label, _ in entries]
        self.frontend = model_mod.extract_frontend(
            [s.image for s in self.samples], dtype=np.float32,
            labels=[s.label for s in self.samples])
        n, b = len(entries), self.config.batch_size
        # train() skips a last batch of one sample (batch norm needs two)
        self.steps = self.config.epochs * (n // b + (n % b >= 2))

    def run(self, seconds: float):
        self.logs, self.rates = [], []
        start = time.perf_counter()
        rep = 0
        while rep == 0 or time.perf_counter() - start < seconds:
            model = Detector(desk_detector_config())
            self.attempted += self.steps
            with spans.phase(self.tracer, "bench.train_rep", rep):
                t0 = time.perf_counter()
                try:
                    log = train_mod.train(model, self.samples, self.config, frontend=self.frontend)
                except SfclError as exc:
                    self.fail(self.steps, f"repetition {rep}: {type(exc).__name__}: {exc}")
                    log = None
                elapsed = time.perf_counter() - t0
            if log is not None:
                self.logs.append(log)
                self.rates.append(len(self.frontend) * self.config.epochs / elapsed)
            rep += 1

    def check(self):
        for rep, log in enumerate(self.logs):
            if not all(math.isfinite(entry["loss"]) for entry in log):
                self.fail(self.steps, f"repetition {rep}: non-finite epoch loss {log}")
            elif log != self.logs[0]:
                self.fail(self.steps, f"repetition {rep}: log differs from the first repetition")

    def throughput(self):
        return median(self.rates)  # training samples per second

    def figures(self):
        return {"train_loss_final": (self.logs[0][-1]["loss"] if self.logs else 0.0, "nat")}


class EvalScreen(Workload):
    """The ``sfcl eval`` path: PPMs on disk to probabilities and AUC."""

    batch = 32

    def setup(self):
        self.entries = load_dataset_manifest(os.path.join(self.data, "images", "manifest.json"))
        self.model = Detector(desk_detector_config())
        self.model.load_state_arrays(cli.load_model(os.path.join(self.data, "model.sfcl")))

    def _screen(self):
        images, labels = [], []
        for fname, label, _ in self.entries:
            try:
                images.append(cli.read_ppm(os.path.join(self.data, "images", fname)))
                labels.append(label)
            except SfclError as exc:
                self.fail(1, f"{fname}: {type(exc).__name__}: {exc}")
        frontend = model_mod.extract_frontend(images, dtype=np.float32, labels=labels)
        # evaluate() reads no samples when it is given the frontend
        probs, labels = train_mod.evaluate(self.model, (), frontend=frontend, batch_size=self.batch)
        return frontend, (probs, labels, metrics.metric_auc(probs, labels))

    def run(self, seconds: float):
        self.passes, self.rates = [], []
        self.frontend = None  # of the first pass, for the batch check
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            self.attempted += len(self.entries)
            with spans.phase(self.tracer, "bench.eval_pass", k):
                t0 = time.perf_counter()
                try:
                    frontend, result = self._screen()
                except SfclError as exc:
                    self.fail(len(self.entries), f"pass {k}: {type(exc).__name__}: {exc}")
                    frontend = result = None
                elapsed = time.perf_counter() - t0
            if result is not None:
                if self.frontend is None:
                    self.frontend = frontend
                self.passes.append(result)
                self.rates.append(len(result[0]) / elapsed)
            k += 1

    def check(self):
        for k, (probs, labels, _) in enumerate(self.passes):
            bad = ~(np.isfinite(probs) & (probs >= 0.0) & (probs <= 1.0))
            if probs.shape != labels.shape or probs.ndim != 1:
                self.fail(len(labels), f"pass {k}: probabilities shaped {probs.shape}")
            elif bad.any():
                self.fail(int(bad.sum()), f"pass {k}: {int(bad.sum())} probabilities outside [0, 1]")
        if not self.passes:
            return
        probs = self.passes[0][0]
        first = min(self.batch, len(self.frontend))
        single = np.array([self.model.forward(self.frontend.subset([i]), mode="infer")[1].data[0]
                           for i in range(first)], dtype=np.float64)
        off = np.abs(single - probs[:first]) > BATCH_TOL
        if off.any():
            self.fail(int(off.sum()), f"{int(off.sum())} of the first batch differ from single-image "
                                      f"forwards by more than {BATCH_TOL}")

    def throughput(self):
        return median(self.rates)  # images per second, PPM on disk to probability

    def figures(self):
        if not self.passes:
            return {}
        probs, labels, auc = self.passes[0]
        p = np.clip(probs, BCE_CLIP, 1.0 - BCE_CLIP)
        bce = float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1.0 - p)))
        return {"eval_bce": (bce, "nat"), "eval_auc": (auc, "ratio")}


class SidaLarge(Workload):
    """``sfcl features-sida --manifest`` over 1024, 512 and 256 px images.

    Each CLI pass is followed by serial read-to-descriptor calls, timed per
    image, on the next third of the images in turn. Short rounds give the
    pass medians more samples than one full serial pass per round would.
    """

    def setup(self):
        self.manifest = os.path.join(self.data, "manifest.json")
        self.entries = load_dataset_manifest(self.manifest)
        self.pixels = {}
        for fname, _, _ in self.entries:  # also warms the page cache
            img = cli.read_ppm(os.path.join(self.data, fname))
            self.pixels[fname] = img.height * img.width
        self.csv = os.path.join(self.data, "descriptors.csv")
        self.argv = ["features-sida", "--images", self.data, "--manifest", self.manifest,
                     "--out", self.csv]

    def _cli_pass(self, k: int):
        n = len(self.entries)
        self.attempted += n
        out, err = io.StringIO(), io.StringIO()
        with spans.phase(self.tracer, "bench.cli_pass", k):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv)
            elapsed = time.perf_counter() - t0
        if code != 0:
            self.fail(n, f"cli pass {k}: exit {code}: {err.getvalue().strip()}")
            return
        with open(self.csv) as fh:
            self.csv_texts.append(fh.read())
        self.cli_times.append(elapsed)

    def _serial(self, k: int, entries):
        with spans.phase(self.tracer, "bench.serial", k):
            for fname, _, bbox in entries:
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    img = cli.read_ppm(os.path.join(self.data, fname))
                    values = sida_mod.sida_from_image(img, bbox).values
                except SfclError as exc:
                    self.fail(1, f"{fname}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - t0
                if not np.isfinite(values).all():
                    self.fail(1, f"{fname}: non-finite descriptor")
                    continue
                self.descriptors[fname] = values
                self.ms_per_mpix.append(elapsed * 1e3 / (self.pixels[fname] / 1e6))

    def start(self):
        self.csv_texts, self.cli_times, self.ms_per_mpix = [], [], []
        self.descriptors = {}

    def probe(self):
        self.start()
        self._cli_pass(0)

    def run(self, seconds: float):
        self.start()
        chunk = -(-len(self.entries) // 3)
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            self._cli_pass(k)
            first = k * chunk % len(self.entries)
            self._serial(k, (self.entries * 2)[first:first + chunk])
            k += 1

    def check(self):
        names = [f for f, _, _ in self.entries]
        header = ["file", "label"] + [f"d{i}" for i in range(sida_mod.DESCRIPTOR_LENGTH)]
        for k, text in enumerate(self.csv_texts):
            lines = text.splitlines()
            if not lines or lines[0].split(",") != header or len(lines) != len(names) + 1:
                self.fail(len(names), f"cli pass {k}: CSV header or row count is wrong")
                continue
            for (fname, label, _), line in zip(self.entries, lines[1:]):
                cells = line.split(",")
                values = np.array([float(c) for c in cells[2:]])
                if cells[:2] != [fname, str(label)] or not np.isfinite(values).all():
                    self.fail(1, f"cli pass {k}: bad row for {fname}")
                elif fname in self.descriptors and not np.array_equal(values, self.descriptors[fname]):
                    self.fail(1, f"cli pass {k}: {fname} differs from the serial descriptor")
        oracles = load_oracles(ROOT)
        checked = set()
        for fname, _, _ in self.entries:
            if self.pixels[fname] in checked or fname not in self.descriptors:
                continue
            checked.add(self.pixels[fname])
            want = oracle_descriptor(read_ppm(os.path.join(self.data, fname)).pixels, oracles)
            err = relative_error(self.descriptors[fname], want)
            if not err < ACCEPTANCE_TOL:
                self.fail(1, f"{fname}: relative error {err:.2e} against the oracle")

    def throughput(self):
        mpix = sum(self.pixels.values()) / 1e6
        return median([mpix / t for t in self.cli_times])  # megapixels per second

    def figures(self):
        return {"sida_ms_per_mpix_p50": (median(self.ms_per_mpix), "ms/Mpix")}


WORKLOADS = {"train-desk": TrainDesk, "eval-screen": EvalScreen, "sida-large": SidaLarge}


# Interpreter start and the numpy import are left out of setup_s: sfcl cannot
# change them, and together they jumped between two levels ~50 ms apart from
# run to run.
IMPORT_PROBE = ("import time, numpy; t0 = time.perf_counter(); import sfcl.cli; "
                "print(time.perf_counter() - t0)")


def import_seconds() -> float:
    """Time a fresh interpreter with numpy loaded takes to import sfcl."""
    return float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                                capture_output=True, text=True, timeout=120).stdout)


def own_peak_rss_mb() -> float:
    """Peak RSS of this program image. ru_maxrss would not do: Linux carries
    the peak from before exec over, so it read exactly the parent's peak."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0


def probe_peak_rss_mb(workload: str, data: str) -> float:
    """Peak RSS of a fresh process that sets up and does one unit of work.

    In the long-running sida-large process the peak crept up by about 1 MB
    per CLI pass and, depending on thread timing, sometimes jumped by 10 to
    80 MB; the peak of a first pass held within 1 MB.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--data", data,
            "--seconds", "0", "--probe"]
    return float(subprocess.run(argv, check=True, capture_output=True, text=True,
                                timeout=120).stdout)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "SFCL_THREADS": os.environ.get("SFCL_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "python": platform.python_version(),
            "commit": commit}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--data", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result")
    p.add_argument("--probe", action="store_true",
                   help="set up, do one unit of work, print the peak RSS in MB")
    args = p.parse_args()
    if args.probe:
        work = WORKLOADS[args.workload](args.data, None)
        work.setup()
        work.probe()
        print(own_peak_rss_mb())
        return
    if args.result is None:
        p.error("--result is required without --probe")

    tracer = spans.Tracer() if args.trace else None
    work = WORKLOADS[args.workload](args.data, tracer)
    import_times, setup_times = [], []

    def set_up(count: int) -> None:
        # Sub-second samples follow the host's speed of the moment, so half
        # are taken after the timed loop: the medians then span the run.
        for _ in range(count):
            import_times.append(import_seconds())
            with spans.phase(tracer, "bench.setup", len(setup_times)):
                t0 = time.perf_counter()
                work.setup()
                setup_times.append(time.perf_counter() - t0)

    restore = spans.install(tracer) if tracer else []
    try:
        set_up(SETUPS // 2)
        work.run(args.seconds)
        run_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        set_up(SETUPS - SETUPS // 2)
    finally:
        spans.uninstall(restore)
    work.check()

    values = {"setup_s": median(import_times) + median(setup_times),
              "throughput_per_s": work.throughput()}
    if tracer is None:  # a traced run reports per-layer metrics only
        values["peak_rss_mb"] = probe_peak_rss_mb(args.workload, args.data)
    e2e = {name: (values[name], unit) for name, unit in END_TO_END if name in values}
    figures = {**work.figures(), "run_peak_rss_mb": (run_peak_rss_mb, "MB")}
    result = {"workload": args.workload, "trace": args.trace,
              "attempted": work.attempted, "failed": work.failed, "problems": work.problems,
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
              "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
              "env": environment()}
    lines = [f"  {k} = {v:.6g} {u}" for k, (v, u) in {**e2e, **figures}.items()]
    if tracer is not None:
        result["per_layer"] = spans.layer_metrics(tracer.spans)
        for name, samples in sorted(spans.self_time_table(tracer.spans).items()):
            lines.append(f"  span {name}: calls {len(samples)}, self {sum(samples):.3f} s, "
                         f"{describe_ms(samples)}")
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"spans-{args.workload}.jsonl"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    mode = "traced" if tracer is not None else "untraced"
    print(f"{args.workload} ({mode}): attempted {work.attempted}, failed {work.failed}")
    print("\n".join(lines + [f"  problem: {msg}" for msg in work.problems]), flush=True)


if __name__ == "__main__":
    main()
