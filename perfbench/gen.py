"""Write one workload's inputs into a directory.

    python3 perfbench/gen.py --workload train-desk --seed 7 --out DIR

Runs in its own process before the measured one, so generating images and
training the screening model count toward no metric. The same seed writes
byte-identical files.
"""

from __future__ import annotations

import argparse
import os

from sfcl.io import write_dataset_manifest
from sfcl.model import Detector, desk_detector_config
from sfcl.modelfile import save_model
from sfcl.synth import SynthConfig, synth_generate
from sfcl.train import TrainConfig, train

TRAIN_PAIRS = 50          # train-desk: 100 images of 64x64, 5 batches of 20
TRAIN_SEED = 1            # train-desk images do not depend on the run seed
EVAL_PAIRS = 32           # eval-screen: 64 images of 128x128, 2 batches of 32
MODEL_SEED = 2            # nor does the eval-screen model
# sida-large: (side, pairs generated, images kept); about 1 Mpix per side.
# Largest first: listed last, the 1024 px image ran alone at the end of each
# pool pass, and throughput swung between 0.60 and 0.84 Mpix/s between runs.
SIDA_SETS = ((1024, 1, 1), (512, 2, 4), (256, 8, 16))


def _synth(out_dir, pairs: int, size: int, seed: int):
    return synth_generate(SynthConfig(count=pairs, height=size, width=size, seed=seed,
                                      recipe="mixed"), out_dir=out_dir)


def gen_train_desk(out: str, seed: int) -> None:
    # Timing does not depend on pixel values, but the last-epoch loss of a
    # 10-step run does: between seeds it spread by 12-30% (IQR / median).
    # A constant dataset makes train_loss_final one value per commit.
    _synth(out, TRAIN_PAIRS, 64, TRAIN_SEED)


def gen_eval_screen(out: str, seed: int) -> None:
    _synth(os.path.join(out, "images"), EVAL_PAIRS, 128, seed)
    # Trained once from a constant seed, like a deployed model: eval_bce and
    # eval_auc then vary only with the screened images, not with how well a
    # short training run happened to go.
    samples = _synth(None, TRAIN_PAIRS, 64, MODEL_SEED)
    model = Detector(desk_detector_config())
    train(model, samples, TrainConfig(epochs=4, batch_size=20, seed=MODEL_SEED))
    save_model(os.path.join(out, "model.sfcl"), model.state_arrays())


def gen_sida_large(out: str, seed: int) -> None:
    records = []
    for size, pairs, kept in SIDA_SETS:
        sub = f"s{size}"
        samples = _synth(os.path.join(out, sub), pairs, size, seed)
        records += [{"file": f"{sub}/{s.file}", "label": s.label} for s in samples[:kept]]
    write_dataset_manifest(os.path.join(out, "manifest.json"), records)


GENERATORS = {"train-desk": gen_train_desk, "eval-screen": gen_eval_screen,
              "sida-large": gen_sida_large}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    GENERATORS[args.workload](args.out, args.seed)


if __name__ == "__main__":
    main()
