"""Full detector: frequency and spatial branches wired through the fusion stages.

The frontend (color conversion, block DCT, differential statistics) is fixed
and gradient-free, so it runs once per image in float64 and its outputs are
cached as plain arrays. Everything downstream is built from tracked tensors.

Ablation seams mirror the component structure: the band-convolution stack can
be bypassed (spectra flattened straight into the frequency CNN), the whole
hierarchical fusion can be swapped for plain concatenation, and the
descriptor gate can be disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, InputError, UsageError
from .frequency import BoundingBox, PlanarImage, crop_to_grid, restructure
from .fusion import Classifier, Faae, FaaeConfig, Hcma, HcmaConfig
from .layers import Layer
from .local_branch import (FREQ_CHANNELS, CnnF, CnnfConfig, Sbcm, SbcmConfig,
                           flatten_bands)
from .sida import DESCRIPTOR_LENGTH, sida_descriptor
from .spatial import BackboneConfig, SpatialBackbone
from .tensor import Tensor

FUSION_MODES = ("hierarchical", "concat")
PRECISIONS = ("single", "double")


@dataclass
class DetectorConfig:
    """The detector's free settings; the fusion input widths follow the branches."""
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    sbcm: SbcmConfig = field(default_factory=SbcmConfig)
    cnnf: CnnfConfig = field(default_factory=CnnfConfig)
    faae: FaaeConfig = field(default_factory=FaaeConfig)
    hcma: HcmaConfig = field(default_factory=HcmaConfig)
    use_sbcm: bool = True
    fusion_mode: str = "hierarchical"
    use_sida_gate: bool = True
    precision: str = "single"
    init_seed: int = 0

    def __post_init__(self):
        if self.fusion_mode not in FUSION_MODES:
            raise ConfigError(f"fusion_mode must be one of {FUSION_MODES}, got {self.fusion_mode!r}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"precision must be one of {PRECISIONS}, got {self.precision!r}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "single" else np.float64


@dataclass
class FrontendBatch:
    """Cached gradient-free inputs for one batch of same-sized crops."""
    pixels: np.ndarray      # [N,3,H,W] in [0,1]
    spectra: np.ndarray     # [N,3,64,Hb,Wb]
    descriptors: np.ndarray  # [N,2304]
    labels: Optional[np.ndarray] = None

    def subset(self, idx) -> "FrontendBatch":
        """Rows ``idx`` of every array: copies for an index array, views for a slice."""
        return FrontendBatch(self.pixels[idx], self.spectra[idx], self.descriptors[idx],
                             None if self.labels is None else self.labels[idx])

    def __len__(self) -> int:
        return self.pixels.shape[0]


def extract_frontend(images: Sequence[PlanarImage],
                     bboxes: Optional[Sequence[Optional[BoundingBox]]] = None,
                     dtype=np.float32,
                     labels: Optional[Sequence[int]] = None) -> FrontendBatch:
    """Run the fixed frontend once per image, writing each into its own row.

    All grid-cropped regions must share one size so they can form a batch.
    The outputs are C-ordered whatever the layout of the input planes.
    """
    if not images:
        raise InputError("the frontend needs at least one image")
    if bboxes is None:
        bboxes = [None] * len(images)
    n = len(images)
    pixels = spectra_out = descriptors = None
    for i, (img, bbox) in enumerate(zip(images, bboxes)):
        rgb = crop_to_grid(img, bbox)
        spectra = restructure(rgb)
        if pixels is None:
            pixels = np.empty((n,) + rgb.pixels.shape, dtype=dtype)
            spectra_out = np.empty((n,) + spectra.coefficients.shape, dtype=dtype)
            descriptors = np.empty((n, DESCRIPTOR_LENGTH), dtype=dtype)
        elif rgb.pixels.shape != pixels.shape[1:]:
            raise InputError(
                f"cannot batch crops of different sizes: {rgb.pixels.shape} vs {pixels.shape[1:]}")
        # float64 math, rounded to dtype on store
        np.divide(rgb.pixels, 255.0, out=pixels[i], dtype=np.float64, casting="unsafe")
        spectra_out[i] = spectra.coefficients
        descriptors[i] = sida_descriptor(spectra).values
    lab = None if labels is None else np.asarray(labels, dtype=np.int64)
    return FrontendBatch(pixels, spectra_out, descriptors, lab)


def desk_detector_config(init_seed: int = 0, **overrides) -> DetectorConfig:
    """Reduced-width profile sized for single-core training on 64x64 images.

    The full-scale widths (frequency CNN ending at 2048, a 1792-dim spatial
    head, 1024-dim fusion) stay available through the default config
    constructors; this profile keeps every structural invariant while
    shrinking widths so a full train/eval cycle takes minutes, not GPU-days.
    """
    base = dict(
        backbone=BackboneConfig(widths=(16, 24, 32, 48), output_dim=256),
        sbcm=SbcmConfig(widths=(8, 16)),
        cnnf=CnnfConfig(widths=(64, 128, 256), strides=(2, 2, 1)),
        faae=FaaeConfig(attn_dim=32),
        hcma=HcmaConfig(embed_dim=256, heads=8, tokens=8),
        init_seed=init_seed,
    )
    base.update(overrides)
    return DetectorConfig(**base)


class Detector(Layer):
    """Trainable portion of the pipeline, from cached frontend outputs to logits."""

    def __init__(self, cfg: DetectorConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.init_seed)
        dt = cfg.dtype
        self.backbone = SpatialBackbone(cfg.backbone, rng, dt)
        self.sbcm = Sbcm(cfg.sbcm, rng, dt) if cfg.use_sbcm else None
        self.cnnf = CnnF(cfg.cnnf, rng, dt)
        if cfg.fusion_mode == "hierarchical":
            self.faae = Faae(cfg.faae, cfg.backbone.shallow_channels, rng, dt)
            self.hcma = Hcma(cfg.hcma, cfg.backbone.output_dim, cfg.cnnf.output_dim, rng, dt)
            self.classifier = Classifier(cfg.hcma.embed_dim, rng, dt)
        else:
            self.faae = None
            self.hcma = None
            concat_dim = cfg.backbone.output_dim + cfg.cnnf.output_dim + DESCRIPTOR_LENGTH
            self.classifier = Classifier(concat_dim, rng, dt)
        names = [n for n, _ in self.trainables()] + [n for n, _ in self.buffers()]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate parameter names in model assembly")

    # -- forward ---------------------------------------------------------

    def forward(self, batch: FrontendBatch, mode: str = "infer") -> Tuple[Tensor, Tensor]:
        """Returns (logits [N], probabilities [N])."""
        if mode not in ("train", "infer"):
            raise UsageError(f"mode must be 'train' or 'infer', got {mode!r}")
        dt = self.cfg.dtype
        x_img = Tensor(np.ascontiguousarray(batch.pixels, dtype=dt))
        x_spec = Tensor(np.ascontiguousarray(batch.spectra, dtype=dt))
        d = Tensor(np.ascontiguousarray(batch.descriptors, dtype=dt))
        n = len(batch)

        x_s = self.backbone.stem_forward(x_img, mode)
        if self.sbcm is not None:
            x_f = flatten_bands(self.sbcm.forward(x_spec, mode))
        else:
            hb, wb = x_spec.shape[-2:]
            x_f = T.reshape(x_spec, (n, FREQ_CHANNELS, hb, wb))
        f_vec = self.cnnf.forward(x_f, mode)

        if self.cfg.fusion_mode == "hierarchical":
            y_s = self.faae.forward(x_f, x_s, mode)
            s_vec = self.backbone.deep_forward(y_s, mode)
            fused = self.hcma.fuse(s_vec, f_vec, d, mode, use_gate=self.cfg.use_sida_gate)
        else:
            s_vec = self.backbone.deep_forward(x_s, mode)
            fused = T.concat([s_vec, f_vec, d], axis=1)
        return self.classifier.forward(fused)

    # -- parameter bookkeeping --------------------------------------------

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Ordered name -> array view over every serializable tensor."""
        out: Dict[str, np.ndarray] = {}
        for name, t in self.trainables():
            out[name] = t.data
        for name, buf in self.buffers():
            out[name] = buf
        return out

    def load_state_arrays(self, state: Dict[str, np.ndarray]) -> None:
        own = self.state_arrays()
        missing = [k for k in own if k not in state]
        extra = [k for k in state if k not in own]
        if missing or extra:
            raise InputError(f"model state mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
        for name, t in self.trainables():
            value = state[name]
            if value.shape != t.data.shape:
                raise InputError(f"{name}: stored shape {value.shape} != model shape {t.data.shape}")
            t.data = value.astype(t.data.dtype, copy=True)
        for name, buf in self.buffers():
            value = state[name]
            if value.shape != buf.shape:
                raise InputError(f"{name}: stored shape {value.shape} != model shape {buf.shape}")
            buf[...] = value.astype(buf.dtype)
