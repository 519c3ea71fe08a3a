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

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, FormatError, InputError, UsageError
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

# Bytes of stem output per inference slice. Inference runs a batch in slices
# of whole samples whose first activation fits this budget, so its memory
# stops growing with the batch: 16 samples of 128² with the desk profile in
# single precision, 4 of 256², one of 512² or more. Of 1 to 8 MiB, 4 MiB ran
# fastest at 128² and 256² (slices of 8 of 128² took 6% longer than 16).
_INFER_CHUNK = 1 << 22


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
    pixels: np.ndarray      # [N,3,H,W] in [0,255], as the images hold them
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
    The outputs are C-ordered whatever the layout of the input planes. Pixels
    keep the images' samples (``uint8`` if all are); ``dtype`` sets the rest.
    """
    if not images:
        raise InputError("the frontend needs at least one image")
    if bboxes is None:
        bboxes = [None] * len(images)
    n = len(images)
    px_dtype = np.result_type(*{img.pixels.dtype for img in images})
    pixels = spectra_out = descriptors = None
    for i, (img, bbox) in enumerate(zip(images, bboxes)):
        rgb = crop_to_grid(img, bbox)
        spectra = restructure(rgb)
        if pixels is None:
            pixels = np.empty((n,) + rgb.pixels.shape, dtype=px_dtype)
            spectra_out = np.empty((n,) + spectra.coefficients.shape, dtype=dtype)
            descriptors = np.empty((n, DESCRIPTOR_LENGTH), dtype=dtype)
        elif rgb.pixels.shape != pixels.shape[1:]:
            raise InputError(
                f"cannot batch crops of different sizes: {rgb.pixels.shape} vs {pixels.shape[1:]}")
        pixels[i] = rgb.pixels
        spectra_out[i] = spectra.coefficients
        descriptors[i] = sida_descriptor(spectra).values
    lab = None if labels is None else np.asarray(labels, dtype=np.int64)
    return FrontendBatch(pixels, spectra_out, descriptors, lab)


def infer_slice(cfg: DetectorConfig, crop_shape: Tuple[int, int]) -> int:
    """Samples per inference slice for crops of ``crop_shape`` (H, W): as many
    as whose stem outputs, ``widths[0]`` channels at half the crop's height
    and width, fit ``_INFER_CHUNK``; at least one."""
    h, w = crop_shape
    per_sample = cfg.backbone.widths[0] * ((h + 1) // 2) * ((w + 1) // 2)
    return max(1, _INFER_CHUNK // (per_sample * np.dtype(cfg.dtype).itemsize))


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
        cnnf=CnnfConfig(widths=(64, 128, 256)),
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
            self.hcma = Hcma(cfg.hcma, cfg.backbone.output_dim, cfg.cnnf.output_dim, rng, dt,
                             use_gate=cfg.use_sida_gate)
            self.classifier = Classifier(cfg.hcma.embed_dim, rng, dt)
        else:
            self.faae = None
            self.hcma = None
            concat_dim = cfg.backbone.output_dim + cfg.cnnf.output_dim + DESCRIPTOR_LENGTH
            self.classifier = Classifier(concat_dim, rng, dt)
        self._scratch = threading.local()  # holds each thread's inference pixel batch
        names = [n for n, _ in self.trainables()] + [n for n, _ in self.buffers()]
        if len(names) != len(set(names)):
            raise ConfigError("duplicate parameter names in model assembly")

    # -- forward ---------------------------------------------------------

    def forward(self, batch: FrontendBatch, mode: str = "infer") -> Tuple[Tensor, Tensor]:
        """Returns (logits [N], probabilities [N])."""
        if mode not in ("train", "infer"):
            raise UsageError(f"mode must be 'train' or 'infer', got {mode!r}")
        dt = self.cfg.dtype
        x_img = Tensor(np.divide(batch.pixels, 255.0, out=self._pixel_batch(batch.pixels.shape),
                                 dtype=np.float64, casting="unsafe"))  # to [0,1], rounded on store
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
            fused = self.hcma.fuse(s_vec, f_vec, d, mode)
        else:
            s_vec = self.backbone.deep_forward(x_s, mode)
            fused = T.concat([s_vec, f_vec, d], axis=1)
        return self.classifier.forward(fused)

    def _pixel_batch(self, shape: Tuple[int, ...]) -> np.ndarray:
        """Where the batch's scaled pixels go. A recorded graph keeps its stem's
        input, so it gets a fresh array; inference reuses one per thread while
        the crop shape holds, as a fresh array's page faults cost about the
        divide's time. It keeps the largest batch's, and a shorter batch, such
        as a pass's last slice, takes its leading rows."""
        if T.grad_enabled():
            return np.empty(shape, self.cfg.dtype)
        buf = getattr(self._scratch, "pixels", None)
        if buf is None or buf.shape[1:] != shape[1:] or len(buf) < shape[0]:
            buf = self._scratch.pixels = np.empty(shape, self.cfg.dtype)
        return buf[:shape[0]]

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
        """Write every tensor of ``state`` into the array the model holds, or none:
        each name, shape and value is checked first, so a refused state leaves
        the model as it was. An optimizer built before the load steps the
        loaded values."""
        own = self.state_arrays()
        missing = [k for k in own if k not in state]
        extra = [k for k in state if k not in own]
        if missing or extra:
            raise FormatError(f"model state mismatch: missing {missing[:3]}, unexpected {extra[:3]}")
        for name, current in own.items():
            value = state[name]
            if value.shape != current.shape:
                raise FormatError(f"{name}: stored shape {value.shape} != model shape {current.shape}")
            with np.errstate(over="ignore"):  # a float64 beyond float32's range casts to inf
                if not np.isfinite(value.astype(current.dtype, copy=False)).all():
                    raise FormatError(f"{name}: stored values are not all finite as {current.dtype}")
        for name, current in own.items():
            current[...] = state[name]
