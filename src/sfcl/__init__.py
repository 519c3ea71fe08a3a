"""Spatial-frequency collaborative learning for image forgery detection.

Block-wise DCT spectral analysis, scale-invariant differential statistics,
a spectral band-convolution network, and hierarchical cross-modal fusion,
built on a small reverse-mode tensor core with finite-difference checking.
"""

from .errors import (ConfigError, FormatError, InputError, NumericError,
                     SfclError, ShapeError, UsageError)
from .frequency import (BlockSpectra, BoundingBox, PlanarImage, crop_to_grid,
                        reconstruct, restructure)
from .fusion import Classifier, Faae, FaaeConfig, Hcma, HcmaConfig
from .local_branch import CnnF, CnnfConfig, Sbcm, SbcmConfig, flatten_bands
from .metrics import metric_accuracy, metric_auc
from .model import Detector, DetectorConfig, FrontendBatch, extract_frontend
from .modelfile import load_model, save_model
from .runconfig import RunConfig, load_run_config, run_config_from_dict
from .sida import (DESCRIPTOR_LENGTH, SidaDescriptor, assemble_descriptor,
                   moment_stats, sida_descriptor, sida_from_image)
from .spatial import BackboneConfig, SpatialBackbone
from .synth import Sample, SynthConfig, make_pair, synth_generate
from .tensor import Tensor, backward, grad_check
from .train import Adam, TrainConfig, adam_step, bce_loss, evaluate, train

__version__ = "0.1.0"
