"""Synergy measures for Gaussian and discrete systems, plus autoencoders whose
decoders are fixed to the minimally-synergistic readout of batch statistics."""

from .gaussian import (
    CiPosterior,
    ConditioningError,
    DegeneracyError,
    GaussianSystem,
    Interval,
    feasible_sigma12_range,
    gaussian_ci_posterior,
    gaussian_ci_synergy,
    gaussian_mutual_information,
    gk_minimizing_covariance,
    gk_synergy,
    gk_union_information,
    pair_curve,
    wms_synergy,
)
from .discrete import (
    AbsoluteContinuityError,
    DiscreteJoint,
    ci_decoder_distribution,
    discrete_ci_synergy,
    discrete_wms_synergy,
    entropy,
    mutual_information,
    total_correlation,
)
from .decoder import (
    BinaryStats,
    DecoderParams,
    GaussianStats,
    MovingAverageState,
    binary_batch_stats,
    binary_decoder_params,
    gaussian_batch_stats,
    gaussian_decoder_params,
    update_moving_average,
)
from .nn import (
    AdamState,
    AutoencoderModel,
    DenseLayer,
    PcaModel,
    Regularizer,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    build_autoencoder,
    forward,
    gradients,
    loss,
    pca_fit,
    sample_losses,
    train_autoencoder,
)
from .idx import IdxParseError, IdxTensor, parse_idx, read_idx_file, write_idx, write_idx_file
from .words import (
    WordDataset,
    build_word_dataset,
    builtin_glyph,
    builtin_glyphs,
    derive_letters_by_position,
    synthetic_digits,
)
from .noise import NOISE_KINDS, apply_noise
from .metrics import (acc_score, build_report, noise_losses, reconstruction_loss,
                      reconstruction_losses)

__version__ = "0.1.0"
