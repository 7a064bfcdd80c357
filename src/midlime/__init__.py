"""Explanations for black-box music-emotion predictors.

Two layers of attribution: per-segment spectrogram attribution of a
mid-level output (perturbation-based, with p-value driven feature
selection), and exact decomposition of emotion outputs into per-mid-feature
effects through the model's linear head. Includes audible renderings of the
explanatory regions via phase-retrieval resynthesis.
"""

__version__ = "0.1.0"

from .audio import AudioClip, decode_wav, encode_wav
from .dsp import (
    SCALE_DB,
    SCALE_MAGNITUDE,
    ComplexSpectrogram,
    Spectrogram,
    StftConfig,
    griffin_lim,
    griffin_lim_trace,
    istft,
    magnitude_db,
    stft,
)
from .effects import (
    EffectsMatrix,
    head_discrepancy,
    instance_effects,
    top_effect,
)
from .errors import MidlimeError
from .lime import (
    FillStrategy,
    Instance,
    LimeConfig,
    LimeExplanation,
    MaskBatch,
    SurrogateFit,
    explain_instance,
    fit_surrogate,
    sample_masks,
    select_features,
    stability_score,
)
from .predictor import (
    BuiltinPredictor,
    ConstantPredictor,
    ExternalPredictor,
    LinearHead,
    PredictorCapabilities,
)
from .pipeline import (
    ExplanationBundle,
    RunConfig,
    run_explanation,
    run_stability,
    synthesize_modified,
)
from .segmentation import (
    SegmentationConfig,
    SegmentMap,
    felzenszwalb_segment,
    gaussian_smooth,
)

__all__ = [
    "__version__",
    "AudioClip", "decode_wav", "encode_wav",
    "SCALE_DB", "SCALE_MAGNITUDE", "ComplexSpectrogram", "Spectrogram",
    "StftConfig", "griffin_lim", "griffin_lim_trace",
    "istft", "magnitude_db", "stft",
    "EffectsMatrix", "head_discrepancy", "instance_effects", "top_effect",
    "MidlimeError",
    "FillStrategy", "Instance", "LimeConfig", "LimeExplanation", "MaskBatch",
    "SurrogateFit",
    "explain_instance", "fit_surrogate",
    "sample_masks", "select_features", "stability_score",
    "BuiltinPredictor", "ConstantPredictor", "ExternalPredictor", "LinearHead",
    "PredictorCapabilities",
    "ExplanationBundle", "RunConfig", "run_explanation", "run_stability",
    "synthesize_modified",
    "SegmentationConfig", "SegmentMap", "felzenszwalb_segment",
    "gaussian_smooth",
]
