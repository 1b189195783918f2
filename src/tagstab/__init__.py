"""Stability measures and generative models for social annotation streams."""

from .errors import (
    DataError,
    EmptyInputError,
    IngestionError,
    InsufficientDataError,
    ParameterError,
    TagStabError,
)
from .generators import (
    BackgroundDistribution,
    GeneratorConfig,
    generate_corpus,
    generate_stream,
    load_background,
    zipf_background,
)
from .ingest import (
    IngestionReport,
    ingest_tag_log,
    ingest_text_corpus,
    read_background_file,
    tokenize,
    write_tag_log,
)
from .measures import (
    RboParams,
    RboTrajectory,
    kl_divergence,
    kl_random_baseline,
    kl_topk_trajectory,
    rbo,
    rbo_trajectory,
    weight_of_prefix,
)
from .powerlaw import (
    ModelComparison,
    PowerLawFit,
    RatioTest,
    ccdf,
    compare_distributions,
    fit_power_law,
)
from .stability import (
    StabilitySurface,
    classify_stability,
    stability_surface,
    stabilization_fraction,
    window_rbo,
)
from .streams import (
    FrequencySnapshot,
    RankedList,
    RankEntry,
    TagStream,
    normalize_tag,
    proportion_trajectory,
    rank,
    snapshot,
)

__version__ = "0.1.0"
