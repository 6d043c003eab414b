"""Skip-gram embeddings with jointly learned phrase composition."""

from phrasegram.composition import (
    CompositionConfig,
    compose_rows,
    sigma,
    sigma_jacobian_diag,
)
from phrasegram.corpus import (
    ChunkedSentence,
    ParseError,
    PhraseVocab,
    Vocab,
    build_phrase_vocab,
    build_vocab,
    parse_chunked_line,
)
from phrasegram.embeddings_io import (
    export_embeddings,
    nearest_neighbors,
    read_embeddings,
)
from phrasegram.evaluation import (
    WordEmbeddings,
    analogy_eval,
    cosine,
    phrase_similarity_eval,
    spearman,
    word_similarity_eval,
)
from phrasegram.model import (
    Mode,
    ModelParams,
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    init_params,
)
from phrasegram.sampling import NoiseDistribution, build_noise_distribution
from phrasegram.trainer import train

__version__ = "0.1.0"

__all__ = [
    "ChunkedSentence",
    "CompositionConfig",
    "Mode",
    "ModelParams",
    "NoiseDistribution",
    "ParseError",
    "PhraseVocab",
    "TrainConfig",
    "Vocab",
    "WordEmbeddings",
    "analogy_eval",
    "build_noise_distribution",
    "build_phrase_vocab",
    "build_vocab",
    "checkpoint_load",
    "checkpoint_save",
    "compose_rows",
    "cosine",
    "export_embeddings",
    "init_params",
    "nearest_neighbors",
    "parse_chunked_line",
    "phrase_similarity_eval",
    "read_embeddings",
    "sigma",
    "sigma_jacobian_diag",
    "spearman",
    "train",
    "word_similarity_eval",
]
