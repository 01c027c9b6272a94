"""Speech-act type detection for developer Q/A conversation turns."""

from .balance import DenseExample, nearest_neighbors, oversample, smote_balance, synthesize
from .classifier import (
    BinaryClassifier,
    MultiLabelModel,
    TrainingData,
    fit_binary,
    fit_multilabel,
    load_model,
    predict_proba,
    save_model,
    train_model,
)
from .config import Hyperparams, RunConfig
from .corpus import (
    Conversation,
    CorpusStats,
    LabelCatalog,
    ModelingExample,
    Turn,
    corpus_stats,
    load_catalog,
    load_transcripts,
    modeling_examples,
    parse_transcripts,
    serialize_transcripts,
    validate,
)
from .evaluate import (
    FeatureRanking,
    FoldPlan,
    MetricsReport,
    MetricsRow,
    cross_validate,
    fisher_score,
    per_label_metrics,
    rank_features,
    stratified_kfold,
    weighted_average,
)
from .featurize import (
    ContextState,
    ScalingParams,
    Vocabulary,
    conversation_context,
    fit_scaling,
    tokenize,
)

__version__ = "0.1.0"
