"""Early malware detection from API-call n-grams plus next-call prediction."""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    CorpusError,
    LabeledTrace,
    SplitSpec,
    collapse_consecutive_repeats,
    load_corpus,
    parse_corpus,
    random_oversample,
    save_corpus,
    serialize_corpus,
    stratified_split,
    truncate_prefix,
)
from .ngrams import (
    NGramVocabulary,
    PrefixSample,
    build_vocabulary,
    class_frequency,
    prefix_samples,
    vectorize,
)
from .gbdt import (
    BaggedDetector,
    GbdtConfig,
    GbdtModel,
    default_bagging_configs,
    ensemble_predict,
    predict_proba,
    rank_features,
    train_bagged,
    train_gbdt,
)
from .seqmodel import (
    AdamState,
    BiLstmConfig,
    BiLstmModel,
    TrainReport,
    batch_loss,
    forward,
    init_model,
    lstm_cell,
    predict_next,
    predict_next_k,
    train,
    train_step,
)
from .metrics import (
    AucReport,
    ConfusionMatrix,
    MetricsReport,
    binary_metrics,
    confusion,
    rare_label_report,
    roc_auc_per_label,
    weighted_metrics,
)
