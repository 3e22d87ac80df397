"""RL refinement of speaker embeddings in a seeded synthetic voice space."""

from .core import (
    FSAction,
    RLConfig,
    SSAction,
    StateLayout,
    apply_ss,
    fuse_fs,
    mean_init,
)
from .scoring import (
    RewardWeights,
    ScoreRangeError,
    ScoreTriple,
    ScorerFault,
    fuse_scores,
    score_speech,
)
from .env import (
    SpeakerProfile,
    SyntheticVoiceEnv,
    TradeoffEnv,
    Transition,
    oracle_best,
)
from .agent import (
    PolicyNetwork,
    RolloutBatch,
    gae,
    load_checkpoint,
    ppo_update,
    save_checkpoint,
    select_action,
)
from .harness import (
    Corpus,
    ExperimentSpec,
    ablate,
    evaluate,
    finetune_proxy,
    gen_corpus,
    load_corpus,
    sweep,
    train,
)
from .external_scorer import ExternalScorerClient

__version__ = "0.1.0"
