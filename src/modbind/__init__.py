"""modbind: hub-and-spoke multimodal contrastive embedding engine.

Trains per-modality MLP encoders into one shared embedding space using only
hub-paired batches, then measures the alignment that emerges between modality
pairs that were never trained together: zero-shot prototype classification,
cross-modal retrieval, few-shot probes, and embedding arithmetic, all on a
seeded synthetic multimodal world with known ground truth.
"""

__version__ = "0.1.0"

from .contrastive import (  # noqa: E402,F401
    LossOutput,
    TemperatureParam,
    info_nce,
    l2_regression_loss,
    symmetric_info_nce,
)
from .encoders import EncoderArch, EncoderParams, encode, encode_backward, init_encoder  # noqa: F401
from .evaluation import (  # noqa: F401
    EvalPlan,
    PrototypeBank,
    RetrievalIndex,
    build_prototypes,
    cross_modal_recall_at_k,
    embed_arithmetic,
    emergent_zero_shot_accuracy,
    few_shot_probe,
    few_shot_probes,
    frozen_hub_eval,
    run_eval_plan,
    zero_shot_classify,
)
from .report import MetricsReport, canonical_hash  # noqa: F401
from .trainer import (  # noqa: F401
    PairConfig,
    TrainConfig,
    TrainState,
    adamw_step,
    clip_global_norm,
    init_train_state,
    load_checkpoint,
    save_checkpoint,
    train_run,
)
from .world import (  # noqa: F401
    ModalityConfig,
    WorldConfig,
    WorldSpec,
    make_eval_set,
    make_world,
    stream_rng,
)
