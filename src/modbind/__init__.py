"""modbind: hub-and-spoke multimodal contrastive embedding engine.

Trains per-modality MLP encoders into one shared embedding space using only
hub-paired batches, then measures the alignment that emerges between modality
pairs that were never trained together: zero-shot prototype classification,
cross-modal retrieval, few-shot probes, and embedding arithmetic, all on a
seeded synthetic multimodal world with known ground truth.
"""

__version__ = "0.1.0"
