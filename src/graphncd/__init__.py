"""Stage-wise novel class discovery for node classification.

Pretrain a graph encoder on labeled old-class nodes, then discover new
classes from unlabeled nodes with rank-statistics pairwise pseudo labels,
joint-head self-training, representation perturbation, prototype replay,
and feature distillation. A single task-agnostic joint head serves every
class at inference.
"""
from .autodiff import SparseMatrix, Tensor, backward, grad_check
from .graph import (ClassSplit, Graph, load_graph, mean_adjacency,
                    normalize_adjacency, save_graph, sbm_generate, split_classes)
from .metrics import MetricsReport, aa_af, evaluate_joint, hungarian_match
from .models import (EncoderInput, EncoderParams, HeadParams, encode, extend_head,
                     head_forward, init_encoder, init_head)
from .ncd_losses import (LossWeights, Prototypes, assign_pseudo_labels,
                         compute_prototypes, distill_loss, pairwise_bce,
                         pairwise_similarity, perturb_consistency_loss,
                         perturb_representations, rampup, replay_loss,
                         sample_prototype_batch, self_training_loss,
                         topk_pseudo_pairs)
from .optim import AdamState, adam_init, adam_step
from .training import (ModelState, TrainConfig, TrainingDiverged, ncd_train,
                       pretrain, run_depth_sweep, stage_report)

__version__ = "0.1.0"
