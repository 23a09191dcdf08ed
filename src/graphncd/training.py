"""Two-phase training pipeline.

Phase 1 pretrains encoder plus old-class head with supervised cross-entropy.
Phase 2 freezes a copy of the encoder for distillation, attaches a novel
head and an extended joint head, and runs the combined discovery/retention
objective full-batch. Gradient routing falls out of the graph structure:

  pairwise + perturb   update encoder and novel head
  self-training        updates encoder and joint head
  replay               updates joint head only (samples bypass the encoder)
  distill              updates encoder only

The old head is read-only in phase 2. A ModelState is the model alone: the
Adam state and the frozen anchor are locals, and phase 2 trains a copy.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
# operator_for is unused here, but perfbench/spans.py hooks it, so it stays bound
from .graph import ClassSplit, Graph, operator_for, validate_split  # noqa: F401
from .metrics import evaluate_joint
from .models import (BACKBONES, EncoderInput, EncoderParams, HeadParams, encode,
                     encoder_parameters, extend_head, freeze_encoder, head_forward,
                     head_parameters, init_encoder, init_head, weight_rows)
from .ncd_losses import (LOSS_TERMS, LossWeights, Prototypes, assign_pseudo_labels,
                         batch_sigma, compute_prototypes, distill_loss, pairwise_bce,
                         pairwise_similarity, perturb_consistency_loss,
                         perturb_representations, replay_loss, sample_prototype_batch,
                         scheduled_total, self_training_loss, topk_pseudo_pairs)
from .optim import adam_init, adam_step

ALLOWED_HIDDEN = (16, 32, 128)
MAX_LAYERS = 64

# purpose tags for deriving independent seed streams from the master seed
_SEED_ENCODER = 1
_SEED_OLD_HEAD = 2
_SEED_NOVEL_HEAD = 3
_SEED_JOINT_EXT = 4
_SEED_PERTURB = 5
_SEED_REPLAY = 6
SEED_SPLIT = 7
SEED_SBM = 8


class TrainingDiverged(RuntimeError):
    """A loss went NaN/Inf; carries the offending epoch's per-term report."""

    def __init__(self, message: str, report: dict | None = None):
        super().__init__(message)
        self.report = report or {}


def derive_seed(*parts: int) -> int:
    """Independent deterministic child seed from the master seed and tags."""
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


@dataclass
class TrainConfig(LossWeights):
    """The training knobs; the phase-2 loss weights come from LossWeights."""

    backbone: str = "gcn"
    hidden: int = 32
    layers: int = 2
    lr: float = 0.01
    weight_decay: float = 5e-4
    pretrain_epochs: int = 200
    ncd_epochs: int = 600
    patience: int = 50
    seed: int = 0
    use_pseudo: bool = True
    use_self: bool = True
    use_perturb: bool = True
    use_replay: bool = True
    use_distill: bool = True
    init_scale: float = 0.01
    per_class_replay: int = 32
    normalize_features: bool = False

    def validate(self) -> None:
        if self.backbone not in ("gcn", "sage"):
            raise ValueError(f"backbone must be gcn or sage, got {self.backbone!r}")
        if self.hidden not in ALLOWED_HIDDEN:
            raise ValueError(f"hidden must be one of {ALLOWED_HIDDEN}, got {self.hidden}")
        if not 2 <= self.layers <= MAX_LAYERS:
            raise ValueError(f"layers must be in [2, {MAX_LAYERS}], got {self.layers}")
        if self.top_k < 1 or self.top_k > self.hidden:
            raise ValueError(f"top_k must be in [1, hidden={self.hidden}], got {self.top_k}")
        # chained comparisons hold for ints of any size and fail for NaN
        for name in ("lr", "pretrain_epochs", "ncd_epochs", "patience",
                     "per_class_replay"):
            v = getattr(self, name)
            if not 0 < v < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(
                f"weight_decay must be finite and non-negative, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class ModelState:
    """The encoder and its heads; the novel and joint heads come with phase 2."""
    encoder: EncoderParams
    old_head: HeadParams
    novel_head: HeadParams | None = None
    joint_head: HeadParams | None = None

    @property
    def phase(self) -> int:
        return 2 if self.joint_head is not None else 1


@dataclass
class PretrainLog:
    rows: list[dict]
    best_epoch: int
    best_val_acc: float
    best_snapshot: dict[str, np.ndarray]


@dataclass
class NcdLog:
    rows: list[dict]
    epochs_run: int
    best_epoch: int
    best_smoothed: float
    stopped_early: bool
    final_snapshot: dict[str, np.ndarray]


def named_parameters(state: ModelState) -> list[tuple[str, Tensor]]:
    """Stable (name, tensor) listing of every present model component."""
    out: list[tuple[str, Tensor]] = []
    for i, (w, b) in enumerate(zip(state.encoder.weights, state.encoder.biases)):
        out += [(f"encoder.w{i}", w), (f"encoder.b{i}", b)]
    for role in ("old", "novel", "joint"):
        head = getattr(state, f"{role}_head")
        if head is not None:
            out += [(f"{role}_head.w", head.weight), (f"{role}_head.b", head.bias)]
    return out


def _snapshot(named: list[tuple[str, Tensor]]) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in named}


def _restore(named: list[tuple[str, Tensor]], snap: dict[str, np.ndarray]) -> None:
    for name, t in named:
        t.data[...] = snap[name]


def pretrain(g: Graph, split: ClassSplit, cfg: TrainConfig,
             inp: EncoderInput) -> tuple[ModelState, Prototypes, PretrainLog]:
    """Supervised phase-1 training on old-class nodes, encoding on ``inp``.

    Runs the full epoch budget; the final state ships to phase 2 and the
    prototypes are computed from it, so replayed samples match the encoder
    that phase 2 actually starts from. The best-validation snapshot is
    returned in the log for archival."""
    cfg.validate()
    validate_split(g, split)
    dims = [g.feat_dim] + [cfg.hidden] * cfg.layers
    enc = init_encoder(cfg.backbone, dims, derive_seed(cfg.seed, _SEED_ENCODER))
    old_head = init_head(cfg.hidden, len(split.old_classes),
                         derive_seed(cfg.seed, _SEED_OLD_HEAD))
    state = ModelState(encoder=enc, old_head=old_head)
    params = encoder_parameters(enc) + head_parameters(old_head)
    adam = adam_init(params, cfg.lr, cfg.weight_decay)

    old_index = {c: i for i, c in enumerate(split.old_classes)}
    tr = np.asarray(split.p1_train, dtype=np.int64)
    va = np.asarray(split.p1_val, dtype=np.int64)
    y_tr = np.array([old_index[int(c)] for c in g.labels[tr]], dtype=np.int64)
    y_va = np.array([old_index[int(c)] for c in g.labels[va]], dtype=np.int64)
    tr_in, va_in = inp.at(tr, enc.num_layers), inp.at(va, enc.num_layers)

    named = named_parameters(state)
    rows: list[dict] = []
    best_epoch, best_val, best_snap = -1, -np.inf, _snapshot(named)
    for epoch in range(cfg.pretrain_epochs):
        logits = head_forward(old_head, encode(enc, tr_in))
        loss = ad.nll_rows(ad.log_softmax_rows(logits), y_tr)
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            raise TrainingDiverged(
                f"pretrain loss is not finite at epoch {epoch}: {loss_val}",
                {"epoch": epoch, "loss": loss_val})
        grads = backward(loss, params)
        adam_step(params, grads, adam)

        z_va = encode(freeze_encoder(enc), va_in).data
        val_logits = z_va @ old_head.weight.data + old_head.bias.data
        val_acc = float(np.mean(np.argmax(val_logits, axis=1) == y_va))
        rows.append({"epoch": epoch, "loss": loss_val, "val_acc": val_acc})
        if val_acc > best_val:
            best_epoch, best_val, best_snap = epoch, val_acc, _snapshot(named)

    protos = compute_prototypes(encode(freeze_encoder(enc), tr_in).data,
                                g.labels[tr], split.old_classes)
    # phase 2 samples replay from these, and refuses them unless finite
    if not protos.are_finite():
        last = cfg.pretrain_epochs - 1
        raise TrainingDiverged(f"pretrain prototypes are not finite after epoch {last}",
                               {"epoch": last})
    return state, protos, PretrainLog(rows=rows, best_epoch=best_epoch,
                                      best_val_acc=best_val, best_snapshot=best_snap)


def ncd_train(state: ModelState, protos: Prototypes, split: ClassSplit,
              cfg: TrainConfig, inp: EncoderInput) -> tuple[ModelState, NcdLog]:
    """Phase-2 discovery loop with early stopping on the smoothed total loss,
    encoding on ``inp``; returns a new state and leaves ``state`` unchanged.
    It reads no label, only ``inp``, the split's class lists and ``p2_train``
    rows, and the phase-1 model and prototypes: ValueError for an empty
    ``p2_train`` or prototypes not one per old class (in any order).

    Trains a copy of the incoming model: freezes its encoder as the distillation
    anchor, attaches novel and joint heads, and trains full-batch on phase-2
    train nodes. Stops once the exponentially smoothed total has not improved
    by more than 1e-4 for `patience` epochs and restores the best snapshot."""
    cfg.validate()
    if not split.p2_train:
        raise ValueError("p2_train is empty")
    ids = protos.class_ids.tolist()
    if sorted(ids) != sorted(split.old_classes) or len(protos.mean) != len(ids):
        raise ValueError(f"{len(protos.mean)} prototypes of classes {ids} "
                         f"for old classes {split.old_classes}")
    n_old, n_new = len(split.old_classes), len(split.new_classes)
    repr_dim = state.encoder.repr_dim

    state = copy.deepcopy(state)  # shares no tensor with the caller's
    anchor = freeze_encoder(state.encoder)
    state.novel_head = init_head(repr_dim, n_new, derive_seed(cfg.seed, _SEED_NOVEL_HEAD))
    state.joint_head = extend_head(state.old_head, n_new, cfg.init_scale,
                                   derive_seed(cfg.seed, _SEED_JOINT_EXT))
    params = (encoder_parameters(state.encoder)
              + head_parameters(state.novel_head)
              + head_parameters(state.joint_head))
    adam = adam_init(params, cfg.lr, cfg.weight_decay)

    # the live and the frozen encoder share it
    u_in = inp.at(split.p2_train, state.encoder.num_layers)
    zf_u = encode(anchor, u_in)  # constant all phase
    # joint-head columns of the replayed labels, in the class-major layout
    # sample_prototype_batch returns every epoch
    old_index = {c: i for i, c in enumerate(split.old_classes)}
    idx_r = np.repeat([old_index[c] for c in protos.class_ids], cfg.per_class_replay)

    named = named_parameters(state)
    zero = ad.constant([[0.0]])
    rows: list[dict] = []
    smoothed = None
    best_smoothed, best_epoch, best_snap = np.inf, -1, None
    wait = 0
    stopped_early = False
    # totals from different beta schedules are different objectives, so the
    # stopping rule only compares epochs after the warmup ramp has finished
    track_from = cfg.rampup_length

    for epoch in range(cfg.ncd_epochs):
        z_u = encode(state.encoder, u_in)
        u_logits = head_forward(state.novel_head, z_u)
        terms = dict.fromkeys(LOSS_TERMS, zero)

        if cfg.use_pseudo:
            # passed straight in, so no epoch's n x n arrays outlive its loss
            terms["pseudo"] = pairwise_bce(pairwise_similarity(u_logits),
                                           topk_pseudo_pairs(z_u.data, cfg.top_k))
        if cfg.use_self:
            terms["self"] = self_training_loss(head_forward(state.joint_head, z_u),
                                               assign_pseudo_labels(u_logits.data, n_old))
        if cfg.use_perturb:
            z_pert = perturb_representations(z_u, cfg.eta, batch_sigma(z_u.data),
                                             derive_seed(cfg.seed, _SEED_PERTURB, epoch))
            terms["perturb"] = perturb_consistency_loss(
                u_logits, head_forward(state.novel_head, z_pert))
        if cfg.use_replay:
            feats_r, _ = sample_prototype_batch(
                protos, cfg.per_class_replay, derive_seed(cfg.seed, _SEED_REPLAY, epoch))
            terms["replay"] = replay_loss(
                head_forward(state.joint_head, ad.constant(feats_r)), idx_r)
        if cfg.use_distill:
            terms["distill"] = distill_loss(zf_u, z_u)

        total_t, report = scheduled_total(terms, cfg, epoch)
        report["epoch"] = epoch
        if not all(np.isfinite(v) for v in report.values()):
            raise TrainingDiverged(
                f"phase-2 loss not finite at epoch {epoch}: {report}", report)

        grads = backward(total_t, params)
        adam_step(params, grads, adam)
        rows.append(report)

        if epoch >= track_from:
            total = report["total"]
            smoothed = total if smoothed is None else 0.9 * smoothed + 0.1 * total
            if smoothed < best_smoothed - 1e-4:
                best_smoothed, best_epoch, best_snap = smoothed, epoch, _snapshot(named)
                wait = 0
            else:
                wait += 1
                if wait >= cfg.patience:
                    stopped_early = True
                    break

    final_snap = _snapshot(named)
    if best_snap is not None:
        _restore(named, best_snap)
    return state, NcdLog(rows=rows, epochs_run=len(rows), best_epoch=best_epoch,
                         best_smoothed=float(best_smoothed),
                         stopped_early=stopped_early, final_snapshot=final_snap)


def run_depth_sweep(g: Graph, split: ClassSplit, cfg: TrainConfig, inp: EncoderInput,
                    layer_counts: list[int]) -> list[dict]:
    """Full pipeline per depth with everything else held fixed."""
    out = []
    for nl in layer_counts:
        c = replace(cfg, layers=int(nl))
        state, protos, _ = pretrain(g, split, c, inp)
        z = encode(freeze_encoder(state.encoder), inp)
        m11 = evaluate_joint(state, g, split, z).old_acc
        state, _ = ncd_train(state, protos, split, c, inp)
        z = encode(freeze_encoder(state.encoder), inp)
        rep = evaluate_joint(state, g, split, z, phase1_old_acc=m11)
        out.append({"layers": int(nl), "old_acc": rep.old_acc, "new_acc": rep.new_acc,
                    "all_acc": rep.all_acc, "aa": rep.aa, "af": rep.af})
    return out


def save_state(path: str, state: ModelState, meta_extra: dict | None = None,
               snapshot: dict[str, np.ndarray] | None = None) -> None:
    """Write the state's parameters, or the given snapshot of them, with its
    geometry as meta; meta_extra (e.g. the optimizer ``step``) adds or overrides keys."""
    meta = {
        "backbone": state.encoder.backbone,
        "dims": list(state.encoder.dims),
        "phase": state.phase,
        "num_old": state.old_head.num_outputs,
        "num_new": state.novel_head.num_outputs if state.novel_head else 0,
    }
    meta.update(meta_extra or {})
    save_checkpoint(path, [(n, t.data if snapshot is None else snapshot[n])
                           for n, t in named_parameters(state)], meta)


def load_state(path: str) -> tuple[ModelState, dict]:
    """The model a checkpoint holds. The meta's geometry, as save_state writes
    it (backbone, dims, phase, num_old, num_new), names every tensor and its
    shape: a novel head iff num_new > 0, a joint head num_old + num_new wide iff
    phase 2. CheckpointError for a missing geometry key or one that is not an
    int of its range, and for a missing, unexpected or misshapen tensor."""
    meta, tensors = load_checkpoint(path)
    try:
        backbone, dims = meta["backbone"], list(meta["dims"])
        phase, num_old, num_new = (meta[k] for k in ("phase", "num_old", "num_new"))
        if (backbone not in BACKBONES or len(dims) < 2
                or not all(type(v) is int for v in (*dims, phase, num_old, num_new))
                or min(dims) < 1 or phase not in (1, 2) or num_old < 1 or num_new < phase - 1):
            raise ValueError(f"backbone {backbone!r}, dims {dims}, phase {phase}, "
                             f"num_old {num_old}, num_new {num_new}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad meta: {exc!r}") from exc
    shapes = {}
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        shapes[f"encoder.w{i}"] = (weight_rows(backbone, d_in), d_out)
        shapes[f"encoder.b{i}"] = (1, d_out)
    heads = {"old": num_old, "novel": num_new, "joint": (num_old + num_new) * (phase == 2)}
    for role, width in heads.items():
        if width:
            shapes[f"{role}_head.w"], shapes[f"{role}_head.b"] = (dims[-1], width), (1, width)
    for name in dict.fromkeys([*shapes, *tensors]):
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if name not in shapes:
            raise CheckpointError(f"{path}: unexpected tensor {name!r}")
        if tensors[name].shape != shapes[name]:
            raise CheckpointError(f"{path}: tensor {name!r} has shape "
                                  f"{tensors[name].shape}, expected {shapes[name]}")
    p = {name: ad.parameter(a) for name, a in tensors.items()}
    n_layers = len(dims) - 1
    enc = EncoderParams(backbone=backbone, dims=dims,
                        weights=[p[f"encoder.w{i}"] for i in range(n_layers)],
                        biases=[p[f"encoder.b{i}"] for i in range(n_layers)])
    head = {role: HeadParams(weight=p[f"{role}_head.w"], bias=p[f"{role}_head.b"])
            for role, width in heads.items() if width}
    return ModelState(enc, head["old"], head.get("novel"), head.get("joint")), meta
