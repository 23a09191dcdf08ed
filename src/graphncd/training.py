"""Two-phase training pipeline.

Phase 1 pretrains encoder plus old-class head with supervised cross-entropy.
Phase 2 freezes a copy of the encoder for distillation, attaches a novel
head and an extended joint head, and runs the combined discovery/retention
objective full-batch. Gradient routing falls out of the graph structure:

  pairwise + perturb   update encoder and novel head
  self-training        updates encoder and joint head
  replay               updates joint head only (samples bypass the encoder)
  distill              updates encoder only

The pretrained old head is kept read-only after phase 1 starts; the frozen
encoder copy is never registered with the optimizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, backward
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
# operator_for is unused here, but perfbench/spans.py hooks it, so it stays bound
from .graph import ClassSplit, Graph, operator_for, validate_split  # noqa: F401
from .metrics import MetricsReport, aa_af, evaluate_joint
from .models import (BACKBONES, EncoderInput, EncoderParams, HeadParams, encode,
                     encoder_parameters, extend_head, freeze_encoder, head_forward,
                     head_parameters, init_encoder, init_head)
from .ncd_losses import (LOSS_TERMS, LossWeights, Prototypes, assign_pseudo_labels,
                         batch_sigma, compute_prototypes, distill_loss, pairwise_bce,
                         pairwise_similarity, perturb_consistency_loss,
                         perturb_representations, replay_loss, sample_prototype_batch,
                         scheduled_total, self_training_loss, topk_pseudo_pairs)
from .optim import AdamState, adam_init, adam_step

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
    sigma_mode: str = "empirical"
    eq8_head: str = "novel"
    init_scale: float = 0.01
    per_class_replay: int = 32
    novel_alignment: str = "hungarian"
    normalize_features: bool = False

    def validate(self) -> None:
        if self.backbone not in ("gcn", "sage"):
            raise ValueError(f"backbone must be gcn or sage, got {self.backbone!r}")
        if self.hidden not in ALLOWED_HIDDEN:
            raise ValueError(f"hidden must be one of {ALLOWED_HIDDEN}, got {self.hidden}")
        if not 2 <= self.layers <= MAX_LAYERS:
            raise ValueError(f"layers must be in [2, {MAX_LAYERS}], got {self.layers}")
        if self.eq8_head not in ("novel", "joint"):
            raise ValueError(f"eq8_head must be novel or joint, got {self.eq8_head!r}")
        if self.sigma_mode not in ("empirical", "unit"):
            raise ValueError(f"sigma_mode must be empirical or unit, got {self.sigma_mode!r}")
        if self.novel_alignment not in ("hungarian", "positional"):
            raise ValueError(
                f"novel_alignment must be hungarian or positional, got {self.novel_alignment!r}")
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
    encoder: EncoderParams
    old_head: HeadParams
    frozen_encoder: EncoderParams | None = None
    novel_head: HeadParams | None = None
    joint_head: HeadParams | None = None
    adam: AdamState | None = None
    phase: int = 1


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
        out.append((f"encoder.w{i}", w))
        out.append((f"encoder.b{i}", b))
    out.append(("old_head.w", state.old_head.weight))
    out.append(("old_head.b", state.old_head.bias))
    if state.novel_head is not None:
        out.append(("novel_head.w", state.novel_head.weight))
        out.append(("novel_head.b", state.novel_head.bias))
    if state.joint_head is not None:
        out.append(("joint_head.w", state.joint_head.weight))
        out.append(("joint_head.b", state.joint_head.bias))
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
    state.adam = adam_init(params, cfg.lr, cfg.weight_decay)

    old_index = {c: i for i, c in enumerate(split.old_classes)}
    tr = np.asarray(split.p1_train, dtype=np.int64)
    va = np.asarray(split.p1_val, dtype=np.int64)
    y_tr = np.array([old_index[int(c)] for c in g.labels[tr]], dtype=np.int64)
    y_va = np.array([old_index[int(c)] for c in g.labels[va]], dtype=np.int64)
    tr_in, va_in = inp.at(tr), inp.at(va)

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
        adam_step(params, grads, state.adam)

        z_va = encode(freeze_encoder(enc), va_in).data
        val_logits = z_va @ old_head.weight.data + old_head.bias.data
        val_acc = float(np.mean(np.argmax(val_logits, axis=1) == y_va))
        rows.append({"epoch": epoch, "loss": loss_val, "val_acc": val_acc})
        if val_acc > best_val:
            best_epoch, best_val, best_snap = epoch, val_acc, _snapshot(named)

    protos = compute_prototypes(encode(freeze_encoder(enc), tr_in).data,
                                g.labels[tr], split.old_classes)
    return state, protos, PretrainLog(rows=rows, best_epoch=best_epoch,
                                      best_val_acc=best_val, best_snapshot=best_snap)


def ncd_train(state: ModelState, protos: Prototypes, g: Graph, split: ClassSplit,
              cfg: TrainConfig, inp: EncoderInput) -> tuple[ModelState, NcdLog]:
    """Phase-2 discovery loop with early stopping on the smoothed total loss,
    encoding on ``inp``.

    Freezes a copy of the incoming encoder as the distillation anchor,
    attaches novel and joint heads, and trains full-batch on phase-2 train
    nodes. Stops once the exponentially smoothed total has not improved by
    more than 1e-4 for `patience` epochs and restores the best snapshot."""
    cfg.validate()
    validate_split(g, split)
    if protos.mean.shape[0] != len(split.old_classes):
        raise ValueError(f"{protos.mean.shape[0]} prototypes for "
                         f"{len(split.old_classes)} old classes")
    n_old, n_new = len(split.old_classes), len(split.new_classes)
    repr_dim = state.encoder.repr_dim

    state.frozen_encoder = freeze_encoder(state.encoder)
    state.novel_head = init_head(repr_dim, n_new, derive_seed(cfg.seed, _SEED_NOVEL_HEAD))
    state.joint_head = extend_head(state.old_head, n_new, cfg.init_scale,
                                   derive_seed(cfg.seed, _SEED_JOINT_EXT))
    state.phase = 2
    params = (encoder_parameters(state.encoder)
              + head_parameters(state.novel_head)
              + head_parameters(state.joint_head))
    state.adam = adam_init(params, cfg.lr, cfg.weight_decay)

    u_in = inp.at(split.p2_train)  # the live and the frozen encoder share it
    zf_u = encode(state.frozen_encoder, u_in)  # constant all phase
    # joint-head columns of the replayed labels, in the class-major layout
    # sample_prototype_batch returns every epoch
    old_index = {c: i for i, c in enumerate(split.old_classes)}
    idx_r = np.repeat([old_index[c] for c in protos.class_ids], cfg.per_class_replay)
    joint_for_perturb = cfg.use_perturb and cfg.eq8_head == "joint"

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
        joint_u = (head_forward(state.joint_head, z_u)
                   if cfg.use_self or joint_for_perturb else None)
        terms = dict.fromkeys(LOSS_TERMS, zero)

        if cfg.use_pseudo:
            sim = pairwise_similarity(u_logits)
            pair_targets = topk_pseudo_pairs(z_u.data, cfg.top_k)
            terms["pseudo"] = pairwise_bce(sim, pair_targets)
        if cfg.use_self:
            terms["self"] = self_training_loss(joint_u,
                                               assign_pseudo_labels(u_logits.data, n_old))
        if cfg.use_perturb:
            sigma = batch_sigma(z_u.data, cfg.sigma_mode)
            z_pert = perturb_representations(z_u, cfg.eta, sigma,
                                             derive_seed(cfg.seed, _SEED_PERTURB, epoch))
            head, clean = ((state.joint_head, joint_u) if joint_for_perturb
                           else (state.novel_head, u_logits))
            terms["perturb"] = perturb_consistency_loss(clean, head_forward(head, z_pert))
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
        adam_step(params, grads, state.adam)
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


def stage_report(state: ModelState, g: Graph, split: ClassSplit, cfg: TrainConfig,
                 z: Tensor, phase1_old_acc: float | None = None) -> MetricsReport:
    """Joint evaluation of the encoder's full forward ``z`` plus the stage
    performance matrix and AA/AF."""
    rep = evaluate_joint(state, g, split, z, cfg.novel_alignment)
    rep.seed = cfg.seed
    if rep.phase == 1:
        rep.perf = np.array([[rep.old_acc]])
        rep.aa, rep.af = aa_af(rep.perf, 1)
    else:
        if phase1_old_acc is None:
            raise ValueError("phase-2 report needs the phase-1 old-class accuracy")
        rep.perf = np.array([[phase1_old_acc, np.nan],
                             [rep.old_acc, rep.new_acc]])
        rep.aa, rep.af = aa_af(rep.perf, 2)
    return rep


def run_depth_sweep(g: Graph, split: ClassSplit, cfg: TrainConfig, inp: EncoderInput,
                    layer_counts: list[int]) -> list[dict]:
    """Full pipeline per depth with everything else held fixed."""
    out = []
    for nl in layer_counts:
        c = replace(cfg, layers=int(nl))
        state, protos, _ = pretrain(g, split, c, inp)
        z = encode(freeze_encoder(state.encoder), inp)
        m11 = evaluate_joint(state, g, split, z, c.novel_alignment).old_acc
        state, _ = ncd_train(state, protos, g, split, c, inp)
        z = encode(freeze_encoder(state.encoder), inp)
        rep = stage_report(state, g, split, c, z, m11)
        out.append({"layers": int(nl), "old_acc": rep.old_acc, "new_acc": rep.new_acc,
                    "all_acc": rep.all_acc, "aa": rep.aa, "af": rep.af})
    return out


def save_state(path: str, state: ModelState, meta_extra: dict | None = None,
               snapshot: dict[str, np.ndarray] | None = None) -> None:
    """Write the state's parameters, or the given snapshot of them, plus meta.

    meta_extra entries are added to, and may override, the derived meta."""
    meta = {
        "backbone": state.encoder.backbone,
        "dims": list(state.encoder.dims),
        "phase": state.phase,
        "num_old": state.old_head.num_outputs,
        "num_new": state.novel_head.num_outputs if state.novel_head else 0,
        "step": state.adam.step if state.adam else 0,
    }
    meta.update(meta_extra or {})
    save_checkpoint(path, [(n, t.data if snapshot is None else snapshot[n])
                           for n, t in named_parameters(state)], meta)


def load_state(path: str) -> tuple[ModelState, dict]:
    """The model a checkpoint holds. CheckpointError when the meta lacks the
    geometry, or a tensor that the dims, phase or head sizes imply is absent
    or has another shape: encoder weights are d_in x d_out (twice d_in rows
    for sage), biases 1 x d_out, and the joint head is as wide as the old and
    novel heads together."""
    meta, tensors = load_checkpoint(path)
    try:
        backbone = meta["backbone"]
        dims = [int(d) for d in meta["dims"]]
        phase = int(meta.get("phase", 1))
        if backbone not in BACKBONES or len(dims) < 2 or min(dims) < 1:
            raise ValueError(f"backbone {backbone!r} with dims {dims}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: bad meta: {exc!r}") from exc

    def param(name: str, rows: int, cols: int) -> Tensor:
        if name not in tensors:
            raise CheckpointError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != (rows, cols):
            raise CheckpointError(f"{path}: tensor {name!r} has shape "
                                  f"{tensors[name].shape}, expected {(rows, cols)}")
        return ad.parameter(tensors[name])

    def head(role: str, width: int | None = None) -> HeadParams:
        """The head over dims[-1] inputs; its own weight sets the width unless given."""
        name = f"{role}_head.w"
        if width is None:
            width = tensors[name].shape[1] if name in tensors else 0
        return HeadParams(weight=param(name, dims[-1], width),
                          bias=param(f"{role}_head.b", 1, width))

    n_layers = len(dims) - 1
    rows_per_input = 2 if backbone == "sage" else 1  # sage concatenates self and mean
    enc = EncoderParams(
        backbone=backbone, dims=dims,
        weights=[param(f"encoder.w{i}", rows_per_input * dims[i], dims[i + 1])
                 for i in range(n_layers)],
        biases=[param(f"encoder.b{i}", 1, dims[i + 1]) for i in range(n_layers)])
    state = ModelState(encoder=enc, old_head=head("old"), phase=phase)
    joint = phase == 2 or "joint_head.w" in tensors
    # the joint head spans the old and novel outputs, so it needs the novel head
    if joint or meta.get("num_new") or "novel_head.w" in tensors:
        state.novel_head = head("novel")
    if joint:
        state.joint_head = head("joint", state.old_head.num_outputs
                                + state.novel_head.num_outputs)
    return state, meta
