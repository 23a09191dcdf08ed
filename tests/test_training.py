"""Two-phase pipeline: routing, freezing, early stopping, determinism."""
import copy
import inspect
import os
import typing
import weakref
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import graphncd.autodiff as ad
import graphncd.ncd_losses as ncd_losses
import graphncd.training as training
from graphncd.autodiff import SparseMatrix
from graphncd.graph import (ClassSplit, Graph, mean_adjacency, operator_for, sbm_generate,
                            split_classes)
from graphncd.metrics import evaluate_joint, joint_predictions
from graphncd.models import EncoderInput, EncoderParams, HeadParams, encode, freeze_encoder
from graphncd.ncd_losses import Prototypes
from graphncd.training import (ModelState, NcdLog, TrainConfig,
                               TrainingDiverged, derive_seed, named_parameters,
                               ncd_train, pretrain, run_depth_sweep,
                               SEED_SBM, SEED_SPLIT)


def _data(seed=0):
    g = sbm_generate([15] * 4, 0.4, 0.03, 6, 2.5, seed=derive_seed(seed, SEED_SBM))
    split = split_classes(g, [0, 1], [2, 3], seed=derive_seed(seed, SEED_SPLIT))
    return g, split


def _input(g, backbone="gcn"):
    return EncoderInput.build(backbone, operator_for(backbone, g), ad.constant(g.features))


def _z(state, g):
    """The full forward the stage reports evaluate."""
    return encode(freeze_encoder(state.encoder), _input(g))


def _cfg(**over):
    base = dict(hidden=16, pretrain_epochs=15, ncd_epochs=30, seed=0,
                rampup_length=5, top_k=3)
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def pretrained():
    g, split = _data()
    cfg = _cfg()
    state, protos, plog = pretrain(g, split, cfg, _input(g))
    return g, split, cfg, state, protos, plog


def _params_snapshot(state):
    return {n: t.data.copy() for n, t in named_parameters(state)}


# ----------------------------------------------------------------- pretrain

def test_pretrain_learns_old_classes(pretrained):
    g, split, _, state, protos, plog = pretrained
    rep = evaluate_joint(state, g, split, _z(state, g))
    assert rep.phase == 1
    assert rep.old_acc >= 0.8
    assert rep.perf.shape == (1, 1) and rep.aa == rep.old_acc and rep.af == 0.0


def test_pretrain_log_rows_and_best(pretrained):
    _, _, cfg, _, _, plog = pretrained
    assert len(plog.rows) == cfg.pretrain_epochs
    assert [r["epoch"] for r in plog.rows] == list(range(cfg.pretrain_epochs))
    assert all(np.isfinite(r["loss"]) for r in plog.rows)
    vals = [r["val_acc"] for r in plog.rows]
    assert plog.best_val_acc == max(vals)
    assert vals[plog.best_epoch] == plog.best_val_acc
    assert set(plog.best_snapshot) == {n for n, _ in
                                       named_parameters_stub(cfg)}


def named_parameters_stub(cfg):
    # expected names for a phase-1 gcn state with cfg.layers layers
    names = []
    for i in range(cfg.layers):
        names += [(f"encoder.w{i}", None), (f"encoder.b{i}", None)]
    names += [("old_head.w", None), ("old_head.b", None)]
    return names


def test_pretrain_prototypes_cover_old_classes(pretrained):
    g, split, cfg, state, protos, _ = pretrained
    assert protos.mean.shape == (2, cfg.hidden)
    assert np.array_equal(protos.class_ids, split.old_classes)
    counts = [np.sum(g.labels[split.p1_train] == c) for c in split.old_classes]
    assert np.array_equal(protos.counts, counts)


def test_pretrain_deterministic():
    g, split = _data(seed=3)
    a, _, loga = pretrain(g, split, _cfg(seed=3), _input(g))
    b, _, logb = pretrain(g, split, _cfg(seed=3), _input(g))
    for (na, ta), (nb, tb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb and np.array_equal(ta.data, tb.data)
    assert loga.rows == logb.rows
    c, _, _ = pretrain(g, split, _cfg(seed=4), _input(g))
    assert not np.array_equal(a.encoder.weights[0].data,
                              c.encoder.weights[0].data)


def test_pretrain_validates_config():
    g, split = _data()
    with pytest.raises(ValueError):
        pretrain(g, split, _cfg(hidden=17), _input(g))
    with pytest.raises(ValueError):
        pretrain(g, split, _cfg(layers=1), _input(g))
    with pytest.raises(ValueError):
        pretrain(g, split, _cfg(top_k=99), _input(g))
    with pytest.raises(ValueError, match="seed"):
        pretrain(g, split, _cfg(seed=-1), _input(g))
    # an int too large for a float or a numpy int64 is still compared exactly
    with pytest.raises(ValueError, match="per_class_replay"):
        pretrain(g, split, _cfg(per_class_replay=-2 ** 63 - 1), _input(g))
    with pytest.raises(ValueError, match="patience"):
        pretrain(g, split, _cfg(patience=-10 ** 400), _input(g))
    # an input built for another backbone
    sage_in = EncoderInput.build("sage", mean_adjacency(g), ad.constant(g.features))
    with pytest.raises(ValueError, match="a gcn encoder cannot read a sage input"):
        pretrain(g, split, _cfg(backbone="gcn"), sage_in)


# ------------------------------------------------------------ phase-2 routing

def _routed(pretrained, **flags):
    g, split, cfg, state, protos, _ = pretrained
    off = dict(use_pseudo=False, use_self=False, use_perturb=False,
               use_replay=False, use_distill=False)
    off.update(flags)
    cfg2 = _cfg(ncd_epochs=3, weight_decay=0.0, **off)
    before_enc = [w.data.copy() for w in state.encoder.weights]
    state, _ = ncd_train(state, protos, split, cfg2, _input(g))
    after = _params_snapshot(state)
    return before_enc, after, state


def _changed(a, b):
    return not np.array_equal(a, b)


def test_replay_updates_joint_head_only(pretrained):
    g, split, cfg, state0, protos, _ = pretrained
    before_enc, after, state = _routed(pretrained, use_replay=True)
    # replay samples bypass the encoder entirely: it stays bitwise put
    assert not _changed(before_enc[0], after["encoder.w0"])
    assert not _changed(before_enc[1], after["encoder.w1"])
    # the joint head moved away from its old-head-seeded initialisation
    assert _changed(after["joint_head.w"][:, :2], state0.old_head.weight.data)
    # the novel head never enters the replay loss: its bias stays at its
    # exact zero initialisation
    assert np.all(after["novel_head.b"] == 0.0)


def test_distill_alone_is_a_fixed_point(pretrained):
    # the live encoder starts bitwise equal to the frozen copy, so the
    # distillation distance and its gradient are exactly zero: with no other
    # loss pulling the encoder away, nothing moves at all
    g, split, cfg, state0, protos, _ = pretrained
    before_enc, after, state = _routed(pretrained, use_distill=True)
    assert not _changed(before_enc[0], after["encoder.w0"])
    assert not _changed(before_enc[1], after["encoder.w1"])
    assert np.all(after["novel_head.b"] == 0.0)
    assert np.array_equal(after["joint_head.w"][:, :2],
                          state0.old_head.weight.data)
    assert np.all(after["joint_head.b"][:, 2:] == 0.0)


def test_distill_anchors_encoder_to_frozen_copy(pretrained):
    # with the pairwise loss pulling the encoder, adding distillation keeps
    # the representation measurably closer to the pretrained one
    g, split, cfg, state0, protos, _ = pretrained

    def drift(use_distill):
        off = dict(use_pseudo=True, use_self=False, use_perturb=False,
                   use_replay=False, use_distill=use_distill)
        cfg2 = _cfg(ncd_epochs=10, weight_decay=0.0, **off)
        state, _ = ncd_train(state0, protos, split, cfg2, _input(g))
        deltas = [np.linalg.norm(w.data - f.data) for w, f in
                  zip(state.encoder.weights, state0.encoder.weights)]
        return sum(deltas)

    assert drift(True) < drift(False)


def test_pseudo_updates_encoder_and_novel_head(pretrained):
    g, split, cfg, state0, protos, _ = pretrained
    before_enc, after, _ = _routed(pretrained, use_pseudo=True)
    assert _changed(before_enc[0], after["encoder.w0"])
    assert _changed(np.zeros_like(after["novel_head.b"]),
                    after["novel_head.b"])
    # the joint head plays no part in the pairwise loss: untouched
    assert np.array_equal(after["joint_head.w"][:, :2],
                          state0.old_head.weight.data)
    assert np.all(after["joint_head.b"][:, 2:] == 0.0)


def test_self_training_updates_joint_not_novel(pretrained):
    g, split, cfg, state0, protos, _ = pretrained
    before_enc, after, state = _routed(pretrained, use_self=True)
    assert _changed(before_enc[0], after["encoder.w0"])
    assert not np.array_equal(after["joint_head.w"][:, :2],
                              state0.old_head.weight.data)
    # pseudo labels are detached argmaxes: the novel head gets no gradient
    assert np.all(after["novel_head.b"] == 0.0)


def test_old_head_read_only_in_phase_two(pretrained):
    g, split, cfg, state0, protos, _ = pretrained
    old_w = state0.old_head.weight.data.copy()
    state, _ = ncd_train(state0, protos, split, _cfg(ncd_epochs=5), _input(g))
    assert np.array_equal(state.old_head.weight.data, old_w)


def test_frozen_encoder_is_pretrain_encoder_bitwise(pretrained, monkeypatch):
    g, split, cfg, state0, protos, _ = pretrained
    pre_enc = [w.data.copy() for w in state0.encoder.weights]
    anchors = []
    distill = training.distill_loss
    monkeypatch.setattr(training, "distill_loss",
                        lambda zf, z: anchors.append(zf.data.copy()) or distill(zf, z))
    state, _ = ncd_train(state0, protos, split, _cfg(ncd_epochs=5), _input(g))
    # the distillation target is the untouched pretrained encoder's forward
    u_in = _input(g).at(split.p2_train, state0.encoder.num_layers)
    want = encode(freeze_encoder(state0.encoder), u_in).data
    assert len(anchors) == 5 and all(np.array_equal(zf, want) for zf in anchors)
    for ref, w in zip(pre_enc, state0.encoder.weights):
        assert np.array_equal(ref, w.data)
    # and the live encoder has moved away from it
    assert not np.array_equal(state.encoder.weights[0].data, pre_enc[0])


def test_perturb_novel_head_consistency_path(pretrained):
    g, split, cfg, state0, protos, _ = pretrained
    before_enc, after, _ = _routed(pretrained, use_perturb=True)
    assert _changed(before_enc[0], after["encoder.w0"])
    assert np.array_equal(after["joint_head.w"][:, :2],
                          state0.old_head.weight.data)


def test_replay_indices_follow_the_sampled_labels_for_permuted_prototypes(
        pretrained, monkeypatch):
    g, split, _, state, protos, _ = pretrained
    perm = [1, 0]
    permuted = Prototypes(class_ids=protos.class_ids[perm], mean=protos.mean[perm],
                          var=protos.var[perm], counts=protos.counts[perm])
    assert permuted.class_ids.tolist() != list(split.old_classes)
    old_index = {c: i for i, c in enumerate(split.old_classes)}
    sampled, replayed = [], []
    sample, replay = training.sample_prototype_batch, training.replay_loss

    def sampling(*args):
        feats, labels = sample(*args)
        sampled.append(labels)
        return feats, labels

    def replaying(logits, idx):
        replayed.append(np.asarray(idx))
        return replay(logits, idx)

    monkeypatch.setattr(training, "sample_prototype_batch", sampling)
    monkeypatch.setattr(training, "replay_loss", replaying)
    _, log = ncd_train(state, permuted, split, _cfg(ncd_epochs=4), _input(g))
    assert log.epochs_run == len(sampled) == len(replayed) == 4
    for labels, idx in zip(sampled, replayed):
        assert idx.tolist() == [old_index[int(c)] for c in labels]


def test_pair_loss_runs_once_per_epoch_and_leaves_no_n_by_n_tape(pretrained,
                                                                 monkeypatch):
    g, split, _, state, protos, _ = pretrained
    cfg = _cfg(ncd_epochs=4)            # ends before the ramp, so never early
    n = len(split.p2_train)
    assert n not in (cfg.hidden, len(split.new_classes))
    calls = {}
    for name in ("pairwise_similarity", "topk_pseudo_pairs", "pairwise_bce"):
        def counted(*args, _name=name, _orig=getattr(training, name)):
            calls[_name] = calls.get(_name, 0) + 1
            return _orig(*args)
        monkeypatch.setattr(training, name, counted)
    squares = []                        # n x n tape nodes, one count per sweep
    sweep = training.backward

    def walked(loss, params):
        seen, stack, count = set(), [loss], 0
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                count += node.shape == (n, n)
                stack.extend(node._parents)
        squares.append(count)
        return sweep(loss, params)

    monkeypatch.setattr(training, "backward", walked)
    _, log = ncd_train(state, protos, split, cfg, _input(g))
    assert log.epochs_run == 4
    assert calls == dict.fromkeys(calls, 4) and len(calls) == 3
    assert squares == [0] * 4


def test_no_epoch_holds_the_last_epochs_pair_arrays(pretrained, monkeypatch):
    g, split, _, state, protos, _ = pretrained
    cfg = _cfg(ncd_epochs=4)
    epoch, refs = [0], []               # (epoch, weakref) of each n x n output

    def watched(name, data):
        orig = getattr(training, name)

        def call(*args):
            epoch[0] += name == "pairwise_similarity"  # called first in each epoch
            # every earlier epoch's similarity and targets are freed by now
            assert all(ref() is None for e, ref in refs if e < epoch[0])
            out = orig(*args)
            refs.append((epoch[0], weakref.ref(data(out))))
            return out
        monkeypatch.setattr(training, name, call)

    # a Tensor has __slots__ and takes no weakref, so the similarity's array is watched
    watched("pairwise_similarity", lambda s: s.data)
    watched("topk_pseudo_pairs", lambda y: y)
    _, log = ncd_train(state, protos, split, cfg, _input(g))
    assert log.epochs_run == 4 and epoch == [4] and len(refs) == 8


# -------------------------------------------------------------- early stopping

def test_early_stopping_matches_reimplemented_rule():
    g, split = _data(seed=5)
    cfg = _cfg(seed=5, ncd_epochs=250, patience=8,
               rampup_length=5, top_k=3)
    state, protos, _ = pretrain(g, split, cfg, _input(g))
    state, nlog = ncd_train(state, protos, split, cfg, _input(g))

    smoothed, best, best_epoch, wait = None, np.inf, -1, 0
    stop_epoch, stopped = None, False
    for row in nlog.rows:
        e = row["epoch"]
        if e < cfg.rampup_length:
            continue
        smoothed = row["total"] if smoothed is None else \
            0.9 * smoothed + 0.1 * row["total"]
        if smoothed < best - 1e-4:
            best, best_epoch, wait = smoothed, e, 0
        else:
            wait += 1
            if wait >= cfg.patience:
                stop_epoch, stopped = e, True
                break
    assert nlog.best_epoch == best_epoch
    assert abs(nlog.best_smoothed - best) < 1e-12
    assert nlog.stopped_early == stopped
    if stopped:
        assert nlog.epochs_run == stop_epoch + 1
        assert nlog.epochs_run < cfg.ncd_epochs


def test_no_tracking_before_ramp_finishes():
    g, split = _data(seed=6)
    cfg = _cfg(seed=6, ncd_epochs=4,
               rampup_length=10, top_k=3)
    state, protos, _ = pretrain(g, split, cfg, _input(g))
    state, nlog = ncd_train(state, protos, split, cfg, _input(g))
    assert nlog.epochs_run == 4              # ran the full budget
    assert nlog.best_epoch == -1             # nothing was tracked yet
    assert not nlog.stopped_early
    # with no best snapshot the final parameters are kept
    assert np.array_equal(state.encoder.weights[0].data,
                          nlog.final_snapshot["encoder.w0"])


def test_best_snapshot_restored(pretrained):
    g, split, cfg, state0, protos, _ = pretrained
    cfg2 = _cfg(ncd_epochs=40, patience=3,
                rampup_length=2, top_k=3)
    state, nlog = ncd_train(state0, protos, split, cfg2, _input(g))
    if nlog.best_epoch >= 0 and nlog.epochs_run - 1 != nlog.best_epoch:
        # restored parameters differ from the final snapshot
        assert not np.array_equal(state.encoder.weights[0].data,
                                  nlog.final_snapshot["encoder.w0"])


def test_loss_rows_complete(pretrained):
    g, split, cfg, state0, protos, _ = pretrained
    state, nlog = ncd_train(state0, protos, split, _cfg(ncd_epochs=6), _input(g))
    assert len(nlog.rows) == nlog.epochs_run
    for row in nlog.rows:
        for key in ("epoch", "pseudo", "self", "perturb", "replay", "distill",
                    "beta1", "beta2", "total"):
            assert key in row


# ----------------------------------------------------------------- divergence

def test_divergence_raises_with_report(pretrained):
    g, split, cfg, state0, protos, _ = pretrained
    bad = _cfg(lam=float("inf"), rampup_length=5, top_k=3)
    with pytest.raises(TrainingDiverged) as err:
        ncd_train(state0, protos, split, bad, _input(g))
    assert err.value.report["epoch"] == 0


def test_prototype_count_mismatch_rejected(pretrained):
    g, split, cfg, state0, protos, _ = pretrained
    short = copy.deepcopy(protos)
    short.mean = short.mean[:1]
    with pytest.raises(ValueError):
        ncd_train(state0, short, split, _cfg(), _input(g))
    # the right count of prototypes, but one of a class that is not old
    stray = copy.deepcopy(protos)
    stray.class_ids = np.array([split.old_classes[0], 7], dtype=np.int64)
    assert 7 not in split.old_classes + split.new_classes
    with pytest.raises(ValueError, match=r"classes \[0, 7\] for old classes \[0, 1\]"):
        ncd_train(state0, stray, split, _cfg(), _input(g))


def test_empty_phase_2_pool_rejected(pretrained):
    g, split, cfg, state0, protos, _ = pretrained
    with pytest.raises(ValueError, match="p2_train is empty"):
        ncd_train(state0, protos, replace(split, p2_train=[]), _cfg(), _input(g))


def _reachable_types(tp, seen):
    """tp, the types its unions and generics name, and those of every field of
    every dataclass among them; seen collects them. Returns the field names."""
    names = []
    for arg in typing.get_args(tp):
        names += _reachable_types(arg, seen)
    if tp in seen:
        return names
    seen.add(tp)
    if is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        for f in fields(tp):
            names.append(f.name)
            names += _reachable_types(hints[f.name], seen)
    return names


def test_phase_two_takes_no_label():
    # phase 2 clusters unlabelled nodes, so nothing ncd_train is handed can
    # hold a label: no Graph, and no field named labels, at any depth
    params = list(inspect.signature(ncd_train).parameters)
    assert params == ["state", "protos", "split", "cfg", "inp"]
    hints = typing.get_type_hints(ncd_train)
    types = [hints[p] for p in params]
    assert types == [ModelState, Prototypes, ClassSplit, TrainConfig, EncoderInput]
    seen = set()
    names = [n for tp in types for n in _reachable_types(tp, seen)]
    assert Graph not in seen and "labels" not in names
    # the walk reaches the nested model and input types
    assert {HeadParams, EncoderParams, SparseMatrix} <= seen


# -------------------------------------------------------------- determinism

def test_ncd_train_deterministic(pretrained):
    # two sessions from one pretrained state agree, and neither touches it
    g, split, cfg, state0, protos, _ = pretrained
    before = _params_snapshot(state0)
    a, loga = ncd_train(state0, protos, split, _cfg(ncd_epochs=8), _input(g))
    b, logb = ncd_train(state0, protos, split, _cfg(ncd_epochs=8), _input(g))
    for (na, ta), (nb, tb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb and np.array_equal(ta.data, tb.data)
    assert loga.rows == logb.rows
    assert np.array_equal(joint_predictions(a, g), joint_predictions(b, g))
    assert a is not state0 and b is not state0
    assert state0.phase == 1 and state0.novel_head is None and state0.joint_head is None
    after = _params_snapshot(state0)
    assert before.keys() == after.keys()
    assert all(np.array_equal(before[n], after[n]) for n in before)
    # the returned model shares no tensor with its input
    ids = {id(t) for _, t in named_parameters(state0)}
    assert ids.isdisjoint(id(t) for _, t in named_parameters(a))


def test_ncd_train_is_bitwise_the_same_in_one_part_and_two(monkeypatch):
    # 600 phase-2 rows are ten row blocks, enough for the pair ops to split
    g = sbm_generate([15, 15, 500, 500], 0.03, 0.002, 6, 2.5, seed=derive_seed(1, SEED_SBM))
    split = split_classes(g, [0, 1], [2, 3], seed=derive_seed(1, SEED_SPLIT))
    assert len(split.p2_train) >= 600
    cfg = _cfg(pretrain_epochs=3, ncd_epochs=4)
    state, protos, _ = pretrain(g, split, cfg, _input(g))
    runs = []
    for parts in (1, 2):
        monkeypatch.setattr(ncd_losses, "_usable_cpus", lambda: parts)
        monkeypatch.setattr(ncd_losses, "_pool", None)
        runs.append(ncd_train(state, protos, split, cfg, _input(g)))
        assert (ncd_losses._pool is not None) == (parts == 2)
    (a, loga), (b, logb) = runs
    for (na, ta), (nb, tb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb and ta.data.tobytes() == tb.data.tobytes()
    assert loga.rows == logb.rows and len(loga.rows) == cfg.ncd_epochs


def test_sage_pretrain_on_two_cpus_starts_no_pool_and_queries_no_cpu(monkeypatch):
    # A[p1_train] here is ~80k non-zeros x 32 columns: work enough that a
    # column split over two CPUs would cut it
    g = sbm_generate([300] * 4, 0.6, 0.05, 6, 2.5, seed=derive_seed(3, SEED_SBM))
    split = split_classes(g, [0, 1], [2, 3], seed=derive_seed(3, SEED_SPLIT))
    cfg = _cfg(backbone="sage", hidden=32, pretrain_epochs=6)
    queries = []
    monkeypatch.setattr(ncd_losses, "_pool", None)
    runs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: queries.append(1) or set(range(cpus)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: queries.append(1) or cpus)
        runs.append(pretrain(g, split, cfg, _input(g, "sage")))
    assert not queries and ncd_losses._pool is None
    (a, pa, loga), (b, pb, logb) = runs
    for (na, ta), (nb, tb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb and ta.data.tobytes() == tb.data.tobytes()
    assert loga.rows == logb.rows and len(loga.rows) == cfg.pretrain_epochs
    for field in ("class_ids", "mean", "var", "counts"):
        assert getattr(pa, field).tobytes() == getattr(pb, field).tobytes()


def test_evaluate_joint_phase_two_matrix(pretrained):
    g, split, _, state0, protos, _ = pretrained
    state, _ = ncd_train(state0, protos, split, _cfg(ncd_epochs=10), _input(g))
    rep = evaluate_joint(state, g, split, _z(state, g), phase1_old_acc=0.9)
    assert rep.perf.shape == (2, 2)
    assert rep.perf[0, 0] == 0.9 and np.isnan(rep.perf[0, 1])
    assert rep.perf[1, 0] == rep.old_acc and rep.perf[1, 1] == rep.new_acc
    assert abs(rep.aa - (rep.old_acc + rep.new_acc) / 2) < 1e-15
    assert abs(rep.af - (rep.old_acc - 0.9)) < 1e-15
    # without the phase-1 number a phase-2 report has no stage matrix
    bare = evaluate_joint(state, g, split, _z(state, g))
    assert bare.perf is None and bare.aa is None and bare.af is None
    assert bare.old_acc == rep.old_acc and bare.new_acc == rep.new_acc


def test_depth_sweep_runs_each_depth():
    g, split = _data(seed=7)
    cfg = _cfg(seed=7, pretrain_epochs=8, ncd_epochs=10)
    rows = run_depth_sweep(g, split, cfg, _input(g), [2, 3])
    assert [r["layers"] for r in rows] == [2, 3]
    for row in rows:
        for key in ("old_acc", "new_acc", "all_acc", "aa", "af"):
            assert np.isfinite(row[key])


@pytest.mark.parametrize("backbone", ["gcn", "sage"])
def test_losses_propagate_only_the_rows_they_read(monkeypatch, backbone):
    g, split = _data()
    cfg = _cfg(backbone=backbone, pretrain_epochs=3, ncd_epochs=4)
    inp = _input(g, backbone)
    x = inp.x
    seen = []
    spmm = ad.spmm
    monkeypatch.setattr(ad, "spmm", lambda m, h: seen.append((m.shape[0], h is x))
                        or spmm(m, h))
    state, protos, _ = pretrain(g, split, cfg, inp)
    pre = [rows for rows, on_input in seen if not on_input]
    seen.clear()
    ncd_train(state, protos, split, cfg, inp)
    ncd = [rows for rows, on_input in seen if not on_input]

    n1, nv, n2 = len(split.p1_train), len(split.p1_val), len(split.p2_train)
    assert g.num_nodes not in (n1, nv, n2)
    # per epoch the loss reads p1_train and validation p1_val; then the prototypes
    assert pre == [n1, nv] * 3 + [n1]
    # the frozen encoder once, the live one once per epoch
    assert ncd == [n2] * (1 + 4)


def test_shared_values_hold_no_hidden_state():
    # every stage shares the graph and the operator, so neither caches
    assert [f.name for f in fields(Graph)] == ["num_nodes", "edges", "features", "labels"]
    g, split = _data()
    cfg = _cfg(pretrain_epochs=2, ncd_epochs=2)
    inp = _input(g)
    state, protos, _ = pretrain(g, split, cfg, inp)
    ncd_train(state, protos, split, cfg, inp)
    assert set(vars(inp.adj)) == {"mat", "mat_t"}   # both set when it is built
    # a model state is the model: no optimizer state, anchor or phase field
    assert [f.name for f in fields(ModelState)] == ["encoder", "old_head", "novel_head",
                                                   "joint_head"]
