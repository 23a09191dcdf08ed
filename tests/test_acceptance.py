"""Acceptance gate.

One test per graded requirement. Each prints a single verdict line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live):

1. gradient suite        every differentiable op and every composed
                         discovery loss passes a central-difference check
                         (eps 1e-5, rel err <= 1e-4, >= 20 seeds, < 60 s)
2. oracle equivalence    loss/statistic functions match independent
                         loop-written oracles to 1e-12; the assignment
                         solver matches exhaustive search on 500 matrices
3. desk-scale run        the stock five-block benchmark clears the
                         accuracy floors end to end in < 5 minutes
4. ablations             removing self-training kills new-class accuracy;
                         removing replay+distillation kills old-class
                         accuracy
5. task-agnostic         inference never consults class-membership
                         metadata
6. determinism           identical config + seed => byte-identical
                         metrics and checkpoints
7. citation comparison   informational only; skipped when the dataset is
                         not on disk
"""
import filecmp
import inspect
import itertools
import json
import math
import os
import time

import numpy as np
import pytest

import graphncd.autodiff as ad
from graphncd.autodiff import grad_check
from graphncd.cli import main, resolve_dataset, resolve_split
from graphncd.config import load_config, parse_config_text
from graphncd.graph import Graph, mean_adjacency, normalize_adjacency, \
    operator_for, sbm_generate
from graphncd.metrics import aa_af, hungarian_match, joint_predictions
from graphncd.models import EncoderInput, encode, encoder_parameters, head_forward, \
    head_parameters, init_encoder, init_head
from graphncd.ncd_losses import (assign_pseudo_labels, batch_sigma,
                                 compute_prototypes, distill_loss,
                                 pairwise_bce, pairwise_similarity,
                                 perturb_consistency_loss,
                                 perturb_representations, replay_loss,
                                 self_training_loss, topk_pseudo_pairs)
from graphncd.training import derive_seed, load_state


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# =====================================================================
# 1. gradient suite
# =====================================================================

def _reducer(shape, rng):
    """Scalarize with fixed random weights so that transposed or misrouted
    gradients cannot cancel out. The weights are frozen at build time: the
    checked function must stay deterministic across probe evaluations."""
    weights = ad.constant(rng.uniform(0.5, 1.5, shape))
    return lambda t: ad.sum(ad.mul(t, weights))


def _tiny_graph(seed):
    return sbm_generate([4, 4], 0.9, 0.4, 3, 1.5, seed=seed)


def _primitive_scenarios(seed):
    rng = np.random.default_rng(seed)

    def p(r, c, lo=-1.5, hi=1.5):
        return ad.parameter(rng.uniform(lo, hi, (r, c)))

    g = _tiny_graph(seed)
    n = g.num_nodes
    out = {}
    a, b = p(4, 3), p(3, 5)
    red = _reducer((4, 5), rng)
    out["matmul"] = (lambda: red(ad.matmul(a, b)), [a, b])
    xs = p(n, 3)
    sym = normalize_adjacency(g)
    red_s = _reducer((n, 3), rng)
    out["spmm_sym"] = (lambda: red_s(ad.spmm(sym, xs)), [xs])
    xm = p(n, 3)
    rowmean = mean_adjacency(g)
    red_m = _reducer((n, 3), rng)
    out["spmm_mean"] = (lambda: red_m(ad.spmm(rowmean, xm)), [xm])
    t = p(3, 5)
    red_t = _reducer((5, 3), rng)
    out["transpose"] = (lambda: red_t(ad.transpose(t)), [t])
    aa_, bias = p(4, 3), p(1, 3)
    red43a = _reducer((4, 3), rng)
    out["add_broadcast"] = (lambda: red43a(ad.add(aa_, bias)), [aa_, bias])
    s1, s2 = p(4, 3), p(4, 3)
    red43b = _reducer((4, 3), rng)
    out["sub"] = (lambda: red43b(ad.sub(s1, s2)), [s1, s2])
    m1, m2 = p(4, 3), p(1, 3)
    red43c = _reducer((4, 3), rng)
    out["mul_broadcast"] = (lambda: red43c(ad.mul(m1, m2)), [m1, m2])
    ms = p(4, 3)
    red43d = _reducer((4, 3), rng)
    out["mul_scalar"] = (lambda: red43d(ad.mul_scalar(ms, 1.7)), [ms])
    asq = p(4, 3)
    red43e = _reducer((4, 3), rng)
    out["add_scalar"] = (lambda: red43e(ad.add_scalar(asq, -0.3)), [asq])
    # keep every coordinate at least 0.2 away from the relu kink
    rl = ad.parameter(rng.uniform(0.2, 1.5, (4, 3)) *
                      rng.choice([-1.0, 1.0], (4, 3)))
    red43f = _reducer((4, 3), rng)
    out["relu"] = (lambda: red43f(ad.relu(rl)), [rl])
    sg = p(4, 3)
    red43g = _reducer((4, 3), rng)
    out["sigmoid"] = (lambda: red43g(ad.sigmoid(sg)), [sg])
    lg = p(4, 3, 0.3, 2.0)
    red43h = _reducer((4, 3), rng)
    out["log"] = (lambda: red43h(ad.log(lg)), [lg])
    cl_data = rng.uniform(-2.0, 2.0, (5, 4))
    while np.any(np.abs(np.abs(cl_data) - 0.9) < 0.1):   # stay off the edges
        cl_data = rng.uniform(-2.0, 2.0, (5, 4))
    cl = ad.parameter(cl_data)
    red54a = _reducer((5, 4), rng)
    out["clamp"] = (lambda: red54a(ad.clamp(cl, -0.9, 0.9)), [cl])
    sm = p(5, 4)
    red54b = _reducer((5, 4), rng)
    out["softmax_rows"] = (lambda: red54b(ad.softmax_rows(sm)), [sm])
    lsm = p(5, 4)
    red54c = _reducer((5, 4), rng)
    out["log_softmax_rows"] = (lambda: red54c(ad.log_softmax_rows(lsm)), [lsm])
    gr = p(5, 3)
    idx = np.array([0, 2, 2, 4, 1])   # repeats must accumulate
    red53 = _reducer((5, 3), rng)
    out["gather_rows"] = (lambda: red53(ad.gather_rows(gr, idx)), [gr])
    c1, c2 = p(4, 2), p(4, 3)
    red45 = _reducer((4, 5), rng)
    out["concat_rows"] = (lambda: red45(ad.concat_rows(c1, c2)), [c1, c2])
    mn = p(4, 3)
    out["mean"] = (lambda: ad.mean(mn), [mn])
    sm2 = p(4, 3)
    out["sum"] = (lambda: ad.sum(sm2), [sm2])
    e1, e2 = p(4, 3), p(4, 3)
    out["mse"] = (lambda: ad.mse(e1, e2), [e1, e2])
    # rows scaled to norms in [0.5, 2]: safely away from the sqrt kink at 0
    raw = rng.normal(size=(4, 3))
    raw *= (rng.uniform(0.5, 2.0, (4, 1)) /
            np.linalg.norm(raw, axis=1, keepdims=True))
    l2 = ad.parameter(raw)
    red41 = _reducer((4, 1), rng)
    out["l2_row_norm"] = (lambda: red41(ad.l2_row_norm(l2)), [l2])
    nl = p(5, 4)
    lbl = rng.integers(0, 4, 5)
    out["nll_rows"] = (
        lambda: ad.nll_rows(ad.log_softmax_rows(nl), lbl), [nl])
    return out


def _composed_scenarios(seed):
    """The five discovery losses and the supervised loss, each driven
    through a live two-layer graph encoder."""
    rng = np.random.default_rng(seed + 10_000)
    g = _tiny_graph(seed + 20_000)
    inp = EncoderInput.build("gcn", operator_for("gcn", g), ad.constant(g.features))
    enc = init_encoder("gcn", [g.feat_dim, 6, 5], seed=seed)
    novel = init_head(5, 2, seed=seed + 1)
    joint = init_head(5, 4, seed=seed + 2)
    old = init_head(5, 2, seed=seed + 3)
    enc_params = encoder_parameters(enc)

    out = {}
    z0 = encode(enc, inp).data
    y_pair = topk_pseudo_pairs(z0 @ novel.weight.data + novel.bias.data, 2)

    def f_pairwise():
        u = head_forward(novel, encode(enc, inp))
        return pairwise_bce(pairwise_similarity(u), y_pair)
    out["loss_pairwise"] = (f_pairwise, enc_params + head_parameters(novel))

    pseudo = assign_pseudo_labels(z0 @ novel.weight.data + novel.bias.data, 2)

    def f_self():
        return self_training_loss(head_forward(joint, encode(enc, inp)),
                                  pseudo)
    out["loss_self"] = (f_self, enc_params + head_parameters(joint))

    sigma = batch_sigma(z0)

    def f_perturb():
        z = encode(enc, inp)
        zp = perturb_representations(z, 0.4, sigma, seed=seed + 77)
        return perturb_consistency_loss(head_forward(novel, z),
                                        head_forward(novel, zp))
    out["loss_perturb"] = (f_perturb, enc_params + head_parameters(novel))

    feats = ad.constant(rng.normal(size=(6, 5)))
    replay_labels = np.array([0, 1, 2, 3, 0, 2])

    def f_replay():
        return replay_loss(head_forward(joint, feats), replay_labels)
    out["loss_replay"] = (f_replay, head_parameters(joint))

    z_frozen = ad.constant(rng.normal(size=(g.num_nodes, 5)))

    def f_distill():
        return distill_loss(z_frozen, encode(enc, inp))
    out["loss_distill"] = (f_distill, enc_params)

    tr = np.array([0, 2, 5, 7])
    tr_labels = np.array([0, 0, 1, 1])

    def f_supervised():
        z = encode(enc, inp)
        logits = head_forward(old, ad.gather_rows(z, tr))
        return ad.nll_rows(ad.log_softmax_rows(logits), tr_labels)
    out["loss_supervised"] = (f_supervised, enc_params + head_parameters(old))
    return out


def test_gradient_suite_accuracy_and_budget():
    t0 = time.monotonic()
    seeds = range(20)
    worst = {}
    for sd in seeds:
        scenarios = {}
        scenarios.update(_primitive_scenarios(sd))
        scenarios.update(_composed_scenarios(sd))
        for name, (f, params) in scenarios.items():
            err = grad_check(f, params, eps=1e-5, seed=sd, max_coords=5)
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.monotonic() - t0
    bad = {k: v for k, v in worst.items() if v > 1e-4}
    ok = not bad and elapsed < 60.0
    _verdict("gradient-suite", ok,
             f"{len(worst)} scenarios x {len(seeds)} seeds, worst rel err "
             f"{max(worst.values()):.2e}, {elapsed:.1f}s"
             + (f", failing: {bad}" if bad else ""))


# =====================================================================
# 2. oracle equivalence
# =====================================================================

def _softmax_row(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def _oracle_similarity(u):
    n = len(u)
    return [[1.0 / (1.0 + math.exp(-sum(a * b for a, b in zip(u[i], u[j]))))
             for j in range(n)] for i in range(n)]


def _oracle_bce(s, y):
    n = len(s)
    total = 0.0
    for i in range(n):
        for j in range(n):
            p = min(max(s[i][j], 1e-12), 1.0 - 1e-12)
            total += -(y[i][j] * math.log(p) + (1 - y[i][j]) * math.log(1 - p))
    return total / (n * n)


def _oracle_topk(u, k):
    n, d = len(u), len(u[0])
    picks = [set(sorted(range(d), key=lambda j: (-u[i][j], j))[:k])
             for i in range(n)]
    return [[1.0 if picks[i] == picks[j] else 0.0 for j in range(n)]
            for i in range(n)]


def _oracle_ce(logits, labels):
    total = 0.0
    for row, lbl in zip(logits, labels):
        m = max(row)
        total += -(row[lbl] - m - math.log(sum(math.exp(v - m) for v in row)))
    return total / len(logits)


def _oracle_perturb(clean, pert):
    total, count = 0.0, 0
    for rc, rp in zip(clean, pert):
        for a, b in zip(_softmax_row(rc), _softmax_row(rp)):
            total += (a - b) ** 2
            count += 1
    return total / count


def _oracle_distill(zf, zc):
    total = 0.0
    for rf, rc in zip(zf, zc):
        total += math.sqrt(sum((a - b) ** 2 for a, b in zip(rf, rc)))
    return total / len(zf)


def _oracle_prototypes(z, labels, classes):
    means, variances, counts = [], [], []
    for c in classes:
        rows = [z[i] for i in range(len(z)) if labels[i] == c]
        counts.append(len(rows))
        mean = [sum(col) / len(rows) for col in zip(*rows)]
        var = [sum((v - m) ** 2 for v in col) / len(rows)
               for col, m in zip(zip(*rows), mean)]
        means.append(mean)
        variances.append(var)
    return means, variances, counts


def test_oracle_equivalence_core_losses():
    worst = 0.0
    for sd in range(20):
        rng = np.random.default_rng(sd)
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, 6))
        u = rng.normal(scale=2.0, size=(n, d))
        k = int(rng.integers(1, d + 1))

        sim = pairwise_similarity(ad.constant(u)).data
        worst = max(worst, float(np.max(np.abs(
            sim - np.array(_oracle_similarity(u.tolist()))))))

        y = topk_pseudo_pairs(u, k)
        worst = max(worst, float(np.max(np.abs(
            y - np.array(_oracle_topk(u.tolist(), k))))))

        worst = max(worst, abs(
            pairwise_bce(ad.constant(sim), y).item()
            - _oracle_bce(sim.tolist(), y.tolist())))

        logits = rng.normal(scale=3.0, size=(n, d + 2))
        labels = rng.integers(0, d + 2, n)
        worst = max(worst, abs(
            self_training_loss(ad.constant(logits), labels).item()
            - _oracle_ce(logits.tolist(), labels.tolist())))
        worst = max(worst, abs(
            replay_loss(ad.constant(logits), labels).item()
            - _oracle_ce(logits.tolist(), labels.tolist())))

        pert = logits + rng.normal(scale=0.5, size=logits.shape)
        worst = max(worst, abs(
            perturb_consistency_loss(ad.constant(logits),
                                     ad.constant(pert)).item()
            - _oracle_perturb(logits.tolist(), pert.tolist())))

        zf = rng.normal(size=(n, d))
        zc = zf + rng.normal(scale=0.7, size=(n, d))
        worst = max(worst, abs(distill_loss(ad.constant(zf),
                                            ad.constant(zc)).item()
                               - _oracle_distill(zf.tolist(), zc.tolist())))

        classes = [0, 1, 2]
        plabels = rng.integers(0, 4, 3 * n)        # class 3 must be ignored
        plabels[:3] = [0, 1, 2]                    # every class non-empty
        zp = rng.normal(size=(3 * n, d))
        protos = compute_prototypes(zp, plabels, classes)
        om, ov, oc = _oracle_prototypes(zp.tolist(), plabels.tolist(), classes)
        worst = max(worst, float(np.max(np.abs(protos.mean - np.array(om)))))
        worst = max(worst, float(np.max(np.abs(protos.var - np.array(ov)))))
        assert protos.counts.tolist() == oc

    _verdict("oracle-equivalence-losses", worst <= 1e-12,
             f"8 functions x 20 seeds, worst abs deviation {worst:.2e}")


def _brute_force_match(cost):
    n = len(cost)
    best_perm, best_cost = None, math.inf
    for perm in itertools.permutations(range(n)):
        c = sum(cost[i][perm[i]] for i in range(n))
        if c < best_cost - 1e-12:
            best_perm, best_cost = perm, c
    return list(best_perm), best_cost


def test_oracle_equivalence_assignment_and_forgetting():
    rng = np.random.default_rng(2024)
    exact, optimal = 0, 0
    trials = 500
    for _ in range(trials):
        n = int(rng.integers(1, 8))
        if rng.random() < 0.5:
            cost = rng.integers(0, 6, (n, n)).astype(float)   # heavy ties
        else:
            cost = rng.normal(size=(n, n))
        perm = hungarian_match(cost)
        ref_perm, ref_cost = _brute_force_match(cost.tolist())
        got_cost = sum(cost[i][perm[i]] for i in range(n))
        optimal += abs(got_cost - ref_cost) <= 1e-9
        exact += perm == ref_perm
    aa, af = aa_af(np.array([[90.0, np.nan], [70.0, 60.0]]), 2)
    hand_ok = (aa == 65.0 and af == -20.0)
    ok = optimal == trials and exact == trials and hand_ok
    _verdict("oracle-equivalence-assignment", ok,
             f"{optimal}/{trials} optimal, {exact}/{trials} lexicographic "
             f"matches, AA/AF hand case {'ok' if hand_ok else 'WRONG'}")


# =====================================================================
# 3. desk-scale end-to-end run (+ shared artifacts for 4/5/6)
# =====================================================================

DESK_CFG = """
dataset = sbm
sbm_blocks = 100,100,100,100,100
sbm_p_in = 0.15
sbm_p_out = 0.01
sbm_feat_dim = 16
sbm_feat_shift = 1.0
old_classes = 0,1,2
new_classes = 3,4
backbone = gcn
hidden = 32
seed = 0
"""


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    cfg = root / "desk.cfg"
    cfg.write_text(DESK_CFG, encoding="utf-8")
    out = root / "out"
    t0 = time.monotonic()
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    elapsed = time.monotonic() - t0
    assert rc == 0, "desk-scale pipeline returned a failure exit code"
    return {"root": root, "cfg": str(cfg), "out": str(out), "elapsed": elapsed}


def test_end_to_end_desk_scale_thresholds(desk_run):
    pre = _read_json(os.path.join(desk_run["out"], "pretrain", "metrics.json"))
    ncd = _read_json(os.path.join(desk_run["out"], "ncd", "metrics.json"))
    ok = (pre["old_acc"] >= 0.95 and ncd["old_acc"] >= 0.70
          and ncd["new_acc"] >= 0.60 and ncd["all_acc"] >= 0.65
          and desk_run["elapsed"] < 300.0)
    _verdict("desk-scale-run", ok,
             f"phase1 old {pre['old_acc']:.3f} (need >=0.95); phase2 old "
             f"{ncd['old_acc']:.3f} (>=0.70) new {ncd['new_acc']:.3f} "
             f"(>=0.60) all {ncd['all_acc']:.3f} (>=0.65); "
             f"{desk_run['elapsed']:.0f}s (<300s)")


# =====================================================================
# 4. ablations
# =====================================================================

def _run_ablation(desk_run, tag, extra):
    cfg = desk_run["root"] / f"{tag}.cfg"
    cfg.write_text(DESK_CFG + extra, encoding="utf-8")
    out = desk_run["root"] / tag
    rc = main(["ncd", "--config", str(cfg), "--out", str(out),
               "--pretrain-dir", os.path.join(desk_run["out"], "pretrain")])
    assert rc == 0, f"ablation {tag} failed to run"
    return _read_json(os.path.join(str(out), "metrics.json"))


def test_ablation_no_self_training(desk_run):
    m = _run_ablation(desk_run, "no_self", "use_self = off\n")
    ok = m["new_acc"] <= 0.05 and m["old_acc"] >= 0.90
    _verdict("ablation-no-self", ok,
             f"new {m['new_acc']:.3f} (need <=0.05), old {m['old_acc']:.3f} "
             f"(need >=0.90)")


def test_ablation_no_replay_no_distill(desk_run):
    m = _run_ablation(desk_run, "no_replay_distill",
                      "use_replay = off\nuse_distill = off\n")
    ok = m["old_acc"] <= 0.05
    _verdict("ablation-no-replay-distill", ok,
             f"old {m['old_acc']:.3f} (need <=0.05)")


# =====================================================================
# 5. task-agnostic inference
# =====================================================================

def test_task_agnostic_inference(desk_run):
    params = list(inspect.signature(joint_predictions).parameters)
    no_meta_args = not ({"split", "labels", "old_nodes", "new_nodes"}
                        & set(params))

    rc = load_config(desk_run["cfg"])
    g, _ = resolve_dataset(rc)
    state, _ = load_state(os.path.join(desk_run["out"], "ncd",
                                       "checkpoint_ncd_best.bin"))
    preds = joint_predictions(state, g)
    blank = Graph(num_nodes=g.num_nodes, edges=g.edges, features=g.features,
                  labels=np.zeros_like(g.labels))
    preds_blank = joint_predictions(state, blank)
    identical = bool(np.array_equal(preds, preds_blank))
    covers_all = preds.shape == (g.num_nodes,)
    ok = no_meta_args and identical and covers_all
    _verdict("task-agnostic-inference", ok,
             f"signature args {params}; predictions with labels withheld "
             f"{'identical' if identical else 'DIFFER'}")


# =====================================================================
# 6. determinism
# =====================================================================

def _without_timestamp(path):
    with open(path, "r", encoding="utf-8") as fh:
        return "".join(l for l in fh if '"timestamp"' not in l)


def test_pipeline_determinism(desk_run):
    out2 = desk_run["root"] / "out2"
    rc = main(["run", "--config", desk_run["cfg"], "--out", str(out2)])
    assert rc == 0

    mismatches = []
    for stage in ("pretrain", "ncd", "eval"):
        a_dir = os.path.join(desk_run["out"], stage)
        b_dir = os.path.join(str(out2), stage)
        names = sorted(os.listdir(a_dir))
        if names != sorted(os.listdir(b_dir)):
            mismatches.append(f"{stage}: different artifact sets")
            continue
        for name in names:
            a, b = os.path.join(a_dir, name), os.path.join(b_dir, name)
            if name == "metrics.json":
                same = _without_timestamp(a) == _without_timestamp(b)
            elif name.endswith(".bin") or name.endswith(".csv"):
                same = filecmp.cmp(a, b, shallow=False)
            else:
                continue
            if not same:
                mismatches.append(f"{stage}/{name}")
    bins = sum(n.endswith(".bin") for s in ("pretrain", "ncd", "eval")
               for n in os.listdir(os.path.join(desk_run["out"], s)))
    _verdict("determinism", not mismatches,
             f"{bins} checkpoints plus metrics/CSVs byte-compared"
             + (f"; mismatches: {mismatches}" if mismatches else ""))


# =====================================================================
# 7. informational citation-graph comparison (never gates)
# =====================================================================

CITATION_REFERENCE = {"old": 60.67, "new": 37.97, "all": 53.50}


def test_informational_citation_comparison(tmp_path):
    data_dir = os.environ.get("GRAPHNCD_CITATION_DIR", "data/cora")
    paths = {k: os.path.join(data_dir, f"{k}.txt")
             for k in ("edges", "features", "labels")}
    if not all(os.path.isfile(p) for p in paths.values()):
        print(f"[ACCEPTANCE] citation-comparison: SKIP (no dataset under "
              f"{data_dir}; published reference old "
              f"{CITATION_REFERENCE['old']} new {CITATION_REFERENCE['new']} "
              f"all {CITATION_REFERENCE['all']})")
        pytest.skip("citation dataset not available; comparison is "
                    "informational only")
    cfg = tmp_path / "citation.cfg"
    cfg.write_text(
        "dataset = files\n"
        f"edges = {paths['edges']}\nfeatures = {paths['features']}\n"
        f"labels = {paths['labels']}\n"
        "old_classes = 0,1,2,3\nnew_classes = 4,5,6\n"
        "normalize_features = yes\nseed = 0\n",
        encoding="utf-8")
    out = tmp_path / "citation"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    m = _read_json(os.path.join(str(out), "ncd", "metrics.json"))
    deltas = " ".join(f"{k} {m[f'{k}_acc'] - v / 100:+.4f}"
                      for k, v in CITATION_REFERENCE.items())
    print(f"[ACCEPTANCE] citation-comparison: INFO (old {m['old_acc']:.4f} "
          f"new {m['new_acc']:.4f} all {m['all_acc']:.4f} vs reference "
          f"{CITATION_REFERENCE}, deltas {deltas}; informational only, never gates)")
