"""The benchmark's workloads: graphncd configs plus the accuracy floors.

Each workload is a flat ``key = value`` graphncd config. The bench appends
``seed`` (the workload seed) and, for ``discover``, the paths of the
pre-generated dataset files. Every phase-2 budget sets ``patience`` to the
epoch budget so no run stops early: an early-stop epoch can move when a
change reorders float operations, and that would move ``run_s`` with no
change in speed.

Floors are checked on the run's artifacts: ``pretrain_old`` on
``pretrain/metrics.json`` and the others on ``eval/metrics.json``.
"""
from __future__ import annotations

# Stock 5x100 SBM with gcn and hidden 32: the config the acceptance gates
# use. Small n, so per-op Python overhead, Adam and artifact I/O take their
# largest shares here. Phase 2 runs a fixed 200 epochs.
DESK = """\
dataset = sbm
sbm_blocks = 100,100,100,100,100
old_classes = 0,1,2
new_classes = 3,4
backbone = gcn
hidden = 32
pretrain_epochs = 200
ncd_epochs = 200
patience = 200
"""

# Sparse graph with 900 phase-2 train nodes: the dense n x n pairwise chain
# (similarity, rank-statistic targets, BCE) dominates each phase-2 epoch and
# sparse propagation is a few percent. The dataset is written once by
# gen-data before timing, so setup exercises the text parser.
DISCOVER = """\
sbm_blocks = 150,150,150,750,750
sbm_p_in = 0.03
sbm_p_out = 0.002
old_classes = 0,1,2
new_classes = 3,4
backbone = gcn
hidden = 32
pretrain_epochs = 120
ncd_epochs = 20
patience = 20
rampup_length = 10
"""

# Dense graph (~170k edges) with only 120 phase-2 train nodes and the sage
# backbone (non-symmetric mean operator, cached transpose in backward, concat):
# spmm is the largest cost and the pairwise chain is small. The O(n^2) SBM
# generator and canonical-text hashing weigh most on setup here.
PROPAGATE = """\
dataset = sbm
sbm_blocks = 800,800,800,100,100
old_classes = 0,1,2
new_classes = 3,4
backbone = sage
hidden = 32
pretrain_epochs = 35
ncd_epochs = 35
patience = 35
rampup_length = 10
"""

# Floors sit below the lowest accuracy seen over seeds 0-39 of the baseline
# sweep (desk: new 0.50; discover: pretrain old 0.83, old 0.83, all 0.23;
# propagate: pretrain old 0.996, old 0.98, new 0.38, all 0.94). On desk,
# pretrain_old, old and all are the acceptance-gate values; the gate's
# new >= 0.60 holds at seed 0 but not at every seed. Discover's 20 phase-2
# epochs are too few for discovery to settle (new 0.03-0.62), so its new
# floor is 0.
WORKLOADS = {
    "desk": {"config": DESK, "files": False,
             "floors": {"pretrain_old": 0.95, "old": 0.70, "new": 0.40,
                        "all": 0.65}},
    "discover": {"config": DISCOVER, "files": True,
                 "floors": {"pretrain_old": 0.75, "old": 0.70, "new": 0.0,
                            "all": 0.15}},
    "propagate": {"config": PROPAGATE, "files": False,
                  "floors": {"pretrain_old": 0.95, "old": 0.90, "new": 0.25,
                             "all": 0.85}},
}
