"""The checked-in benchmark profiles: the desk profile and an MF2-shaped one.

``configs/desk.json`` is the acceptance suite's benchmark config, and
``configs/mf2-shape.json`` changes only its Zipf exponent, so that about
88% of identities have fewer than 10 instances, as in the paper's MF2.
"""

import json
from pathlib import Path

from dcq.synthdata import LongTailSpec, assign_longtail_counts, tail_summary
from dcq.trainer import TrainConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _load(name):
    return json.loads((CONFIGS / name).read_text())


def test_profiles_differ_only_in_the_zipf_exponent():
    desk, mf2 = _load("desk.json"), _load("mf2-shape.json")
    assert {k for k in desk.keys() | mf2.keys() if desk.get(k) != mf2.get(k)} == {"zipf_exponent"}
    assert (desk["zipf_exponent"], mf2["zipf_exponent"]) == (1.5, 0.55)


def test_mf2_shaped_counts():
    cfg = TrainConfig.from_dict(_load("mf2-shape.json")).resolve()
    counts = assign_longtail_counts(
        LongTailSpec(cfg.zipf_exponent, cfg.min_count, cfg.max_count), cfg.n_classes
    )
    summary = tail_summary(counts)
    assert round(summary["tail_fraction"], 3) == 0.873
    assert int((counts >= 10).sum()) == 254
    assert summary["instances"] == 13_209
