"""One standardization path: standardize_in_place overwrites the features
array of the dataset it is given, and predict and sweep-trials standardize
the dataset load_csv built rather than a copy. Also: report.json, written
as dataclasses.asdict(report), keeps the bytes of the field-by-field dict
it replaced."""

import argparse
import json
from dataclasses import asdict

import numpy as np
import pytest

from ltvmcd import cli, data, metrics, nn
from ltvmcd.mcd import PredictionSummary
from test_contracts import small_dataset


def test_apply_standardization_overwrites_and_returns_its_input():
    ds = small_dataset(n=50, dim=4)
    mean, std = np.array([0.5, -1.0, 0.0, 2.0]), np.array([0.3, 1.0, 2.5, 7.0])
    expected = (ds.features.copy() - mean) / std
    feats = ds.features
    data.standardize_in_place(ds, mean, std)
    assert ds.features is feats
    assert feats.tobytes() == expected.tobytes()


def test_prepare_inference_standardizes_the_loaded_dataset(tmp_path, monkeypatch):
    ds = small_dataset()
    data.save_csv(ds, tmp_path / "d.csv")
    norm = (np.array([0.1, -0.2, 0.3]), np.array([0.5, 1.5, 2.0]))
    nn.save_checkpoint(tmp_path / "m.ckpt",
                       nn.Checkpoint(network=nn.build_mlp(ds.dim, [4], 0.2, seed=1), norm=norm))
    raw = data.load_csv(tmp_path / "d.csv").features.copy()

    loaded, built = [], []
    load_csv, post_init = data.load_csv, data.Dataset.__post_init__

    def spy_load(path):
        loaded.append(load_csv(path))
        built.clear()  # count only the datasets built after the load
        return loaded[-1]

    def spy_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(data, "load_csv", spy_load)
    monkeypatch.setattr(data.Dataset, "__post_init__", spy_post_init)
    args = argparse.Namespace(model=str(tmp_path / "m.ckpt"), data=str(tmp_path / "d.csv"), seed=None)
    dataset = cli._prepare_inference(args)[1]
    assert dataset is loaded[0]
    assert built == []
    assert dataset.features.tobytes() == ((raw - norm[0]) / norm[1]).tobytes()


def hand_built(report):
    """The report's JSON document as it was once built, field by field."""
    curve = None
    if report.confidence_curve is not None:
        curve = [[z, acc] for z, acc in report.confidence_curve]
    return {"n": report.n, "k": report.k, "normalized_gini": report.normalized_gini,
            "top_k_mape": report.top_k_mape, "top_k_hit_rate": report.top_k_hit_rate,
            "confidence_curve": curve}


@pytest.mark.parametrize("with_curve", [True, False], ids=["curve", "no_curve"])
def test_report_json_keeps_its_bytes(with_curve):
    labels = np.array([3.0, 0.0, 7.0, 1.0, 0.0, 12.0])
    preds = labels * 0.9 + 0.3
    extra = {}
    if with_curve:
        extra = {"summaries": [PredictionSummary(f"u{i}", float(p), 0.4, 16) for i, p in enumerate(preds)],
                 "labels_model_space": labels}
    report = metrics.build_report(preds, labels, k=0.5, **extra)
    assert (report.confidence_curve is None) != with_curve
    assert json.dumps(asdict(report), indent=1) == json.dumps(hand_built(report), indent=1)
