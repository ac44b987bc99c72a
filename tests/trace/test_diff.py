"""Structured report diffs."""

from __future__ import annotations

import json

import pytest

from repro.trace import diff_reports


BASE = {
    "machine": "tsubame2",
    "horizon_hours": 600.0,
    "availability": 0.99,
    "spare_stockouts": 3,
    "scheduler": None,
}


class TestDiffReports:
    def test_identical_reports_have_no_changes(self):
        diff = diff_reports(BASE, dict(BASE))
        assert diff.changed == ()
        assert diff.format_text() == "no outcome differences"

    def test_numeric_delta(self):
        other = {**BASE, "availability": 0.95, "spare_stockouts": 0}
        diff = diff_reports(BASE, other)
        assert diff["availability"].delta == pytest.approx(-0.04)
        assert diff["spare_stockouts"].delta == -3
        assert {f.field for f in diff.changed} == {
            "availability",
            "spare_stockouts",
        }

    def test_non_numeric_pairs_have_no_delta(self):
        other = {**BASE, "machine": "tsubame3"}
        entry = diff_reports(BASE, other)["machine"]
        assert entry.changed
        assert entry.delta is None

    def test_scheduler_fields_flattened(self):
        left = {**BASE, "scheduler": {"jobs_completed": 10}}
        right = {**BASE, "scheduler": {"jobs_completed": 12}}
        diff = diff_reports(left, right)
        assert diff["scheduler.jobs_completed"].delta == 2

    def test_one_sided_scheduler(self):
        right = {**BASE, "scheduler": {"jobs_completed": 12}}
        diff = diff_reports(BASE, right)
        assert diff["scheduler"].baseline is None
        assert diff["scheduler.jobs_completed"].baseline is None
        assert diff["scheduler.jobs_completed"].counterfactual == 12

    def test_train_fields_flattened(self):
        left = {
            **BASE,
            "train": {
                "restarts": 2,
                "completed": False,
                "lost_work_by_category": {"GPU": 1.5, "IB": 2.0},
            },
        }
        right = {
            **BASE,
            "train": {
                "restarts": 3,
                "completed": True,
                "lost_work_by_category": {"GPU": 2.5, "CPU": 0.5},
            },
        }
        diff = diff_reports(left, right)
        assert "train" not in {f.field for f in diff.fields}
        assert diff["train.restarts"].delta == 1
        assert diff["train.completed"].delta is None
        assert diff["train.lost_work_by_category.GPU"].delta == 1.0
        assert diff["train.lost_work_by_category.IB"].counterfactual is None
        assert diff["train.lost_work_by_category.CPU"].baseline is None
        assert all(
            not isinstance(f.baseline, dict)
            and not isinstance(f.counterfactual, dict)
            for f in diff.fields
        )

    def test_unknown_field_raises_key_error(self):
        with pytest.raises(KeyError):
            diff_reports(BASE, BASE)["no_such_field"]

    def test_to_dict_is_json_ready(self):
        other = {**BASE, "availability": 0.95}
        payload = diff_reports(BASE, other).to_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["availability"]["baseline"] == 0.99
        assert parsed["availability"]["counterfactual"] == 0.95

    def test_format_text_shows_deltas(self):
        other = {**BASE, "spare_stockouts": 5}
        text = diff_reports(BASE, other).format_text()
        assert "spare_stockouts" in text
        assert "(+2)" in text

    def test_format_text_all_fields(self):
        text = diff_reports(BASE, dict(BASE)).format_text(
            changed_only=False
        )
        assert "machine" in text and "availability" in text
