"""Alert-rule evaluation (T5/DESIGN.md:674-747) and config-driven
TableSpec."""


from driftray.alerts import AlertManager, AlertRule
from driftray.spec import spec_from_dict


class TestAlerts:
    VERDICTS = [
        {"window_id": 0, "n_rows": 1000, "n_violations": 2,
         "quality_score": 0.998, "drift_detected": False,
         "counters": {"sha256|content": 0, "rows": 1000}},
        {"window_id": 1, "n_rows": 1000, "n_violations": 80,
         "quality_score": 0.92, "drift_detected": True,
         "counters": {"sha256|content": 3, "rows": 1000}},
    ]

    def test_default_rules_fire_correctly(self, tmp_path):
        mgr = AlertManager(history_path=str(tmp_path / "alerts"))
        fired = mgr.evaluate(self.VERDICTS)
        by_rule = {}
        for a in fired:
            by_rule.setdefault(a["rule"], []).append(a["window_id"])
        assert by_rule.get("low_quality") == [1]
        assert by_rule.get("drift") == [1]
        assert by_rule.get("any_sha_mismatch") == [1]
        assert by_rule.get("high_violation_rate") == [1]
        assert not any(a["window_id"] == 0 for a in fired)

    def test_history_appends(self, tmp_path):
        mgr = AlertManager(history_path=str(tmp_path / "alerts"))
        mgr.evaluate(self.VERDICTS)
        mgr.evaluate(self.VERDICTS)
        h = mgr.history()
        assert h.num_rows == 8  # 4 rules × window 1 × 2 evaluations

    def test_rule_from_config_and_message(self):
        rule = AlertRule.from_dict({
            "name": "wall", "metric": "wall_s", "comparison": ">",
            "threshold": 1.5, "severity": "info",
            "message": "{name} took {value}s (> {threshold}s)"})
        a = rule.evaluate({"window_id": 3, "wall_s": 2.0})
        assert a["message"] == "wall took 2.0s (> 1.5s)"
        assert rule.evaluate({"window_id": 3, "wall_s": 1.0}) is None

    def test_counters_metric_missing_is_skipped(self):
        rule = AlertRule("x", "counters.nope", ">", 0)
        assert rule.evaluate({"counters": {}}) is None


class TestSpecFromDict:
    def test_roundtrip(self):
        cfg = {
            "name": "repo_files",
            "columns": [
                {"name": "repo", "required": True},
                {"name": "content_len", "min": 0, "max": 100000,
                 "when": ["lang", "py"]},
            ],
            "unique_key": ["repo", "path"],
            "foreign_keys": [
                {"columns": ["repo"], "dim_table": "repos", "dim_columns": ["repo"]}],
            "hash_invariant": {"content_column": "content",
                               "hash_column": "content_sha256"},
            "profile_columns": ["content_len"],
            "group_column": "lang",
            "drift": {"psi_threshold": 0.3},
        }
        spec = spec_from_dict(cfg)
        assert spec.unique_key == ("repo", "path")
        assert spec.column("content_len").when == ("lang", "py")
        assert spec.foreign_keys[0].dim_table == "repos"
        assert spec.hash_invariant.hash_column == "content_sha256"
        assert spec.drift.psi_threshold == 0.3
        assert spec.drift.ks_p_threshold == 0.05  # default preserved
