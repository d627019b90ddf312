"""Public API surface tests: the README quickstart must keep working."""

from __future__ import annotations

import pytest

import repro


class TestPublicSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing

    def test_readme_quickstart(self, tpch_db):
        """The exact flow documented in README.md / the module docstring."""
        from repro import SQLExecutable, UnmasqueExtractor
        from repro.workloads import tpch_queries

        app = SQLExecutable(tpch_queries.QUERIES["Q3"].sql, obfuscate_text=True)
        outcome = UnmasqueExtractor(tpch_db, app).extract()
        assert "group by" in outcome.sql
        assert outcome.checker_report.passed

    def test_config_is_dataclass_with_defaults(self):
        config = repro.ExtractionConfig()
        assert config.halving_policy == "largest"
        assert config.extract_having is False
        assert config.extract_disjunctions is False
        assert config.extract_null_predicates is False
