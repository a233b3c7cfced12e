"""repro-lint: rule behavior on the fixture corpus, reporters, CLI,
and the meta-check that the package's own tree lints clean."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LintConfig,
    load_config,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.model import all_rules
from repro.analysis.project import _collect_suppressions

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def fixture_config(**overrides) -> LintConfig:
    """A config retargeted at the fixture corpus' class names."""
    base = dict(
        hot_path=("",),  # numerics rules apply everywhere
        shared_types=("SharedState",),
        placement_bases=("PlacementPolicy",),
        policy_bases=("Policy",),
        optimizer_classes=("AcquisitionOptimizer",),
        partition_constructors=(),  # opt in per test (drift rule)
        frozen_key_classes=("CacheKey",),
    )
    base.update(overrides)
    return LintConfig(**base)


def lint_fixture(filename: str, **overrides):
    return run_lint([FIXTURES / filename], fixture_config(**overrides))


def rule_ids(findings) -> list:
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# Determinism family
# ----------------------------------------------------------------------
class TestDeterminismRules:
    def test_bad_fixture_triggers_all_four_rules(self):
        findings = lint_fixture("determinism_bad.py")
        assert sorted(set(rule_ids(findings))) == [
            "RPL101",
            "RPL102",
            "RPL103",
            "RPL104",
        ]

    def test_good_fixture_is_clean(self):
        assert lint_fixture("determinism_good.py") == []

    def test_unseeded_rng_message_points_at_call(self):
        (finding,) = [
            f for f in lint_fixture("determinism_bad.py")
            if f.rule_id == "RPL101"
        ]
        assert "default_rng" in finding.message
        assert finding.line > 1
        assert finding.path.endswith("determinism_bad.py")

    def test_seeded_default_rng_not_flagged(self, tmp_path):
        snippet = tmp_path / "seeded.py"
        snippet.write_text(
            "import numpy as np\n"
            "gen = np.random.default_rng(42)\n"
            "other = np.random.default_rng(seed=7)\n"
        )
        assert run_lint([snippet], fixture_config()) == []


# ----------------------------------------------------------------------
# Thread-safety family
# ----------------------------------------------------------------------
class TestThreadSafetyRules:
    def test_bad_fixture_flags_shared_mutation(self):
        findings = [
            f for f in lint_fixture("threadsafety_bad.py")
            if f.rule_id == "RPL201"
        ]
        messages = "\n".join(f.message for f in findings)
        # direct attribute + item writes, the transitive helper, the global
        assert len(findings) >= 4
        assert "reachable from thread-pool entry point 'worker'" in messages
        assert "'helper'" in messages  # call-path rendering
        assert "module global" in messages

    def test_bad_fixture_flags_setattr_backdoor(self):
        findings = [
            f for f in lint_fixture("threadsafety_bad.py")
            if f.rule_id == "RPL203"
        ]
        assert len(findings) == 1
        assert "thaw" in findings[0].message

    def test_good_fixture_is_clean(self):
        assert lint_fixture("threadsafety_good.py") == []

    def test_frozen_key_rules(self):
        findings = lint_fixture("frozen_bad.py")
        assert rule_ids(findings) == ["RPL202", "RPL202"]
        messages = "\n".join(f.message for f in findings)
        assert "CacheKey" in messages  # configured class not frozen
        assert "LooseKey" in messages  # unfrozen instance in key position
        assert lint_fixture("frozen_good.py") == []


# ----------------------------------------------------------------------
# Contract-presence family
# ----------------------------------------------------------------------
class TestContractRules:
    def test_bad_fixture_triggers_all_four_rules(self):
        findings = lint_fixture(
            "contracts_bad.py", partition_constructors=("Space.make",)
        )
        assert sorted(rule_ids(findings)) == [
            "RPL301",
            "RPL302",
            "RPL303",
            "RPL304",
        ]

    def test_good_fixture_is_clean(self):
        assert (
            lint_fixture(
                "contracts_good.py", partition_constructors=("Space.make",)
            )
            == []
        )

    def test_configured_constructor_drift_is_a_finding(self):
        findings = lint_fixture(
            "determinism_good.py",
            partition_constructors=("Space.vanished",),
            select=("RPL304",),
        )
        assert rule_ids(findings) == ["RPL304"]
        assert "not found" in findings[0].message


# ----------------------------------------------------------------------
# Numerics family
# ----------------------------------------------------------------------
class TestNumericsRules:
    def test_bad_fixture(self):
        findings = lint_fixture("numerics_bad.py")
        assert sorted(rule_ids(findings)) == ["RPL401", "RPL402", "RPL402"]

    def test_good_fixture_is_clean(self):
        assert lint_fixture("numerics_good.py") == []

    def test_rules_scoped_to_hot_path(self):
        # Same bad file, but a hot_path that doesn't match it: silent.
        findings = lint_fixture(
            "numerics_bad.py", hot_path=("repro/core/",)
        )
        assert findings == []


# ----------------------------------------------------------------------
# Telemetry family
# ----------------------------------------------------------------------
class TestTelemetryRules:
    def test_bad_fixture_triggers_both_rules(self):
        findings = lint_fixture("telemetry_bad.py")
        assert sorted(rule_ids(findings)) == [
            "RPL501",
            "RPL501",
            "RPL501",
            "RPL502",
        ]

    def test_good_fixture_is_clean(self):
        assert lint_fixture("telemetry_good.py") == []

    def test_metric_name_message_quotes_the_literal(self):
        findings = [
            f for f in lint_fixture("telemetry_bad.py")
            if f.rule_id == "RPL501"
        ]
        messages = "\n".join(f.message for f in findings)
        assert "'Engine.Samples'" in messages
        assert "'node load'" in messages
        assert "'9th_window'" in messages

    def test_span_rule_ignores_non_tracer_span_methods(self, tmp_path):
        snippet = tmp_path / "other_span.py"
        snippet.write_text(
            "def f(layout):\n"
            "    return layout.span(3)\n"  # not a tracer: silent
        )
        assert run_lint([snippet], fixture_config()) == []


# ----------------------------------------------------------------------
# Dataflow family (interprocedural taint + locksets)
# ----------------------------------------------------------------------
class TestDataflowRules:
    GUARDED = dict(guarded_classes=("GuardedCache",))

    def test_bad_fixture_triggers_all_three_rules(self):
        findings = lint_fixture("dataflow_bad.py", **self.GUARDED)
        assert {"RPL601", "RPL602", "RPL603"} <= set(rule_ids(findings))

    def test_good_fixture_is_clean(self):
        findings = lint_fixture("dataflow_good.py", **self.GUARDED)
        assert [f for f in findings if f.rule_id.startswith("RPL6")] == [], (
            render_text(findings)
        )

    def test_rpl601_sees_what_rpl10x_misses(self):
        """The acceptance regression: ``Generator(PCG64())`` never
        mentions ``default_rng``, so the per-file determinism rules stay
        silent — only the taint analysis catches the fresh-entropy flow."""
        per_file = lint_fixture(
            "dataflow_bad.py", select=("RPL101", "RPL102", "RPL103", "RPL104")
        )
        assert per_file == [], render_text(per_file)
        dataflow = lint_fixture("dataflow_bad.py", select=("RPL601",))
        assert {f.rule_id for f in dataflow} == {"RPL601"}
        assert len(dataflow) >= 3  # local, field, and payload laundering

    def test_rpl601_flags_each_laundering_channel(self):
        findings = lint_fixture("dataflow_bad.py", select=("RPL601",))
        messages = "\n".join(f.message for f in findings)
        assert "consume" in messages
        lines = {f.line for f in findings}
        assert len(lines) >= 3

    def test_rpl602_names_the_offending_class(self):
        findings = lint_fixture("dataflow_bad.py", select=("RPL602",))
        assert len(findings) == 1
        assert "StubTimer" in findings[0].message
        assert "measure" in findings[0].message

    def test_rpl603_unlocked_and_one_branch_writes(self):
        findings = lint_fixture(
            "dataflow_bad.py", select=("RPL603",), **self.GUARDED
        )
        assert len(findings) == 2
        assert all("GuardedCache" in f.message for f in findings)

    def test_rpl603_respects_both_branch_acquire(self):
        """dataflow_good's ``branchy`` acquires on both arms of the if;
        the per-path intersection must treat the join as locked."""
        findings = lint_fixture(
            "dataflow_good.py", select=("RPL603",), **self.GUARDED
        )
        assert findings == [], render_text(findings)

    def test_rpl201_skips_lock_guarded_shared_writes(self):
        """Lock-guarded mutation of a shared-typed parameter is RPL603's
        domain; RPL201 must no longer flag it."""
        findings = lint_fixture("dataflow_good.py", select=("RPL201",))
        assert findings == [], render_text(findings)

    def test_rpl603_disabled_outside_guarded_classes(self):
        # Without the GuardedCache override, the default guarded set
        # (MetricRegistry & co.) matches nothing in the fixture.
        findings = lint_fixture("dataflow_bad.py", select=("RPL603",))
        assert findings == []


# ----------------------------------------------------------------------
# Flow family (RPL8xx)
# ----------------------------------------------------------------------
class TestFlowRules:
    FLOW_IDS = ("RPL801", "RPL802", "RPL803", "RPL804", "RPL805")

    #: Lifecycle is src-scoped by default; the fixture corpus opts in
    #: with an everywhere-matching strict prefix and retargets the
    #: long-lived class list at the fixture's own classes.
    OVERRIDES = dict(
        select=FLOW_IDS,
        flow_strict_modules=("",),
        flow_longlived=("EventLog", "BoundedLog"),
    )

    def test_bad_fixture_triggers_all_five_rules(self):
        findings = lint_fixture("flow_bad.py", **self.OVERRIDES)
        assert sorted(set(rule_ids(findings))) == sorted(self.FLOW_IDS), (
            render_text(findings)
        )

    def test_good_fixture_is_clean(self):
        findings = lint_fixture("flow_good.py", **self.OVERRIDES)
        assert findings == [], render_text(findings)

    def test_rpl801_names_the_full_cycle(self):
        findings = lint_fixture(
            "flow_bad.py", **{**self.OVERRIDES, "select": ("RPL801",)}
        )
        assert len(findings) == 1
        assert "OrderA._lock" in findings[0].message
        assert "OrderB._lock" in findings[0].message

    def test_rpl802_direct_and_interprocedural(self):
        findings = lint_fixture(
            "flow_bad.py", **{**self.OVERRIDES, "select": ("RPL802",)}
        )
        messages = [f.message for f in findings]
        assert any(
            m.startswith("blocking call time.sleep") for m in messages
        )
        assert any("'Chatty._drain'" in m for m in messages)

    def test_rpl803_names_value_and_class(self):
        findings = lint_fixture(
            "flow_bad.py", **{**self.OVERRIDES, "select": ("RPL803",)}
        )
        assert any(
            "'state'" in f.message and "RequestState" in f.message
            for f in findings
        )

    def test_rpl804_distinguishes_leak_kinds(self):
        findings = lint_fixture(
            "flow_bad.py", **{**self.OVERRIDES, "select": ("RPL804",)}
        )
        messages = " | ".join(f.message for f in findings)
        assert "never released" in messages
        assert "exception paths" in messages
        assert "finally" in messages

    def test_rpl804_skipped_outside_strict_modules(self):
        findings = lint_fixture(
            "flow_bad.py",
            **{**self.OVERRIDES, "flow_strict_modules": ("src/repro/",)},
        )
        assert "RPL804" not in set(rule_ids(findings))

    def test_rpl805_names_container_and_entry(self):
        findings = lint_fixture(
            "flow_bad.py", **{**self.OVERRIDES, "select": ("RPL805",)}
        )
        containers = {f.message.split()[1] for f in findings}
        assert any(c.endswith(".EVENTS") for c in containers)
        assert "EventLog.entries" in containers
        assert all("reachable from loop entry" in f.message for f in findings)

    def test_rpl805_allowlist_silences_container(self):
        findings = lint_fixture(
            "flow_bad.py",
            **{
                **self.OVERRIDES,
                "select": ("RPL805",),
                "flow_bounded_containers": (
                    "lint_fixtures.flow_bad.EVENTS",
                    "EventLog.entries",
                ),
            },
        )
        assert findings == [], render_text(findings)

    def test_suppression_silences_flow_finding(self, tmp_path):
        snippet = tmp_path / "suppressed_flow.py"
        snippet.write_text(
            "import threading\n"
            "import time\n"
            "class Noisy:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "    def tick(self):\n"
            "        with self._lock:\n"
            "            # repro-lint: disable-next-line=RPL802\n"
            "            time.sleep(0.01)\n"
        )
        findings = run_lint([snippet], fixture_config(select=("RPL802",)))
        assert findings == [], render_text(findings)


# ----------------------------------------------------------------------
# Suppressions, config, reporters
# ----------------------------------------------------------------------
class TestSuppressionsAndConfig:
    def test_all_three_suppression_forms(self):
        assert lint_fixture("suppressed.py") == []

    def test_suppression_is_rule_specific(self, tmp_path):
        snippet = tmp_path / "wrong_id.py"
        snippet.write_text(
            "import numpy as np\n"
            "gen = np.random.default_rng()  # repro-lint: disable=RPL104\n"
        )
        findings = run_lint([snippet], fixture_config())
        assert rule_ids(findings) == ["RPL101"]

    def test_select_and_ignore(self):
        only = lint_fixture("determinism_bad.py", select=("RPL103",))
        assert rule_ids(only) == ["RPL103"]
        without = lint_fixture("determinism_bad.py", ignore=("RPL103",))
        assert "RPL103" not in rule_ids(without)

    def test_pyproject_table_overrides(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint]\nhot-path = ["custom/"]\nignore = ["RPL103"]\n'
        )
        config = load_config(tmp_path / "module.py")
        assert config.hot_path == ("custom/",)
        assert config.ignore == ("RPL103",)

    def test_flow_table_overrides(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint.flow]\nlonglived = ["EventLog"]\n'
        )
        config = load_config(tmp_path / "module.py")
        assert config.flow_longlived == ("EventLog",)

    def test_unknown_flow_key_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.repro-lint.flow]\nlong-lived = ["EventLog"]\n'
        )
        with pytest.raises(ValueError, match="long-lived"):
            load_config(tmp_path / "module.py")

    def test_unknown_config_key_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint]\nhot-paths = []\n"
        )
        with pytest.raises(ValueError, match="hot-paths"):
            load_config(tmp_path / "module.py")


class TestReporters:
    def _findings(self):
        return lint_fixture("determinism_bad.py")

    def test_text_reporter(self):
        text = render_text(self._findings())
        assert "RPL101" in text and "RPL104" in text
        assert "hint:" in text
        assert render_text([]) == "repro-lint: clean (0 findings)"

    def test_json_reporter_schema(self):
        payload = json.loads(render_json(self._findings()))
        assert payload["schema_version"] == 1
        assert payload["tool"] == "repro-lint"
        assert payload["finding_count"] == len(self._findings())
        assert payload["counts_by_rule"]["RPL103"] == 1
        first = payload["findings"][0]
        assert set(first) >= {"rule_id", "path", "line", "col", "message"}

    def test_findings_sorted_and_immutable(self):
        findings = self._findings()
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.col, f.rule_id)
        )
        with pytest.raises(AttributeError):
            findings[0].rule_id = "RPL999"


# ----------------------------------------------------------------------
# Rule registry and the repo meta-check
# ----------------------------------------------------------------------
class TestRegistryAndRepoTree:
    EXPECTED_RULES = {
        "RPL101", "RPL102", "RPL103", "RPL104",
        "RPL201", "RPL202", "RPL203",
        "RPL301", "RPL302", "RPL303", "RPL304",
        "RPL401", "RPL402",
        "RPL501", "RPL502",
        "RPL601", "RPL602", "RPL603",
        "RPL801", "RPL802", "RPL803", "RPL804", "RPL805",
        "RPL901", "RPL902", "RPL903", "RPL904", "RPL905",
        "RPL1001", "RPL1002", "RPL1003", "RPL1004", "RPL1005",
    }

    def test_registry_is_complete(self):
        registry = all_rules()
        assert set(registry) == self.EXPECTED_RULES
        for rule_id, rule_cls in registry.items():
            assert rule_cls.rule_id == rule_id
            assert rule_cls.description
            assert rule_cls.autofix_hint
            assert rule_cls.family

    def test_package_tree_lints_clean(self):
        """The acceptance gate: repro-lint on src/repro finds nothing."""
        findings = run_lint([PACKAGE], LintConfig())
        assert findings == [], render_text(findings)

    def test_whole_repo_lints_clean(self):
        """tests/ and examples/ are held to the same bar (minus the
        deliberately-broken fixture corpus)."""
        findings = run_lint(
            [PACKAGE, REPO_ROOT / "tests", REPO_ROOT / "examples"],
            LintConfig(),
            exclude=[FIXTURES],
        )
        assert findings == [], render_text(findings)

    def test_suppressions_name_registered_rules(self):
        """Every ``repro-lint: disable…=`` directive in the repo names a
        registered rule, so deleting a rule family cannot leave dead
        suppressions behind."""
        known = set(all_rules()) | {"all"}
        dead = []
        for root in ("src", "tests", "examples", "benchmarks"):
            for path in sorted((REPO_ROOT / root).rglob("*.py")):
                lines = path.read_text(encoding="utf-8").splitlines()
                file_level, per_line = _collect_suppressions(lines)
                named = file_level.union(*per_line.values())
                dead.extend(
                    f"{path.relative_to(REPO_ROOT)}: {rule_id}"
                    for rule_id in sorted(named - known)
                )
        assert dead == []

    def test_exclude_drops_subtree(self):
        with_fixtures = run_lint(
            [REPO_ROOT / "tests"], LintConfig(select=("RPL101",))
        )
        without = run_lint(
            [REPO_ROOT / "tests"],
            LintConfig(select=("RPL101",)),
            exclude=[FIXTURES],
        )
        assert any(f.path.startswith(str(FIXTURES)) for f in with_fixtures)
        assert not any(f.path.startswith(str(FIXTURES)) for f in without)


# ----------------------------------------------------------------------
# Console entry point
# ----------------------------------------------------------------------
def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


class TestCLI:
    def test_clean_tree_exits_zero(self):
        result = run_cli(str(PACKAGE))
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_findings_exit_one(self):
        result = run_cli(
            str(FIXTURES / "determinism_bad.py"), "--select", "RPL101"
        )
        assert result.returncode == 1
        assert "RPL101" in result.stdout

    def test_json_format(self):
        result = run_cli(
            str(FIXTURES / "determinism_bad.py"),
            "--select", "RPL101",
            "--format", "json",
        )
        assert result.returncode == 1
        assert json.loads(result.stdout)["finding_count"] == 1

    def test_unknown_rule_exits_two(self):
        result = run_cli(str(PACKAGE), "--select", "RPL999")
        assert result.returncode == 2

    def test_missing_path_exits_two(self):
        result = run_cli(str(REPO_ROOT / "no_such_file.txt"))
        assert result.returncode == 2

    def test_list_rules(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in TestRegistryAndRepoTree.EXPECTED_RULES:
            assert rule_id in result.stdout

    def test_fixture_corpus_matches_golden_findings(self):
        """Every finding on the fixture corpus — rule, path, line,
        column, message and hint — is pinned byte for byte."""
        result = run_cli(
            "tests/lint_fixtures", "--format", "json", "--no-cache"
        )
        assert result.returncode == 1, result.stderr
        golden = (FIXTURES / "golden_findings.json").read_text()
        assert result.stdout == golden
