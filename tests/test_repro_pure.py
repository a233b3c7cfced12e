"""PURE-family (RPL9xx) rule behavior on the effect
fixtures, interprocedural effect closures, the CLI report, cache
coverage of the nested pure table, and the meta-tests pinning the
repo's own probe/commit split."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import LintConfig, run_lint
from repro.analysis.cache import LintCache, cache_key, config_digest
from repro.analysis.cli import main as lint_main
from repro.analysis.config import load_config
from repro.analysis.engine import LintEngine
from repro.analysis.pure import pure_analysis

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

PURE_IDS = ("RPL901", "RPL902", "RPL903", "RPL904", "RPL905")
BAD = "lint_fixtures.effect_bad"
GOOD = "lint_fixtures.effect_good"


def bad_config(**overrides) -> LintConfig:
    base = dict(
        select=PURE_IDS,
        pure_registry=(
            f"{BAD}.Prober.scan",
            f"{BAD}.bump_totals",
            f"{BAD}.tally",
        ),
        pure_probe_entrypoints=(f"{BAD}.Prober.scan",),
        pure_commit_mutators=(f"{BAD}.Committer.commit",),
        pure_snapshot_methods=("placements", "status", "timeline"),
        pure_allow_calls=(),
    )
    base.update(overrides)
    return LintConfig(**base)


def good_config(**overrides) -> LintConfig:
    base = dict(
        select=PURE_IDS,
        pure_registry=(
            f"{GOOD}.Prober.scan",
            f"{GOOD}.read_totals",
            f"{GOOD}.tally",
        ),
        pure_probe_entrypoints=(f"{GOOD}.Prober.scan",),
        pure_commit_mutators=(f"{GOOD}.Committer.commit",),
        pure_snapshot_methods=("placements", "status", "timeline"),
        pure_allow_calls=(),
    )
    base.update(overrides)
    return LintConfig(**base)


def lint_fixture(filename: str, config: LintConfig):
    return run_lint([FIXTURES / filename], config)


def analyse_fixture(filename: str, config: LintConfig):
    engine = LintEngine(config)
    project = engine.build_project([FIXTURES / filename])
    return pure_analysis(project, config)


def analyse_source(tmp_path, source: str, config: LintConfig):
    path = tmp_path / "mod.py"
    path.write_text(source)
    engine = LintEngine(config)
    project = engine.build_project([path])
    return pure_analysis(project, config)


def rule_ids(findings) -> list:
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# The fixture corpus: every rule fires on bad, stays silent on good
# ----------------------------------------------------------------------
class TestEffectFixtures:
    def test_bad_fixture_triggers_first_four_rules(self):
        findings = lint_fixture("effect_bad.py", bad_config())
        assert sorted(set(rule_ids(findings))) == [
            "RPL901",
            "RPL902",
            "RPL903",
            "RPL904",
        ]

    def test_good_fixture_is_clean(self):
        assert lint_fixture("effect_good.py", good_config()) == []

    def test_rpl901_covers_every_mutation_kind(self):
        analysis = analyse_fixture("effect_bad.py", bad_config())
        ops = {hit.effect.op for hit in analysis.mutations}
        assert {"augmented-assign", "subscript-write", "mutating-call"} <= ops
        roots = {hit.effect.root for hit in analysis.mutations}
        assert "self" in roots
        assert "param:items" in roots
        assert "global:TOTALS" in roots

    def test_rpl901_marker_declares_purity_without_config(self):
        """@declared_pure alone registers the root (no registry entry)."""
        findings = lint_fixture(
            "effect_bad.py",
            bad_config(pure_registry=(), pure_probe_entrypoints=()),
        )
        marked = [
            f
            for f in findings
            if f.rule_id == "RPL901" and "marked_mutator" in f.message
        ]
        assert marked, [f.message for f in findings]

    def test_rpl902_all_three_violation_kinds(self):
        analysis = analyse_fixture("effect_bad.py", bad_config())
        kinds = {hit.kind for hit in analysis.phase}
        assert kinds == {"commit-mutator", "fresh-rng", "clock"}
        commit = [h for h in analysis.phase if h.kind == "commit-mutator"]
        assert commit[0].what == "Committer.commit"
        assert commit[0].path[0].endswith("Prober.scan")

    def test_rpl903_direct_and_aliased_escape(self):
        analysis = analyse_fixture("effect_bad.py", bad_config())
        containers = {hit.container for hit in analysis.snapshots}
        assert containers == {"Board._jobs", "Board._log"}
        methods = {hit.method for hit in analysis.snapshots}
        assert methods == {"Board.status", "Board.timeline"}

    def test_rpl904_list_call_and_for_loop(self):
        analysis = analyse_fixture("effect_bad.py", bad_config())
        consumers = {hit.consumer for hit in analysis.order}
        assert consumers == {"list()", "for-loop"}
        assert all(h.entry.endswith("Prober.scan") for h in analysis.order)

    def test_interprocedural_mutation_two_calls_deep(self):
        """tally -> relay -> deep_mutate: the parameter mutation is
        charged to the registered-pure root through argument binding.
        Ping.pong reaches Ping.ping's write only around their call
        cycle, even though Ping.ping is closed first."""
        cases = (
            ("effect_bad.py", bad_config(), ":tally", "param:items",
             ("relay", "deep_mutate")),
            ("cycle_bad.py", LintConfig(select=PURE_IDS), ":Ping.pong",
             "self", ("Ping.ping",)),
        )
        for filename, config, root, effect_root, chain in cases:
            analysis = analyse_fixture(filename, config)
            deep = [
                hit
                for hit in analysis.mutations
                if hit.root_key.endswith(root)
            ]
            assert len(deep) == 1, filename
            effect = deep[0].effect
            assert effect.root == effect_root
            assert effect.chain == chain
            # The sibling call relay(log) mutates a fresh local: not
            # charged.
            assert all(
                h.effect.root != "param:log" for h in analysis.mutations
            )

    def test_rpl905_stale_entry_fires_only_for_present_modules(self):
        stale = bad_config(
            pure_registry=(f"{BAD}.Prober.scan", f"{BAD}.vanished"),
        )
        findings = [
            f
            for f in lint_fixture("effect_bad.py", stale)
            if f.rule_id == "RPL905"
        ]
        assert len(findings) == 1
        assert "vanished" in findings[0].message
        # The same stale entry is silent when its module is not analysed.
        assert (
            lint_fixture(
                "effect_good.py",
                good_config(
                    pure_registry=(
                        f"{GOOD}.Prober.scan",
                        f"{BAD}.vanished",
                    ),
                ),
            )
            == []
        )

    def test_rpl905_probe_and_mutator_contradiction(self):
        config = bad_config(
            pure_probe_entrypoints=(
                f"{BAD}.Committer.commit",
                f"{BAD}.Prober.scan",
            ),
        )
        findings = [
            f
            for f in lint_fixture("effect_bad.py", config)
            if f.rule_id == "RPL905"
        ]
        assert len(findings) == 1
        assert "both a probe entry point and a commit mutator" in (
            findings[0].message
        )


# ----------------------------------------------------------------------
# Precision: the shapes the analysis must NOT flag
# ----------------------------------------------------------------------
MARKER = "def declared_pure(fn):\n    return fn\n"


class TestPrecision:
    def _mutations(self, tmp_path, source):
        analysis = analyse_source(
            tmp_path, source, LintConfig(select=PURE_IDS)
        )
        return analysis.mutations

    def test_external_module_functions_are_not_mutations(self, tmp_path):
        """np.append returns a fresh array; module-rooted receivers of
        imported externals must not read as mutating-method calls."""
        source = MARKER + (
            "import numpy as np\n"
            "@declared_pure\n"
            "def widen(xs):\n"
            "    return np.append(xs, 1.0)\n"
        )
        assert self._mutations(tmp_path, source) == []

    def test_constructed_object_mutation_is_fresh(self, tmp_path):
        """Calling a constructor whose __init__ writes self, then
        mutating the result, touches no pre-existing state."""
        source = MARKER + (
            "class Bag:\n"
            "    def __init__(self):\n"
            "        self.items = []\n"
            "@declared_pure\n"
            "def build(xs):\n"
            "    bag = Bag()\n"
            "    bag.items.append(xs)\n"
            "    return bag\n"
        )
        assert self._mutations(tmp_path, source) == []

    def test_del_of_local_name_is_unbinding_not_mutation(self, tmp_path):
        source = MARKER + (
            "@declared_pure\n"
            "def pick(xs):\n"
            "    best = xs[0]\n"
            "    del best\n"
            "    return xs[0]\n"
        )
        assert self._mutations(tmp_path, source) == []

    def test_del_of_attribute_is_a_mutation(self, tmp_path):
        source = MARKER + (
            "class Cache:\n"
            "    def __init__(self):\n"
            "        self._entries = {}\n"
            "    @declared_pure\n"
            "    def evict(self, key):\n"
            "        del self._entries[key]\n"
        )
        (hit,) = self._mutations(tmp_path, source)
        assert hit.effect.op == "del"
        assert hit.effect.root == "self"

    def test_global_statement_assignment_is_a_mutation(self, tmp_path):
        source = MARKER + (
            "COUNT = 0\n"
            "@declared_pure\n"
            "def bump():\n"
            "    global COUNT\n"
            "    COUNT = COUNT + 1\n"
            "    return COUNT\n"
        )
        (hit,) = self._mutations(tmp_path, source)
        assert hit.effect.root == "global:COUNT"

    def test_param_rebound_to_fresh_value_demotes_the_alias(self, tmp_path):
        """x = list(x) launders the alias: later mutation is local."""
        source = MARKER + (
            "@declared_pure\n"
            "def dedupe(xs):\n"
            "    xs = list(xs)\n"
            "    xs.sort()\n"
            "    return xs\n"
        )
        assert self._mutations(tmp_path, source) == []

    def test_dict_spread_copies_but_keyed_value_aliases(self, tmp_path):
        source = (
            "from typing import Dict\n"
            "class Svc:\n"
            "    def __init__(self):\n"
            "        self._counts: Dict[str, int] = {}\n"
            "        self._jobs: Dict[str, int] = {}\n"
            "    def status(self):\n"
            "        return {**self._counts, 'jobs': self._jobs}\n"
        )
        analysis = analyse_source(
            tmp_path, source, LintConfig(select=PURE_IDS)
        )
        containers = {hit.container for hit in analysis.snapshots}
        assert containers == {"Svc._jobs"}

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        source = MARKER + (
            "@declared_pure\n"
            "def order(names):\n"
            "    pending = set(names)\n"
            "    return [n for n in sorted(pending)]\n"
        )
        analysis = analyse_source(
            tmp_path, source, LintConfig(select=PURE_IDS)
        )
        assert analysis.order == []

    def test_set_comprehension_into_listcomp_is_flagged(self, tmp_path):
        source = MARKER + (
            "@declared_pure\n"
            "def order(names):\n"
            "    pending = {n for n in names}\n"
            "    return [n for n in pending]\n"
        )
        analysis = analyse_source(
            tmp_path, source, LintConfig(select=PURE_IDS)
        )
        assert [h.consumer for h in analysis.order] == [
            "list-comprehension"
        ]

    def test_suppression_silences_pure_findings(self, tmp_path):
        source = MARKER + (
            "@declared_pure\n"
            "def noisy(acc):\n"
            "    # repro-lint: disable-next-line=RPL901\n"
            "    acc.append(1)\n"
        )
        analysis = analyse_source(
            tmp_path, source, LintConfig(select=PURE_IDS)
        )
        assert analysis.mutations == []

    def test_allow_calls_exempts_the_telemetry_surface(self, tmp_path):
        source = MARKER + (
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self._metrics = {}\n"
            "    def counter(self, name):\n"
            "        return self._metrics.setdefault(name, 0)\n"
            "class Probe:\n"
            "    def __init__(self):\n"
            "        self.metrics = Registry()\n"
            "    @declared_pure\n"
            "    def check(self, node):\n"
            "        self.metrics.counter('probe.checks')\n"
            "        return True\n"
        )
        flagged = analyse_source(
            tmp_path, source, LintConfig(select=PURE_IDS, pure_allow_calls=())
        )
        assert any(
            h.effect.chain == ("Registry.counter",)
            for h in flagged.mutations
        )
        allowed = analyse_source(
            tmp_path,
            source,
            LintConfig(
                select=PURE_IDS, pure_allow_calls=("Registry.counter",)
            ),
        )
        assert allowed.mutations == []


# ----------------------------------------------------------------------
# repro-lint --report pure
# ----------------------------------------------------------------------
def run_pure_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [
            sys.executable, "-m", "repro.analysis.cli", "--report", "pure",
            *args,
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd or REPO_ROOT,
    )


class TestPureCLI:
    def test_text_report_on_package_is_clean(self):
        result = run_pure_cli(str(PACKAGE))
        assert result.returncode == 0, result.stderr
        assert "declared-pure registry" in result.stdout
        assert "probe_admit" in result.stdout
        assert "violations: none" in result.stdout
        assert "every registry entry resolves" in result.stdout

    def test_json_report_schema(self):
        result = run_pure_cli(
            str(FIXTURES / "effect_bad.py"), "--format", "json"
        )
        assert result.returncode == 1
        payload = json.loads(result.stdout)
        assert set(payload) >= {
            "pure_roots",
            "mutations",
            "probe_entries",
            "phase_violations",
            "snapshot_escapes",
            "order_hazards",
            "stale_registry",
            "violations",
        }
        # Default config: the @declared_pure marker and the snapshot
        # accessors still yield findings without any fixture config.
        assert payload["violations"] >= 1

    def test_check_fails_on_bad_fixture(self):
        result = run_pure_cli(str(FIXTURES / "effect_bad.py"))
        assert result.returncode == 1
        assert "violation(s) found" in result.stderr

    def test_missing_path_is_usage_error(self, tmp_path):
        result = run_pure_cli(cwd=tmp_path)
        assert result.returncode == 2


# ----------------------------------------------------------------------
# Config + cache: the nested pure table
# ----------------------------------------------------------------------
PURE_TABLE = (
    "[tool.repro-lint.pure]\n"
    'registry = ["pkg.mod.fn"]\n'
    'probe-entrypoints = ["pkg.mod.fn"]\n'
)


class TestPureConfigAndCache:
    def test_nested_table_parses_into_pure_fields(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(PURE_TABLE)
        config = load_config(tmp_path)
        assert config.pure_registry == ("pkg.mod.fn",)
        assert config.pure_probe_entrypoints == ("pkg.mod.fn",)
        # Untouched pure fields keep their defaults.
        assert "repro.cluster.state.Cluster.place" in (
            config.pure_commit_mutators
        )

    def test_unknown_pure_subkey_is_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint.pure]\nregistryy = ['x']\n"
        )
        with pytest.raises(ValueError, match="repro-lint.pure"):
            load_config(tmp_path)

    def test_non_list_pure_value_is_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint.pure]\nregistry = 'x'\n"
        )
        with pytest.raises(ValueError):
            load_config(tmp_path)

    def test_nested_table_edit_changes_config_digest(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(PURE_TABLE)
        before = config_digest(load_config(tmp_path))
        pyproject.write_text(
            PURE_TABLE.replace("pkg.mod.fn", "pkg.mod.other")
        )
        after = config_digest(load_config(tmp_path))
        assert before != after

    def test_nested_table_edit_invalidates_cached_run(self, tmp_path):
        """End-to-end: a cached clean verdict must not survive an edit
        to [tool.repro-lint.pure]."""
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(PURE_TABLE)
        target = tmp_path / "mod.py"
        target.write_text("def fn():\n    return 1\n")
        cache = LintCache(tmp_path / "cache.json")
        key = cache_key([target], load_config(tmp_path))
        cache.store(key, [])
        assert cache.lookup(key) == []
        pyproject.write_text(
            PURE_TABLE.replace("pkg.mod.fn", "pkg.mod.other")
        )
        new_key = cache_key([target], load_config(tmp_path))
        assert cache.lookup(new_key) is None


# ----------------------------------------------------------------------
# Meta: the repo's own probe/commit split, pinned
# ----------------------------------------------------------------------
class TestRepoPurity:
    """Mirrors repro-lint-src-is-clean for the PURE family, plus the
    two acceptance mutations that must break the gate."""

    def test_package_tree_is_pure_clean(self):
        findings = run_lint(
            [PACKAGE], LintConfig(select=PURE_IDS)
        )
        assert findings == [], [f.message for f in findings]

    def _mutated_package(self, tmp_path, filename, old, new):
        tree = tmp_path / "repro"
        shutil.copytree(PACKAGE, tree)
        target = tree / filename
        source = target.read_text()
        assert old in source, f"mutation anchor missing in {filename}"
        target.write_text(source.replace(old, new, 1))
        return tree

    def test_set_shaped_probe_walk_fails_the_check(self, tmp_path, capsys):
        """Acceptance: routing the probe walk through a set (hash-order
        probing) must flip ``repro-lint --report pure`` to exit 1."""
        tree = self._mutated_package(
            tmp_path,
            "warehouse/service.py",
            "for index in self._by_density[density]:",
            "for index in set(self._by_density[density]):",
        )
        code = lint_main([str(tree), "--report", "pure"])
        out = capsys.readouterr()
        assert code == 1
        assert "_by_density" in out.out
        assert "probe_admit" in out.out

    def test_probe_attribute_write_fails_the_check(self, tmp_path, capsys):
        """Acceptance: one attribute write inside QuickProbe.check must
        flip ``repro-lint --report pure`` to exit 1."""
        tree = self._mutated_package(
            tmp_path,
            "warehouse/admission.py",
            "tried = set()",
            "tried = set()\n        self._last_node = node_state.index",
        )
        code = lint_main([str(tree), "--report", "pure"])
        out = capsys.readouterr()
        assert code == 1
        assert "QuickProbe.check" in out.out
        assert "_last_node" in out.out

    def test_unsanctioned_store_write_fails_the_check(self, tmp_path, capsys):
        """Removing the reasoned suppression re-exposes the RPL902 hit
        at the obstore publish site — the suppression is load-bearing."""
        tree = self._mutated_package(
            tmp_path,
            "server/node.py",
            "        # repro-lint: disable-next-line=RPL902\n",
            "",
        )
        code = lint_main([str(tree), "--report", "pure"])
        out = capsys.readouterr()
        assert code == 1
        assert "ObservationStore.put" in out.out
