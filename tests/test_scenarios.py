"""The scenario layer: spec model, loader, library, faults, coordination.

Covers the guarantees the layer advertises: strict two-way
serialization (load -> serialize -> load is exact, digests ignore key
order, junk fails loudly), compilation to the same TrialSpec grids the
hand-written sweeps used (plain scenarios add zero params, so store
keys are unchanged), every library scenario running end-to-end at a
tiny scale, seeded per-round fault injection staying deterministic,
and scenario work units surviving the JSON trip through a coordinator.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from helpers import (
    crashes,
    delivers_on_crash,
    drops,
    oracle_bfs_forest,
    oracle_flood_min,
    oracle_luby_mis,
)

from repro.analysis.coordinated import execute_experiment_unit, scenario_units
from repro.analysis.experiments import SCENARIO_PLANS, scenario_plan
from repro.analysis.tables import scenario_table
from repro.core.mis import luby_mis
from repro.errors import ConfigurationError
from repro.graphs import assign, make
from repro.graphs.generators import (
    FAMILIES,
    cluster_of_cliques,
    dumbbell,
    gnp,
    lopsided,
    random_regular,
)
from repro.randomness import IndependentSource
from repro.scenarios import (
    FaultModel,
    ScenarioSpec,
    available,
    dumps,
    load_named,
    loads,
    register_task,
    resolve_task,
    scenario_from_arg,
    sweep_scenario,
)
from repro.sim.batch import (
    ColumnarStore,
    RoundFaultPlan,
    TrialResult,
    TrialSpec,
    canonical_spec,
    spec_key,
)
from repro.sim.batch.runner import task_name_of


def _rich_scenario() -> ScenarioSpec:
    """One scenario exercising every optional section at once."""
    return sweep_scenario(
        "rich", "luby-mis", "path", (8, 12),
        description="every knob at once",
        ids="adversarial", bit_budget=4096,
        faults=FaultModel(crash=0.1, loss=0.2, seed=9, start_round=2),
        seed_base=3, seed_count=2, max_rounds=500)


class TestSerialization:
    def test_library_round_trips_exactly(self):
        for name in available():
            spec = load_named(name)
            again = loads(dumps(spec), source=name)
            assert again == spec, name
            assert again.digest() == spec.digest(), name

    def test_rich_round_trip(self):
        spec = _rich_scenario()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert loads(dumps(spec)) == spec

    def test_digest_ignores_key_order(self):
        spec = load_named("crash-midround")
        data = spec.to_dict()
        shuffled = json.dumps(dict(reversed(list(data.items()))))
        assert loads(shuffled).digest() == spec.digest()

    def test_to_dict_omits_defaults(self):
        spec = sweep_scenario("plain", "luby-mis", "path", (8,))
        data = spec.to_dict()
        assert set(data) == {"name", "graph", "algorithm"}
        assert data["algorithm"] == {"task": "luby-mis"}

    def test_digest_differs_on_content(self):
        a = sweep_scenario("s", "luby-mis", "path", (8,))
        b = sweep_scenario("s", "luby-mis", "path", (9,))
        assert a.digest() != b.digest()


class TestValidation:
    @pytest.mark.parametrize("data", [
        {"name": "x", "bogus": 1},
        {"name": ""},
        {"name": "x"},  # sweep without graph/algorithm
        {"name": "x", "graph": {"family": "path", "sizes": [8]}},
        {"name": "x", "graph": {"family": "path", "sizes": []},
         "algorithm": {"task": "luby-mis"}},
        {"name": "x", "graph": {"family": "path", "sizes": [0]},
         "algorithm": {"task": "luby-mis"}},
        {"name": "x", "graph": {"family": "path", "sizes": 8},
         "algorithm": {"task": "luby-mis"}},
        {"name": "x", "graph": {"family": "path", "sizes": [8], "junk": 1},
         "algorithm": {"task": "luby-mis"}},
        {"name": "x", "graph": {"family": "path", "sizes": [8]},
         "algorithm": {"task": "luby-mis", "engine": "fast"}},  # removed
        {"name": "x", "graph": {"family": "path", "sizes": [8]},
         "algorithm": {"task": "luby-mis",
                       "params": {"engine": "array"}}},  # removed knob
        {"name": "x", "graph": {"family": "path", "sizes": [8]},
         "algorithm": {"task": "luby-mis", "params": {"w": [1, 2]}}},
        {"name": "x", "graph": {"family": "path", "sizes": [8]},
         "algorithm": {"task": "luby-mis"},
         "ids": {"scheme": "alphabetical"}},
        {"name": "x", "graph": {"family": "path", "sizes": [8]},
         "algorithm": {"task": "luby-mis"},
         "randomness": {"bit_budget": 0}},
        {"name": "x", "graph": {"family": "path", "sizes": [8]},
         "algorithm": {"task": "luby-mis"}, "faults": {"crash": 1.5}},
        {"name": "x", "graph": {"family": "path", "sizes": [8]},
         "algorithm": {"task": "luby-mis"}, "faults": {}},  # no-op model
        {"name": "x", "graph": {"family": "path", "sizes": [8]},
         "algorithm": {"task": "luby-mis"},
         "faults": {"loss": 0.1, "start_round": 0}},
        {"name": "x", "graph": {"family": "path", "sizes": [8]},
         "algorithm": {"task": "luby-mis"}, "seeds": {"count": 0}},
        {"name": "x", "experiments": {"names": []}},
        {"name": "x", "experiments": {"names": ["e01", "e01"]}},
        {"name": "x", "experiments": {"names": ["e01"],
                                      "profile": "medium"}},
        {"name": "x", "experiments": {"names": ["e01"]},
         "graph": {"family": "path", "sizes": [8]}},
    ])
    def test_bad_specs_fail_loudly(self, data):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_engine_param_is_refused_by_name(self):
        # A file's algorithm.engine key is refused in test_kernels.
        with pytest.raises(ConfigurationError,
                           match="algorithm.params may not set 'engine'"):
            sweep_scenario("x", "luby-mis", "path", (8,), engine="array")

    def test_loader_rejects_non_mapping(self):
        with pytest.raises(ConfigurationError):
            loads("- just\n- a list\n")

    def test_unknown_task_and_family_fail_at_compile(self):
        with pytest.raises(ConfigurationError):
            sweep_scenario("x", "no-such-task", "path", (8,)).compile()
        with pytest.raises(ConfigurationError):
            sweep_scenario("x", "luby-mis", "moebius", (8,)).compile()


class TestCompile:
    def test_plain_scenario_matches_handwritten_grid(self):
        spec = sweep_scenario("s", "luby-mis", "path", (8, 12), seed_count=2)
        assert spec.compile() == [
            TrialSpec.of("path", 8, 0), TrialSpec.of("path", 8, 1),
            TrialSpec.of("path", 12, 0), TrialSpec.of("path", 12, 1)]

    def test_optional_sections_become_spec_params(self):
        trial = _rich_scenario().compile()[0]
        assert trial.param("ids") == "adversarial"
        assert trial.param("bit_budget") == 4096
        assert trial.param("fault_crash") == 0.1
        assert trial.param("fault_loss") == 0.2
        assert trial.param("fault_seed") == 9
        assert trial.param("fault_start") == 2
        assert trial.param("max_rounds") == 500
        assert trial.seed == 3

    def test_experiments_scenario_has_no_grid(self):
        spec = load_named("paper-quick")
        assert spec.kind == "experiments"
        with pytest.raises(ConfigurationError):
            spec.compile()

    def test_scaled_clamps(self):
        spec = load_named("crash-midround").scaled(max_size=16, max_count=1)
        assert spec.graph.sizes == (16,)
        assert spec.seeds.count == 1

    def test_experiment_plans_compile(self):
        for name in SCENARIO_PLANS:
            grids = [s.compile() for s in scenario_plan(name, quick=True,
                                                        seed=1)]
            assert grids and all(grids), name

    def test_unknown_plan(self):
        with pytest.raises(ConfigurationError):
            scenario_plan("e99")


class TestLoader:
    def test_library_is_complete(self):
        assert set(available()) >= {
            "paper-quick", "paper-full", "adversarial-ids", "crash-midround",
            "lossy-congest", "edge-churn", "lopsided-degree",
            "cliques-stress"}

    def test_unknown_name_lists_library(self):
        with pytest.raises(ConfigurationError, match="library scenarios"):
            load_named("no-such-scenario")

    def test_from_arg_accepts_paths(self, tmp_path):
        path = tmp_path / "mine.yaml"
        path.write_text(dumps(sweep_scenario("mine", "luby-mis", "path",
                                             (8,))))
        assert scenario_from_arg(str(path)).name == "mine"
        with pytest.raises(ConfigurationError):
            scenario_from_arg(str(tmp_path / "absent.yaml"))


class TestRegistry:
    def test_reregistering_same_binding_is_idempotent(self):
        fn, free = resolve_task("luby-mis")
        register_task("luby-mis", fn, free)

    def test_conflicting_binding_rejected(self):
        with pytest.raises(ConfigurationError):
            register_task("luby-mis", lambda spec: None)

    def test_experiment_tasks_resolve_lazily(self):
        fn, free = resolve_task("e03")
        assert callable(fn) and free  # e03's family is the regime name

    def test_unknown_task(self):
        with pytest.raises(ConfigurationError, match="registered tasks"):
            resolve_task("no-such-task")


class TestRoundFaultPlan:
    @pytest.mark.parametrize("kwargs", [
        dict(crash=1.5), dict(loss=-0.1), dict(churn=2.0),
        dict(crash=0.1, start_round=0)])
    def test_bad_rates_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RoundFaultPlan(seed=1, **kwargs)

    def test_inactive_plan_is_byte_identical_to_none(self):
        g = assign(make("cycle", 16), "random", seed=2)
        clean = luby_mis(g, IndependentSource(seed=2))
        inert = luby_mis(g, IndependentSource(seed=2),
                         faults=RoundFaultPlan(seed=1))
        assert inert.outputs == clean.outputs
        assert inert.report == clean.report

    def test_crashes_are_deterministic_and_visible(self):
        g = assign(make("cycle", 16), "random", seed=2)
        plan = RoundFaultPlan(seed=7, crash=0.4)
        first = luby_mis(g, IndependentSource(seed=2), faults=plan)
        second = luby_mis(g, IndependentSource(seed=2), faults=plan)
        assert first.outputs == second.outputs
        assert first.report == second.report
        clean = luby_mis(g, IndependentSource(seed=2))
        assert first.outputs != clean.outputs

    def test_pinned_array_engine_runs_faults(self):
        # engine="array" names the one engine, so a pinned run under an
        # active plan runs it and equals the per-node oracle.
        g = assign(make("cycle", 12), "random", seed=2)
        plan = RoundFaultPlan(seed=1, loss=0.5)
        pinned = luby_mis(g, IndependentSource(seed=2), engine="array",
                          faults=plan)
        ref = oracle_luby_mis(g, IndependentSource(seed=2), faults=plan)
        assert (pinned.outputs, pinned.report) == (ref.outputs, ref.report)
        assert pinned.report != luby_mis(g, IndependentSource(seed=2)).report

    @pytest.mark.parametrize("plan", [
        RoundFaultPlan(seed=3, crash=0.3, loss=0.2, churn=0.4),
        RoundFaultPlan(seed="chaos", crash=0.05, churn=0.15, start_round=3),
        RoundFaultPlan(seed=9, loss=0.5, start_round=2),
    ], ids=["all-rates", "late-start", "loss-only"])
    def test_array_masks_equal_scalar_decisions(self, plan):
        rng = np.random.default_rng(11)
        for round_index in rng.integers(1, 40, size=8).tolist():
            nodes = rng.integers(0, 500, size=64)
            targets = rng.integers(0, 500, size=64)
            assert plan.crash_mask(round_index, nodes).tolist() == [
                crashes(plan, round_index, v) for v in nodes.tolist()]
            pairs = list(zip(nodes.tolist(), targets.tolist()))
            assert plan.escape_mask(round_index, nodes, targets).tolist() == [
                delivers_on_crash(plan, round_index, v, t) for v, t in pairs]
            assert plan.drop_mask(round_index, nodes, targets).tolist() == [
                drops(plan, round_index, v, t) for v, t in pairs]

    def test_array_masks_hash_each_key_once(self, monkeypatch):
        # A (label, seed, endpoints) key is derived, from a copy of the
        # label's hashed prefix, on the plan's first decision about
        # those endpoints; later rounds reuse it.
        import repro.sim.batch.faults as faults_module

        derived = []
        real = faults_module.key_prefix

        class Counted:
            def __init__(self, state):
                self.state = state

            def copy(self):
                derived.append(1)
                return self.state.copy()

        monkeypatch.setattr(faults_module, "key_prefix",
                            lambda *parts: Counted(real(*parts)))
        plan = RoundFaultPlan(seed=4, loss=0.3, churn=0.3)
        senders, targets = np.array([0, 1, 2, 1]), np.array([1, 0, 1, 2])
        first = plan.drop_mask(1, senders, targets)
        # Four directed loss keys, two undirected churn keys.
        assert len(derived) == 6
        for round_index in range(2, 6):
            plan.drop_mask(round_index, senders, targets)
        assert len(derived) == 6
        assert plan.drop_mask(1, senders, targets).tolist() == first.tolist()

    def test_trial_task_reports_adversarial_failure_as_data(self):
        spec = TrialSpec.of("path", 12, 1, bit_budget=8)
        result = resolve_task("luby-mis")[0](spec)
        assert not result.ok
        assert result.data == {"failure": "RandomnessExhausted"}


class TestGeneratorValidation:
    @pytest.mark.parametrize("call", [
        lambda: gnp(0, 0.5), lambda: gnp(5, 1.5),
        lambda: random_regular(4, 0), lambda: random_regular(3, 3),
        lambda: cluster_of_cliques(2, 1), lambda: cluster_of_cliques(0, 4),
        lambda: dumbbell(1, 2), lambda: dumbbell(3, 0),
        lambda: lopsided(1), lambda: lopsided(10, hubs=10)])
    def test_degenerate_inputs_rejected(self, call):
        with pytest.raises(ConfigurationError):
            call()

    @pytest.mark.parametrize("family", ["dumbbell", "lopsided"])
    def test_new_families_registered(self, family):
        assert make(family, 24, seed=1).n >= 20
        assert family in FAMILIES


class TestLibraryEndToEnd:
    @pytest.mark.parametrize("name", [
        "adversarial-ids", "crash-midround", "lossy-congest", "edge-churn",
        "lopsided-degree", "cliques-stress"])
    def test_sweep_scenarios_run_tiny(self, name):
        spec = load_named(name).scaled(max_size=16, max_count=1)
        results = spec.run()
        assert len(results) == len(spec.compile())
        assert all(isinstance(r, TrialResult) for r in results)
        again = spec.run()
        assert [(r.ok, r.data) for r in again] == \
               [(r.ok, r.data) for r in results]

    @pytest.mark.parametrize("name", ["adversarial-ids", "lopsided-degree",
                                      "cliques-stress"])
    def test_fault_free_scenarios_pass_their_checker(self, name):
        spec = load_named(name).scaled(max_size=16, max_count=1)
        assert all(r.ok for r in spec.run())

    #: Per library scenario: its ScenarioSpec.digest and the digest of
    #: its full storeless sweep's canonical records (see
    #: :meth:`records_digest`), computed before the engine became a
    #: function of the fault plan; none may move.
    PINNED = {
        "adversarial-ids": ("3090a540bbba769448e31fbb18d8f4d5",
                            "02085a2c5463a76352bf306e99dba3f7"),
        "cliques-stress": ("8f6894d71a7d99ed0164a551455e7c66",
                           "e819c087ba44d15233246cb20858249d"),
        "crash-midround": ("bc5fde64e57dd408b732f99c5561d766",
                           "16c5b2411eebab60af331c4eb4f24259"),
        "edge-churn": ("06de7f2eb5411ab13d5f8acf0167c9ce",
                       "213fb4cef69ba41dd622e99e1cf4f5ee"),
        "lopsided-degree": ("eee88b1b78d7fff71cfd0a86d25a403f",
                            "6f06ec05059a4069f20321f74ed81e4e"),
        "lossy-congest": ("006c7fdc5b025afbccf95883e0c90ef4",
                          "95433dbf2dd290d469ddecd0c6576b95"),
        "paper-full": ("a335af0bb3676fd9728326f8219784b3", None),
        "paper-quick": ("7312b31f7beef7ac7a84d65163fdf7e1", None),
    }

    @staticmethod
    def records_digest(spec):
        """BLAKE2b-128 over one line per trial, in grid order: the
        store key, then the record (task, canonical spec, ok, data) as
        sorted-key JSON."""
        name = task_name_of(spec.task(), None)
        digest = hashlib.blake2b(digest_size=16)
        for result in spec.run(workers=1):
            record = {"task": name, "spec": canonical_spec(result.spec),
                      "ok": bool(result.ok), "data": result.data}
            line = spec_key(name, result.spec) + " " + json.dumps(
                record, sort_keys=True, separators=(",", ":"))
            digest.update(line.encode("utf-8") + b"\n")
        return digest.hexdigest()

    def test_pins_cover_the_library(self):
        assert sorted(self.PINNED) == available()

    @pytest.mark.parametrize("name", ["crash-midround", "edge-churn"])
    def test_oracle_reproduces_fault_records(self, monkeypatch, name):
        # The per-node programs on the reference engine, patched in for
        # the primitives, reproduce the pinned records of the faulty
        # scenarios: the fault semantics moved into ArrayEngine unchanged.
        import repro.core.mis as mis_module
        import repro.sim.primitives as primitives_module

        runs = []
        for module, name_, oracle in (
                (mis_module, "luby_mis", oracle_luby_mis),
                (primitives_module, "flood_min", oracle_flood_min),
                (primitives_module, "build_bfs_forest", oracle_bfs_forest)):
            def run(*args, _oracle=oracle, **kwargs):
                runs.append(_oracle)
                return _oracle(*args, **kwargs)
            monkeypatch.setattr(module, name_, run)
        spec = load_named(name)
        assert self.records_digest(spec) == self.PINNED[name][1]
        assert len(runs) == len(spec.compile())

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_library_records_pinned(self, name):
        spec = load_named(name)
        scenario_digest, records = self.PINNED[name]
        assert spec.digest() == scenario_digest
        if records is not None:
            assert self.records_digest(spec) == records

    def test_table_carries_digest(self):
        spec = load_named("cliques-stress").scaled(max_size=16, max_count=1)
        rendered = scenario_table(spec, spec.run()).render()
        assert spec.digest() in rendered


class TestScenarioUnits:
    def test_units_round_trip_through_json_and_store(self, tmp_path):
        spec = sweep_scenario("units", "luby-mis", "path", (8, 12),
                              seed_count=2)
        units = scenario_units(spec, 2)
        assert [u.index for u in units] == [0, 1]
        direct = spec.run()
        with ColumnarStore(str(tmp_path / "store")) as store:
            for unit in units:
                execute_experiment_unit(unit, store, lambda *_: None)
            assert len(store) == len(direct)
            replayed = spec.run(store=store)
        assert [(r.spec, r.ok, r.data) for r in replayed] == \
               [(r.spec, r.ok, r.data) for r in direct]

    def test_experiments_scenarios_cannot_become_units(self):
        with pytest.raises(ConfigurationError):
            scenario_units(load_named("paper-quick"), 2)


class TestCLI:
    def test_scenario_flag_runs_a_file(self, tmp_path, capsys):
        from repro.analysis.cli import main

        path = tmp_path / "tiny.yaml"
        path.write_text(dumps(sweep_scenario("tiny", "luby-mis", "path",
                                             (8,))))
        assert main(["--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Scenario tiny" in out

    @pytest.mark.parametrize("argv", [
        ["--scenario", "paper-quick", "--seed", "2"],
        ["--scenario", "paper-quick", "--full"],
        ["--scenario", "paper-quick", "e01"],
        ["--scenario", "paper-quick", "--worker", "http://x:1"]])
    def test_scenario_conflicts_exit_2(self, argv):
        from repro.analysis.cli import main

        assert main(argv) == 2
