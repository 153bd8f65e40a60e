"""What a run imports: the experiment CLI and a storeless quick run load
neither networkx nor PyYAML nor the trial store nor the coordinator
stack, which only the flags (or the one networkx-built family) that
need them import."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Modules a storeless, uncoordinated run must never load.
UNUSED = ("networkx", "yaml", "repro.sim.batch.colstore",
          "repro.analysis.coordinated", "http.server")


def loaded_after(body: str) -> list:
    """Run ``body`` in a fresh interpreter; the UNUSED modules it left
    loaded (the last stdout line)."""
    script = textwrap.dedent(body) + textwrap.dedent(f"""
        import json, sys
        print(json.dumps([m for m in {UNUSED!r} if m in sys.modules]))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), REPRO_WORKERS="1")
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class TestImportGuard:
    def test_cli_import_loads_none(self):
        assert loaded_after("import repro.analysis.cli") == []

    def test_storeless_quick_run_loads_none(self):
        assert loaded_after("""
            import runpy, sys
            sys.argv = ["python -m repro.analysis", "e01", "e10"]
            try:
                runpy.run_module("repro.analysis", run_name="__main__")
            except SystemExit as done:
                assert not done.code, done.code
        """) == []

    def test_faulty_storeless_trial_loads_none(self):
        """A fault plan is simulation, not coordination: importing it and
        running a faulty trial without a store loads no coordinator."""
        assert loaded_after("""
            from repro.sim.batch.faults import RoundFaultPlan
            from repro.sim.batch import (TrialSpec, deterministic_uniform,
                                         luby_mis_trial, run_trials)
            spec = TrialSpec.of("cycle", 24, 1, fault_crash=0.2,
                                fault_loss=0.1, fault_seed=3)
            (result,) = run_trials(luby_mis_trial, [spec])
            assert result.spec == spec
        """) == []

    def test_flags_still_reach_their_stacks(self):
        assert loaded_after("""
            from repro.graphs import make
            make("expander", 20)
            from repro.scenarios import load_named
            load_named("adversarial-ids")
            from repro.sim.batch import ColumnarStore
            import repro.analysis.coordinated
            import http.server
        """) == list(UNUSED)

    def test_help_text_constants_match_the_coordinator(self):
        from repro.analysis import cli
        from repro.sim.batch import distrib

        assert cli.SWEEP_TOKEN_ENV == distrib.TOKEN_ENV_VAR
        assert cli.SWEEP_MAX_ATTEMPTS == distrib.DEFAULT_MAX_ATTEMPTS

    def test_store_names_stay_importable(self):
        from repro.sim.batch import ColumnarStore, compact, merge_stores
        from repro.sim.batch.colstore import ColumnarStore as store_class
        from repro.sim.batch.colstore import compact as compact_fn

        assert ColumnarStore is store_class and compact is compact_fn
        assert callable(merge_stores)
