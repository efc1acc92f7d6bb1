"""The benchmark's traced run finds every layer it probes, and each workload
passes its answer gate.

`perfbench/probes.py` only lists a probe whose function is missing, so a
rename in `src/` would otherwise leave that layer out of the traced run
without a failure.  A change to an API a workload reads, or to an answer its
gate checks, fails here rather than only in a benchmark run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from linclob import strategy, taxonomy

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_PROBES_PY = _PERFBENCH / "probes.py"


def _probes():
    spec = importlib.util.spec_from_file_location("probes", _PROBES_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_probe_target_exists():
    probes = _probes()
    for layer, name, _ in probes.PROBES:
        module = importlib.import_module(f"linclob.{layer}")
        assert callable(getattr(module, name, None)), f"{layer}.{name}"
    # the worker reads the part-class memo's hit and miss counts
    assert callable(taxonomy.classify_part.cache_info)


def test_every_rule_id_has_a_traced_count():
    table = {row[0] for row in strategy._WHOLE_GAME_ROWS.values()}
    table |= {row[0] for row in strategy._RULE_TOKENS}
    assert table | {"spiral"} == set(_probes().RULE_IDS)


@pytest.mark.parametrize("workload", ["verify-range", "best-queries", "oracle-ladder"])
def test_each_workload_passes_its_answer_gate(tmp_path, workload):
    done = subprocess.run(
        [sys.executable, str(_PERFBENCH / "worker.py"), "--workload", workload,
         "--seed", "1", "--mode", "run", "--check", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failures"] == [] and result["attempted"] > 0
