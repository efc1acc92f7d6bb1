"""The benchmark's traced run finds every layer it probes.

`perfbench/probes.py` only lists a probe whose function is missing, so a
rename in `src/` would otherwise leave that layer out of the traced run
without a failure.
"""

import importlib
import importlib.util
from pathlib import Path

from linclob import strategy, taxonomy

_PROBES_PY = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


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
