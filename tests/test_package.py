"""The package's top level: README's "Library" example runs as written."""

import importlib
import math
import re
from pathlib import Path

import numpy as np

import saeti
from conftest import two_regime_series
from saeti.core_ts import TimeSeries
from saeti.scenarios import gen_blackout

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("autograd", "cli", "core_ts", "models", "mpdist", "pipeline", "scenarios",
           "snippets", "training")
TOP_LEVEL = {"TimeSeries", "minmax_normalize", "find_all_snippets", "TrainConfig",
             "train_bundle", "impute", "rmse", "read_csv", "impute_report", "__version__"}


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs_and_the_exports_resolve(capsys):
    values = two_regime_series(n=640, block=160).values
    gapped_ts, hidden_positions = gen_blackout(TimeSeries(values), 20, 7)
    namespace = {"values": values, "gapped_ts": gapped_ts, "hidden_positions": hidden_positions}
    exec(compile(library_example(), str(README), "exec"), namespace)
    filled = namespace["filled"]
    assert filled.n_missing == 0
    assert np.array_equal(filled.values[gapped_ts.mask], values[gapped_ts.mask])
    assert math.isfinite(float(capsys.readouterr().out))

    assert set(saeti.__all__) == TOP_LEVEL and len(saeti.__all__) == len(TOP_LEVEL)
    for module in (saeti, *(importlib.import_module(f"saeti.{m}") for m in MODULES)):
        assert [name for name in module.__all__ if not hasattr(module, name)] == []
