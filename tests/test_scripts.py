import importlib.util
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_bench_search_wraps_helpers_that_exist(monkeypatch):
    # bench_search.py patches search helpers by name, so a renamed or deleted
    # helper would only show as an AttributeError when the script runs
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends src/ and perfbench/
    spec = importlib.util.spec_from_file_location("bench_search", SCRIPTS / "bench_search.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    targets = [(mod, attr) for mod, attr, _ in script.TIMED] + list(script.COUNTED)
    assert len(targets) == 8
    assert [(mod.__name__, attr) for mod, attr in targets if not hasattr(mod, attr)] == []
