import collections
import pathlib
import sys

import pytest

from nlpflow import flow
from nlpflow.io import load_problem

ROOT = pathlib.Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "problems"


@pytest.fixture(scope="session")
def p41():
    """Full and reduced forms of the 3-variable linearly constrained problem."""
    return load_problem(PROBLEMS / "p41.nlp")


@pytest.fixture(scope="session")
def p42():
    """Full and reduced forms of the Rosen-Suzuki problem."""
    return load_problem(PROBLEMS / "p42.nlp")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(*functions)`` wraps each function at every nlpflow
    module that binds it, and returns the Counter of their calls by
    function name, which later calls of the wrapped names update."""
    counts = collections.Counter()

    def watch(*functions):
        for fn in functions:
            def counted(*args, _fn=fn, **kwargs):
                counts[_fn.__name__] += 1
                return _fn(*args, **kwargs)
            for name, module in list(sys.modules.items()):
                if name == "nlpflow" or name.startswith("nlpflow."):
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, attr, counted)
        return counts
    return watch


@pytest.fixture
def block_rows(monkeypatch):
    """The rows of every ``field_block`` call that ``flow`` makes, one list
    of bytes per call."""
    calls, field_block = [], flow.field_block

    def recording(p, params, X, feas_tol):
        calls.append([x.tobytes() for x in X])
        return field_block(p, params, X, feas_tol)

    monkeypatch.setattr(flow, "field_block", recording)
    return calls
