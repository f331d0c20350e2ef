import json
import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_leaked_children():
    """Fail any test that leaves a child process unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if pid == 0:
        pytest.fail("the test left a child process running")
    pytest.fail(f"the test left child process {pid} unreaped (wait status {status})")


@pytest.fixture
def k2_doc():
    """op1({a,b} -> {c,d,e}) and op2({c,d} -> {e,f}): 6 nodes, 10 links."""
    return {
        "services": [
            {
                "name": "svc",
                "operations": [
                    {
                        "name": "op1",
                        "inputs": [{"name": "a"}, {"name": "b"}],
                        "outputs": [{"name": "c"}, {"name": "d"}, {"name": "e"}],
                    },
                    {
                        "name": "op2",
                        "inputs": [{"name": "c"}, {"name": "d"}],
                        "outputs": [{"name": "e"}, {"name": "f"}],
                    },
                ],
            }
        ]
    }


@pytest.fixture
def k2_collection(k2_doc):
    from wsdepnet.model import collection_from_dict

    return collection_from_dict(k2_doc)


@pytest.fixture
def write_collection(tmp_path):
    def _write(doc, name="collection.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    return _write
