import json
import math

import pytest

from drivesql.generation import GenerationConfig, generate_pairs
from drivesql.scene_db import build_database, save_database
from drivesql.synth import demo_corpus


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Print one visible verdict line for tests tagged with a criterion."""
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    line = getattr(getattr(item, "function", None), "criterion_line", None)
    if not line:
        return
    reporter = item.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        verdict = "PASS" if report.passed else "FAIL"
        reporter.write_line(f"[{verdict}] {line}")


@pytest.fixture(scope="session")
def demo_annotations():
    return demo_corpus(6, seed=7)


@pytest.fixture(scope="session")
def demo_db(demo_annotations):
    return build_database(demo_annotations)


@pytest.fixture(scope="session")
def demo_pairs(demo_db):
    pairs, _ = generate_pairs(
        demo_db, GenerationConfig(master_seed=3, windows_per_scene=2)
    )
    return pairs


@pytest.fixture
def lowered_radius_db(tmp_path):
    """A saved database of ``demo_corpus(1, seed=2)`` whose radius is then
    lowered from 20.0 to 5.0, and the id of its first row beyond 5.0."""
    path = tmp_path / "lowered.db.json"
    save_database(build_database(demo_corpus(1, seed=2)), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["important_radius"] = 5.0
    path.write_text(json.dumps(doc), encoding="utf-8")
    far = [row["info_id"] for row in doc["instances"] if math.hypot(*row["local_t"][:2]) > 5.0]
    assert 0 < len(far) < len(doc["instances"])
    return path, far[0]
