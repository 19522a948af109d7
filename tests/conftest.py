import pytest

from drivesql.generation import GenerationConfig, generate_pairs
from drivesql.scene_db import build_database
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
