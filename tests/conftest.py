import pytest

import acx4
import oracles

_criterion_results = {}


@pytest.fixture(scope="session")
def criterion_4_reductions():
    """The 10,000 seeded families of criterion 4, each built and reduced
    once per run, as (family, final family, move log) in seed order."""
    return [(fam, *acx4.reduce_to_minimal(fam))
            for fam in map(oracles.random_mutated_family, range(10_000))]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.module.__name__ == "test_acceptance":
        title = (item.function.__doc__ or item.name).strip().splitlines()[0]
        _criterion_results[item.name] = (title, report.outcome)


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_criterion_results):
        title, outcome = _criterion_results[name]
        label = "PASS" if outcome == "passed" else outcome.upper()
        terminalreporter.write_line(f"{label}  {title}")
