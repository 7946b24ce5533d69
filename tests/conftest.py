import numpy as np
import pytest

from eqsentinel.envs import soccer
from eqsentinel.harness import scenarios
from eqsentinel.stochastic import SolverConfig, shapley_solve_arrays

_CRITERION_RESULTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, label=...): acceptance criterion check"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker and rep.when == "call":
        num = marker.args[0]
        label = marker.kwargs.get("label", item.name)
        _CRITERION_RESULTS[num] = (rep.passed, label)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERION_RESULTS):
        passed, label = _CRITERION_RESULTS[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num:02d}: {status} - {label}")


@pytest.fixture(scope="session")
def two_signal():
    return (
        scenarios.two_signal_game(),
        scenarios.two_signal_nash(),
        scenarios.two_signal_alternative(),
    )


@pytest.fixture(scope="session")
def soccer_game():
    return soccer.soccer_build_model()


@pytest.fixture(scope="session")
def soccer_solution(soccer_game):
    return shapley_solve_arrays(
        soccer_game.native_reward, soccer_game.model.kernel, SolverConfig()
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
