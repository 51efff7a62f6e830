"""Session hooks: print a one-line ledger entry per acceptance criterion;
share the E_8 transversal scan between the tests that compare against it,
and the reference 3I - S and A + 2I that the rank and Gram checks compare
with."""
from functools import lru_cache

import pytest

from seidel_forge.exact_linalg import IntMatrix
from seidel_forge.seidel_core import seidel_of_graph


def three_i_minus_s(G) -> IntMatrix:
    """3I - S(G), built from the Seidel matrix as the paper defines it."""
    return IntMatrix.identity(G.n).scale(3).sub(seidel_of_graph(G))


def a_plus_2i(G) -> IntMatrix:
    """A(G) + 2I, built from the Seidel matrix as the paper defines it:
    (J + 3I - S)/2."""
    S = seidel_of_graph(G)
    return IntMatrix.from_rows(
        [(1 + 3 * (i == j) - s) // 2 for j, s in enumerate(row)] for i, row in enumerate(S.rows))


_registered: dict[str, str] = {}
_outcomes: dict[str, str] = {}


def pytest_collection_modifyitems(session, config, items):
    for item in items:
        module = getattr(item, "module", None)
        if (
            module is not None
            and module.__name__ == "test_acceptance"
            and item.name.startswith("test_criterion_")
        ):
            func = getattr(item, "function", None)
            doc = (getattr(func, "__doc__", None) or item.name).strip()
            _registered[item.nodeid] = doc.splitlines()[0]


def pytest_runtest_logreport(report):
    if report.nodeid in _registered and report.when == "call":
        _outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _registered:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid, desc in _registered.items():
        outcome = _outcomes.get(nodeid, "not run")
        flag = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"[{flag}] {desc}")


@pytest.fixture(scope="session")
def e8_scan():
    """n -> subset_orbit_transversal of the E_8 image group, run at most once
    per n in a session: it is the costliest scan in the suite."""
    from seidel_forge.enumeration import e8_context
    from seidel_forge.weyl_orbits import subset_orbit_transversal

    return lru_cache(maxsize=None)(lambda n: subset_orbit_transversal(e8_context().image, n))
