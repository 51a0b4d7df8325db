"""The reachability closure REP008's path-sensitive check runs on.

When a REP008 fixture regresses, these localize whether the closure
or the rule policy broke.
"""

from repro.analysis.rules.rep008_exception_safety import closure


class TestClosure:
    def test_closure_is_inclusive_and_transitive(self):
        graph = {1: [2], 2: [3], 3: [], 4: [1]}
        assert closure([1], lambda n: graph[n]) == {1, 2, 3}

    def test_closure_tolerates_cycles(self):
        graph = {1: [2], 2: [1]}
        assert closure([1], lambda n: graph[n]) == {1, 2}
