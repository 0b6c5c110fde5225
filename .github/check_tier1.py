"""Check a tier-1 JUnit report against the documented failure set.

Usage: python .github/check_tier1.py REPORT.xml

The four finitely unattainable acceptance criteria (see README) must fail,
each with a test failure; every other test must pass. The check exits 1 if
any other test fails or errors, if one of the four passes, errors or is
missing, or if any test is skipped.
"""

import sys
import xml.etree.ElementTree as ET

UNATTAINABLE = {
    f"tests.test_acceptance.{name}" for name in (
        "test_criterion_2_full_recovery_all_shapes_UNATTAINABLE",
        "test_criterion_3_roundtrip_prodexp_pointed_UNATTAINABLE",
        "test_criterion_4_identity_suites_prodexp_pointed_UNATTAINABLE",
        "test_criterion_5_lawvere_prodexp_pointed_UNATTAINABLE",
    )
}


def outcomes(path: str) -> dict[str, str]:
    """Each test case's id and outcome: passed, failure, error or skipped."""
    out = {}
    for case in ET.parse(path).iter("testcase"):
        tid = f"{case.get('classname')}.{case.get('name')}".lstrip(".")
        kinds = [child.tag for child in case if child.tag in ("failure", "error", "skipped")]
        out[tid] = "error" if "error" in kinds else kinds[0] if kinds else "passed"
    return out


def main(path: str) -> int:
    results = outcomes(path)
    problems = [f"{tid}: expected a failure, got {results.get(tid, 'nothing')}"
                for tid in sorted(UNATTAINABLE) if results.get(tid) != "failure"]
    problems += [f"{tid}: {outcome}" for tid, outcome in sorted(results.items())
                 if tid not in UNATTAINABLE and outcome != "passed"]
    passed = sum(outcome == "passed" for outcome in results.values())
    print(f"{len(results)} tests: {passed} passed, "
          f"{len(results) - passed} not passed ({len(UNATTAINABLE)} expected)")
    for line in problems:
        print(f"unexpected: {line}")
    print("tier-1 failure set: " + ("as documented" if not problems else "WRONG"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
