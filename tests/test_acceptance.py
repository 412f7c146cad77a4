"""Acceptance gate: one test per check, one printed verdict line per check.

Four checks (6a, 6b, 7b, 9v) assert published classification claims that are
contradicted by re-derivation under the stated excluded-minor definition (all
single-element deletions and contractions must stay in the class). They are
implemented exactly as stated and therefore FAIL, with witnesses; the
surrounding checks (7a/7c, 11a-c) verify the corrected classification,
including the dual-closure property the published two-element list cannot
satisfy. See README.md ("Acceptance status").
"""

import pytest

from pmkit import verify


@pytest.fixture(scope="module")
def results():
    out = {}
    for check in verify.ALL_CHECKS:
        result = check()
        out[result.cid] = result
    return out


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    line = f"{status} {result.cid:<5} {result.name} ({result.seconds:.3f}s)"
    print(line)
    if not result.passed:
        print(f"     {result.detail}")
    return line


CHECK_IDS = ["1", "2", "3a", "3b", "4a", "4b", "4c", "5", "6a", "6b",
             "7a", "7b", "7c", "7d", "8", "9i", "9ii", "9iii", "9iv",
             "9v", "10a", "10b", "10c", "11a", "11b", "11c"]


@pytest.mark.parametrize("cid", CHECK_IDS)
def test_criterion(cid, results):
    result = results[cid]
    _report(result)
    assert result.passed, f"{result.name}: {result.detail}"


def test_every_check_has_a_unique_id(results):
    assert sorted(results) == sorted(CHECK_IDS)


def test_expected_failures_are_exactly_the_published_claims(results):
    failed = {cid for cid, result in results.items() if not result.passed}
    assert failed == set(verify.EXPECTED_FAILURES)


def test_check_index_matches_reported_metadata(results):
    for cid, suite, _ in verify.CHECK_INDEX:
        assert results[cid].suite == suite


def test_decomposition_checks_keep_their_case_counts(results):
    assert results["9iii"].detail == ("2462 decomposable cases, exhaustive "
                                      "|E| <= 3 for k in (4,7,8)")
    # the detail ends with the elapsed seconds
    assert results["9iv"].detail.startswith(
        "139888 (element, level) cases, exhaustive |E| <= 3, k <= 8, ")
