from llvkit.reporting import Record


def test_record_verdicts_follow_fail_and_skip():
    rec = Record("statement", "the claim", {"failures": []})
    assert rec.ok and rec.verdict == "pass" and rec.failures == []
    rec.fail("first witness")
    rec.fail("second witness")
    assert not rec.ok and rec.verdict == "fail"
    assert rec.failures == ["first witness", "second witness"]
    # a skip replaces the data by its reason, and is not a failure
    assert rec.skip("outside the statement") is rec
    assert rec.ok and rec.data == {"reason": "outside the statement"}
