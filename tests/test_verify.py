from trirail import fk, verify
from trirail.params import MechanismParams, REFERENCE_PARAMS
from trirail.verify import REFERENCE_INPUTS, run_builtin_checks


def test_shared_results_are_computed_once(monkeypatch):
    calls = {"solve": 0, "sample": 0}
    solve, sample = fk.solve, verify.sample_regular_configurations

    def counted_solve(inputs, *args, **kwargs):
        # the worked example's own inputs; output-decoupling builds an equal
        # copy at its middle rail-3 offset, which is a different query
        calls["solve"] += inputs is REFERENCE_INPUTS
        return solve(inputs, *args, **kwargs)

    def counted_sample(*args, **kwargs):
        calls["sample"] += 1
        return sample(*args, **kwargs)

    monkeypatch.setattr(fk, "solve", counted_solve)
    monkeypatch.setattr(verify, "sample_regular_configurations", counted_sample)
    assert all(r.passed for r in run_builtin_checks())
    assert calls == {"solve": 1, "sample": 1}


def test_shared_failure_fails_only_its_readers():
    # with l2 = 80 the worked example's rails cannot close the planar loop
    params = MechanismParams(**dict(REFERENCE_PARAMS._asdict(), l2=80.0)).validate()
    details = {r.name: r.detail for r in run_builtin_checks(params) if not r.passed}
    message = "GammaOutOfRange: |yA1 - l3 - yA2| = 166.0116 mm exceeds 2*l2 = 160 mm"
    readers = ("direct-worked-example", "direct-alternate-rows", "spurious-elbow-rejected",
               "inverse-roundtrip", "jacobian-fd")
    assert {name: details[name] for name in readers} == dict.fromkeys(readers, message)
    assert "jacobian-det-product" not in details
