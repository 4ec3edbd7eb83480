import run

SPECS = [{"name": "run_s", "unit": "s"}, {"name": "step_ms_p95", "unit": "ms"}]


def test_unmeasured_end_to_end_metric_fails_a_check_instead_of_aborting():
    result = {"metrics": {"run_s": 1.5}, "checks": [["J finite", True, ""]]}
    doc = run.report("w", result, SPECS, known=["run_s", "step_ms_p95"],
                     layer_names=[])
    assert doc["metrics"] == {"run_s": {"value": 1.5, "unit": "s"}}
    assert (doc["correct"], doc["attempted"], doc["failed"]) == (False, 2, 1)


def test_layer_the_workload_never_calls_reads_zero():
    specs = [{"name": "pde.solve.calls", "unit": "count"}]
    result = {"metrics": {}, "checks": []}
    doc = run.report("w", result, specs, known=["pde.solve.calls"],
                     layer_names=["pde.solve.calls"])
    assert doc["metrics"] == {"pde.solve.calls": {"value": 0.0, "unit": "count"}}
    assert doc["correct"] and doc["failed"] == 0
