import json

import compare


def test_verdicts_follow_the_bound_and_direction():
    a = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(a, [1.05] * 5, 0.1, "lower")[0] == "agree"
    assert compare.verdict(a, [1.20] * 5, 0.1, "lower")[0] == "worse"
    assert compare.verdict(a, [0.80] * 5, 0.1, "lower")[0] == "better"
    assert compare.verdict(a, [0.80] * 5, 0.1, "higher")[0] == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert compare.verdict(noisy, [1.0] * 5, 0.1, "lower")[0] == "unresolved"
    assert compare.verdict([1.0] * 5, noisy, 0.1, "lower")[0] == "unresolved"


def test_absolute_floor_widens_a_small_relative_bound():
    a = [0.50] * 5
    b = [0.54] * 5  # 8 % worse, but only 0.04 s
    assert compare.verdict(a, b, 0.05, "lower")[0] == "worse"
    assert compare.verdict(a, b, 0.05, "lower", floor=0.05)[0] == "agree"


def _result_set(run_s, failed=0):
    docs = [{"correct": failed == 0, "attempted": 10, "failed": failed,
             "metrics": {"run_s": {"value": v, "unit": "s"}}} for v in run_s]
    return {"workloads": {"w": docs}}


def test_run_without_a_metric_adds_no_value_to_it():
    specs = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]
    a = _result_set([1.0, 1.01, 0.99])
    b = _result_set([1.0, 1.02, 0.98], failed=1)
    del b["workloads"]["w"][0]["metrics"]["run_s"]
    rows = {(w, name): v for w, name, v, _ in compare.compare(a, b, specs)}
    assert rows[("w", "run_s")] == "agree"
    assert rows[("w", "fail_frac")] == "worse"
    for doc in b["workloads"]["w"]:
        doc["metrics"].clear()
    rows = {(w, name): v for w, name, v, _ in compare.compare(a, b, specs)}
    assert rows[("w", "run_s")] == "unresolved"


def test_main_exits_1_on_any_disagreement(tmp_path, capsys):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}))
    paths = {}
    for name, doc in {"a": _result_set([1.0, 1.01, 0.99]),
                      "same": _result_set([1.0, 1.02, 0.98]),
                      "failing": _result_set([1.0, 1.01, 0.99], failed=1)}.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))

    def run(b):
        return compare.main([str(paths["a"]), str(paths[b]),
                             "--benchmark", str(bench)])

    assert run("same") == 0
    assert run("failing") == 1
    out = capsys.readouterr().out
    assert "fail_frac" in out and "worse" in out
