import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_job_times_prints_each_job_then_sum_and_geomean(capsys):
    # the smoke workload: four short jobs, each checked on its untimed pass
    job_times = _load("job_times")
    assert job_times.main(["--workload", "smoke", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines]
    assert names == ["validate-5-2", "hl-5-2", "weight-batch", "bbf-5-2",
                     "sum", "geomean"]
    times = [float(line.split()[1]) for line in lines]
    assert all(t > 0 for t in times)
    assert abs(times[4] - sum(times[:4])) <= 0.03     # printed to 0.01 ms
