"""Reference figures for perfbench/README.md.

Times the baseline cases one at a time in this process, with the same
thread settings, input helpers and timed call as run.py, and prints a
Markdown table of medians over REPEATS calls. The falsify and field cases
run once under the default worker policy and once with PELL_THREADS=1.
From the repository root:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import time

import run

REPEATS = 3


def _time_cli(main, argv) -> float:
    import workloads

    query = workloads.Query("reference", argv, (workloads.OK, workloads.REFUTED), lambda res: None)
    times = []
    for _ in range(REPEATS):
        latency, _result, failure = run._execute(main, query)
        if failure:
            raise RuntimeError(f"{argv}: {failure}")
        times.append(latency)
    return statistics.median(times)


def _time_call(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    run._configure_threads()
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    import pelliptic as pe
    import pelliptic.cli as cli
    import pelliptic.integral as integral
    import pelliptic.runtime as runtime
    import workloads

    directory = str(run.OUT / f"reference-{os.getpid()}")
    os.makedirs(directory, exist_ok=True)

    def lame(n):
        return pe.CoefficientTensor(workloads._lame_entries(pe, n, 1.0, 1.0))

    def lame_field(n, side, grid_rank):
        grid = (side,) * grid_rank
        moduli = workloads._moduli(np.random.default_rng(0), side ** grid_rank)
        samples = np.stack([workloads._lame_entries(pe, n, lam, mu) for lam, mu in moduli])
        return pe.TensorField(samples.reshape(grid + samples.shape[1:]), grid, periodic=True)

    def write(name, doc):
        return workloads._write(directory, name, doc)

    lame3 = write("lame3.json", cli.tensor_to_json(lame(3)))
    complex3 = write("complex3.json", cli.tensor_to_json(
        pe.random_elliptic_tensor(3, 3, "legendre-perturbed", seed=0)))
    lame2 = write("lame2.json", cli.tensor_to_json(lame(2)))
    field = write("field.json", cli.field_to_json(lame_field(2, 3, 2)))
    field3 = lame_field(3, 3, 3)

    threaded = [
        ("`falsify` constant Lamé n = 2, p = 4, 300 trials, N = 33",
         lambda: _time_cli(cli.main, ["falsify", lame2, "--p", "4", "--trials", "300"])),
        ("`range` on a 3×3 periodic Lamé field, n = 2 (`field_range`)",
         lambda: _time_cli(cli.main, ["range", field])),
    ]
    rows = [
        ("`range` Lamé n = 3, λ = μ = 1, r = r*", _time_cli(cli.main, ["range", lame3]), None),
        ("`range` complex 3×3 `legendre-perturbed`, generator seed 0",
         _time_cli(cli.main, ["range", complex3]), None),
        ("`_cell_tensors` on a 3×3×3 Lamé field, n = 3, N = 33",
         _time_call(lambda: integral._cell_tensors(field3, 3, 33)), None),
    ]
    for label, measure in threaded:
        default = measure()
        os.environ["PELL_THREADS"] = "1"
        single = measure()
        os.environ.pop("PELL_THREADS")
        rows.append((label, default, single))
    shutil.rmtree(directory, ignore_errors=True)

    print(f"| case | default pool ({runtime.worker_count()} workers) | PELL_THREADS=1 |")
    print("|---|---|---|")
    for label, default, single in rows:
        print(f"| {label} | {default:.3f} s | {'' if single is None else f'{single:.3f} s'} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
