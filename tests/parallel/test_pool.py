"""Worker pool at its default supervision: ordered results, reuse, and
construction errors. Fault drills live in test_supervisor.py."""

import pytest

from repro.parallel import (EchoService, ParallelExecutionError,
                            SupervisedWorkerPool)


def test_results_come_back_in_task_order():
    with SupervisedWorkerPool(2, EchoService, ("tag",)) as pool:
        tasks = list(range(7))
        assert pool.run_tasks(tasks) == [("tag", t) for t in tasks]


def test_pool_is_reusable_across_run_tasks_calls():
    with SupervisedWorkerPool(1, EchoService, ()) as pool:
        assert pool.run_tasks(["a"]) == [("", "a")]
        assert pool.run_tasks(["b", "c"]) == [("", "b"), ("", "c")]
        assert pool.events == []


def test_init_failure_reports_worker_traceback():
    class Broken:
        def __init__(self):
            raise RuntimeError("cannot construct")

    with pytest.raises(ParallelExecutionError,
                       match="(?s)initialise.*cannot construct"):
        SupervisedWorkerPool(1, Broken, ())


def test_invalid_process_count_rejected():
    with pytest.raises(ValueError):
        SupervisedWorkerPool(0, EchoService, ())
