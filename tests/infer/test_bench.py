"""Benchmark lane: payload shape, CLI smoke, JSON round-trip."""

import json

import numpy as np

from repro.cli import main as cli_main
from repro.infer.bench import format_table, run_bench, write_bench
from repro.parallel import threads


class TestRunBench:
    def test_smoke_payload_structure(self):
        results = run_bench(smoke=True, batch_sizes=(1, 4), repeats=1)
        assert results["smoke"] is True
        entries = results["entries"]
        # 3 models x 2 variants x 2 batch sizes.
        assert len(entries) == 12
        for entry in entries:
            assert entry["variant"] in ("dense", "pruned")
            assert entry["eager_ms"] > 0 and entry["compiled_ms"] > 0
            assert entry["speedup"] > 0
            assert entry["max_abs_diff"] < 1e-3
            assert "BN folded" in (entry["optimization"] or "")

    def test_table_lists_every_entry(self):
        results = run_bench(smoke=True, batch_sizes=(1,), repeats=1,
                            models={"mlp": dict(num_classes=3, image_size=8,
                                                width=0.125, seed=0)})
        table = format_table(results)
        assert table.count("mlp") == 2        # dense + pruned rows
        assert table.startswith(
            f"host: usable cpus={threads.usable_cpus()}, blas threads: ")

    def test_records_the_host(self):
        results = run_bench(smoke=True, batch_sizes=(1,), repeats=1,
                            models={"mlp": dict(num_classes=3, image_size=8,
                                                width=0.125, seed=0)})
        assert results["usable_cpus"] == threads.usable_cpus()
        assert results["blas_threads"] == {"parent": threads.blas_threads()}
        assert results["numpy"] == np.__version__

    def test_write_bench_round_trips(self, tmp_path):
        results = run_bench(smoke=True, batch_sizes=(1,), repeats=1,
                            models={"mlp": dict(num_classes=3, image_size=8,
                                                width=0.125, seed=0)})
        out = tmp_path / "bench.json"
        write_bench(results, out)
        assert json.loads(out.read_text()) == results


class TestCLI:
    def test_infer_bench_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        code = cli_main(["infer-bench", "--smoke", "--models", "mlp",
                         "--batch-sizes", "1,4", "--repeats", "1",
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert {e["model"] for e in payload["entries"]} == {"mlp"}
        assert "speedup" in capsys.readouterr().out

    def test_unknown_model_rejected(self, capsys):
        code = cli_main(["infer-bench", "--models", "nope"])
        assert code == 1
        assert "unknown bench model" in capsys.readouterr().out
