"""Tests for the benchmark harness and the experiment registry / CLI."""

import json

from repro.bench import ALL_EXPERIMENTS, ExperimentResult, run_experiments, timed
from repro.bench.__main__ import main as bench_main


class TestExperimentResult:
    def make(self):
        result = ExperimentResult("X1", "demo experiment")
        result.add_row(system="Neo4j", triggers=True)
        result.add_row(system="TigerGraph", triggers=False, note_field="extra")
        result.note("a free-text note")
        return result

    def test_add_row_extends_columns(self):
        result = self.make()
        assert result.columns == ["system", "triggers", "note_field"]
        assert result.column("system") == ["Neo4j", "TigerGraph"]
        assert result.column("note_field") == [None, "extra"]

    def test_to_text_contains_header_rows_and_notes(self):
        text = self.make().to_text()
        assert text.startswith("== X1: demo experiment ==")
        assert "Neo4j" in text and "TigerGraph" in text
        assert "note: a free-text note" in text

    def test_to_json_round_trip(self):
        payload = json.loads(self.make().to_json())
        assert payload["experiment_id"] == "X1"
        assert len(payload["rows"]) == 2
        assert payload["notes"] == ["a free-text note"]

    def test_timed_records_elapsed(self):
        result = timed(lambda: ExperimentResult("X2", "fast"))
        assert result.elapsed_seconds >= 0
        assert "X2" in result.to_text()

    def test_run_experiments_preserves_order(self):
        results = run_experiments(
            [lambda: ExperimentResult("A", "a"), lambda: ExperimentResult("B", "b")]
        )
        assert [r.experiment_id for r in results] == ["A", "B"]


class TestRegistryAndCli:
    def test_registry_covers_every_design_artifact(self):
        # the per-experiment index of DESIGN.md: tables, figures, sections, perf
        # (P5 is the added planner/plan-cache experiment, P6 the streaming
        # vs eager pipeline comparison, P7 the trigger-evaluation comparison,
        # P8 the physical-operator comparisons, P9 the durability cost
        # comparison, P10 the concurrent-HTTP throughput experiment,
        # P11 the path-query / reachability-accelerator experiment,
        # P12 the optimizer-torture q-error / plan-regret experiment,
        # P13 the incremental-trigger firehose experiment)
        expected = {"T1", "F1", "F2", "T2", "T3", "F3", "T4", "F45", "S62", "S63",
                    "P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10",
                    "P11", "P12", "P13"}
        assert set(ALL_EXPERIMENTS) == expected

    def test_cli_runs_selected_experiments(self, capsys):
        exit_code = bench_main(["T1"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table 1" in captured.out
        assert "Neo4j" in captured.out

    def test_cli_rejects_unknown_ids(self, capsys):
        exit_code = bench_main(["NOPE"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "unknown experiment id" in captured.err
