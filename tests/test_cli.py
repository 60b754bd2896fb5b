"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.policy == "feedback"
        assert args.servers == 2

    def test_ablation_choices(self):
        args = build_parser().parse_args(["ablation", "epoch"])
        assert args.sweep == "epoch"
        assert args.jobs == 1
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "nonsense"])

    def test_ablation_includes_multilb_and_churn(self):
        for sweep in ("multilb", "churn"):
            args = build_parser().parse_args(["ablation", sweep, "--jobs", "2"])
            assert args.sweep == sweep
            assert args.jobs == 2

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.spec is None
        assert args.jobs == 1
        assert args.store == ".sweep-store"
        assert not args.no_cache and not args.resume

    def test_sweep_axes_are_repeatable(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "seed=1,2", "--grid", "n_servers=2,3",
             "--zip", "memtier.pipeline=1,2", "--seeds", "5,6"]
        )
        assert args.grid == ["seed=1,2", "n_servers=2,3"]
        assert args.zip_axes == ["memtier.pipeline=1,2"]
        assert args.seeds == "5,6"


#: Every verb's option strings (``-h``/``--help`` aside).  Shared
#: options are declared once in the CLI; this pins that no verb gains
#: or loses a flag through them.
VERB_OPTIONS = {
    "run": {"--policy", "--servers", "--clients", "--strategy", "--fault",
            "--timeline"},
    "metrics": {"--policy", "--servers", "--clients", "--fault", "--format"},
    "trace": {"--shift", "--request"},
    "explain": {"--shift", "--alert", "--lookback", "--export"},
    "diff": {"--eps"},
    "resilience": {"--fault", "--servers", "--clients"},
    "compare": {"--preset", "--controllers", "--servers", "--clients",
                "--jobs", "--store", "--no-cache", "--timelines"},
    "chaos": {"--runs", "--controllers", "--servers", "--clients",
              "--invariants", "--max-faults", "--budget", "--fleet-every",
              "--artifacts", "--jobs", "--store", "--no-cache",
              "--timelines"},
    "fleet": {"--strategy", "--controllers", "--initial", "--max",
              "--clients", "--connections", "--no-burst", "--jobs",
              "--store", "--timeline"},
    "fig2a": set(),
    "fig2b": set(),
    "fig3": set(),
    "reaction": set(),
    "error": set(),
    "ablation": {"--jobs"},
    "sweep": {"--grid", "--zip", "--seeds", "--strategy", "--policy",
              "--fault", "--name", "--jobs", "--store", "--no-cache",
              "--resume"},
}


def _verb_parsers():
    import argparse

    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("no subcommands")


class TestVerbOptions:
    def test_each_verb_has_exactly_its_options(self):
        verbs = _verb_parsers()
        assert set(verbs) == set(VERB_OPTIONS)
        for verb, sub in verbs.items():
            options = {
                flag
                for action in sub._actions
                for flag in action.option_strings
            } - {"-h", "--help"}
            assert options == VERB_OPTIONS[verb], verb

    @pytest.mark.parametrize(
        "argv,servers,clients",
        [
            (["run"], 2, 1),
            (["metrics"], 2, 1),
            (["resilience"], 2, 1),
            (["compare"], 3, 1),
            (["chaos"], 3, 1),
            (["fleet"], None, 4),
        ],
    )
    def test_shared_counts_keep_each_verbs_default(self, argv, servers, clients):
        args = build_parser().parse_args(argv)
        assert getattr(args, "servers", None) == servers
        assert args.clients == clients

    def test_unknown_controller_is_a_config_error(self, capsys, tmp_path):
        store = ["--store", str(tmp_path)]
        for argv in (
            ["compare", "--controllers", "alpha,nope"],
            ["chaos", "--controllers", "nope"],
            ["fleet", "--controllers", "nope"],
            ["sweep", "--strategy", "nope"],
        ):
            assert main(argv + store) == 2, argv
            assert "unknown control strategy 'nope'" in capsys.readouterr().err


class TestCommands:
    def test_run_prints_report(self, capsys):
        code = main(["--duration", "0.2", "run"])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed requests" in out

    def test_fig2b_prints_tracking(self, capsys):
        code = main(["--duration", "0.5", "fig2b"])
        assert code == 0
        out = capsys.readouterr().out
        assert "before step" in out and "after step" in out

    def test_fig2b_short_run_prints_dashes(self, capsys):
        # Shorter than the first RTT sample: every median is missing.
        assert main(["--duration", "0.0005", "fig2b"]) == 0
        before, after = capsys.readouterr().out.splitlines()[2:4]
        assert before.split()[2:] == ["-", "-", "-"]
        assert after.split()[3:] == ["-", "-"]  # no truth yet: no rel.err

    def test_error_on_a_sample_less_run_invents_no_gap(self, capsys):
        assert main(["--duration", "0.000001", "error"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert len(rows) == 4
        for row in rows:
            # think, T_client, T_LB, measured, predicted, gap
            cells = row.split()
            assert cells[1:4] == ["-", "-", "-"] and cells[5] == "-", row

    def test_error_identity_table(self, capsys):
        code = main(["--duration", "0.3", "error"])
        assert code == 0
        out = capsys.readouterr().out
        assert "T_LB" in out

    def test_reaction(self, capsys):
        code = main(["--duration", "1.2", "reaction"])
        assert code == 0
        assert "first shift" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["run", "--fault", "delay:node=server0,start=bogus"],
                "bad time value 'bogus'",
                id="run",
            ),
            pytest.param(
                ["metrics", "--fault", "loss:node=nosuch*,start=10ms,prob=0.1"],
                "matches no lb->server pipe",
                id="metrics",
            ),
        ],
    )
    def test_config_error_is_one_line(self, argv, message, capsys):
        code = main(["--duration", "0.05"] + argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err


class TestSweepCommand:
    def test_inline_grid_runs_and_caches(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = [
            "--duration", "0.1",
            "sweep", "--grid", "seed=1,2", "--name", "smoke",
            "--store", store,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep smoke: 2 points, 0 cache hits, 2 simulated" in out
        assert "seed=1" in out and "seed=2" in out
        # Unchanged rerun: everything is a cache hit.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "sweep smoke: 2 points, 2 cache hits, 0 simulated" in out

    def test_spec_file_runs(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"name": "filed", "base": {"duration": "100ms"},'
            ' "grid": {"seed": [1, 2]}}'
        )
        code = main(
            ["sweep", str(spec), "--store", str(tmp_path / "store")]
        )
        assert code == 0
        assert "sweep filed: 2 points" in capsys.readouterr().out

    def test_spec_file_and_inline_axes_conflict(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("{}")
        code = main(
            ["sweep", str(spec), "--grid", "seed=1,2",
             "--store", str(tmp_path / "store")]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_resume_requires_existing_store(self, tmp_path, capsys):
        code = main(
            ["sweep", "--grid", "seed=1",
             "--store", str(tmp_path / "missing"), "--resume"]
        )
        assert code == 2
        assert "nothing to resume" in capsys.readouterr().err

    def test_bad_axis_reports_config_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--grid", "nonsense",
             "--store", str(tmp_path / "store")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axis, message",
        [
            ("memtier.pipeline=0", "pipeline depth must be positive"),
            ("feedback.controller.alpha=-1", "alpha must be in (0, 1)"),
        ],
    )
    def test_malformed_point_fails_before_running(
        self, axis, message, tmp_path, capsys
    ):
        store = tmp_path / "store"
        code = main(
            ["--duration", "0.2", "sweep", "--grid", axis, "--store", str(store)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        # Nothing was simulated, so nothing was stored.
        assert not any(store.rglob("*.json"))


class TestResilienceCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["resilience"])
        assert args.fault == "crash"
        assert args.servers == 2
        assert args.clients == 1

    def test_rejects_unknown_preset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resilience", "--fault", "meteor"])

    def test_crash_reports_degradation_and_recovery(self, capsys):
        code = main(["--duration", "2.0", "resilience", "--fault", "crash"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-> FALLBACK" in out
        assert "time to FALLBACK after fault onset" in out
        assert "time to FEEDBACK recovery" in out
        assert "circuit breakers:" in out
        assert "retries:" in out


class TestObsVerbs:
    def test_metrics_parser_defaults(self):
        args = build_parser().parse_args(["metrics"])
        assert args.policy == "feedback"
        assert args.format == "prom"

    def test_trace_parser_flags(self):
        args = build_parser().parse_args(["trace", "--shift", "3"])
        assert args.shift == 3 and args.request is None
        args = build_parser().parse_args(["trace", "--request", "17"])
        assert args.request == 17 and args.shift is None

    def test_metrics_prints_parseable_prometheus(self, capsys):
        from repro.obs import parse_prometheus_text

        code = main(["--duration", "0.2", "metrics"])
        assert code == 0
        families = parse_prometheus_text(capsys.readouterr().out)
        samples = families["repro_tlb_samples_total"]["samples"]
        assert samples
        _name, labels, _value = samples[0]
        assert "backend" in labels and "delta_us" in labels

    def test_metrics_json_format(self, capsys):
        import json

        code = main(["--duration", "0.2", "metrics", "--format", "json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["repro_lb_packets_total"]["type"] == "counter"

    def test_trace_lists_shifts(self, capsys):
        code = main(["--duration", "1", "trace"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shift #0" in out
        assert "contributing samples" in out

    def test_trace_shift_attribution(self, capsys):
        code = main(["--duration", "1", "trace", "--shift", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "T_LB(us)" in out and "batch window" in out

    def test_trace_shift_out_of_range(self, capsys):
        code = main(["--duration", "1", "trace", "--shift", "100000"])
        assert code == 2
        assert "out of range" in capsys.readouterr().err


class TestInsightVerbs:
    def test_explain_parser_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.shift is None and args.alert is None
        assert args.lookback == 0.25
        assert args.export is None

    def test_diff_parser_positionals(self):
        args = build_parser().parse_args(["diff", "a.jsonl", "b.jsonl"])
        assert args.run_a == "a.jsonl" and args.run_b == "b.jsonl"
        assert args.eps == 0.05

    def test_explain_overview(self, capsys):
        code = main(["--duration", "0.6", "explain"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shifts (use --shift N):" in out

    def test_explain_shift_chain(self, capsys):
        code = main(["--duration", "0.6", "explain", "--shift", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "triggering sample:" in out
        assert "dominant upstream cause:" in out

    def test_explain_shift_out_of_range(self, capsys):
        code = main(["--duration", "0.6", "explain", "--shift", "100000"])
        assert code == 1
        assert capsys.readouterr().err

    def test_explain_rejects_both_flags(self, capsys):
        code = main(
            ["--duration", "0.6", "explain", "--shift", "0", "--alert", "0"]
        )
        assert code == 2

    def test_explain_export_then_diff(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        assert main(["--duration", "0.6", "explain", "--export", a]) == 0
        assert main(
            ["--seed", "5", "--duration", "0.6", "explain", "--export", b]
        ) == 0
        code = main(["diff", a, b])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline written" in out
        assert "divergence" in out  # either kind of verdict mentions it

    def test_diff_missing_file(self, capsys):
        code = main(["diff", "/nonexistent/a.jsonl", "/nonexistent/b.jsonl"])
        assert code == 2
        assert "cannot load timeline" in capsys.readouterr().err

    def test_run_timeline_export(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        code = main(["--duration", "0.2", "run", "--timeline", path])
        assert code == 0
        from repro.insight import load_timeline

        timeline = load_timeline(path)
        assert len(timeline) > 0
        assert "insight:" in capsys.readouterr().out
