"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_report_runs(self, capsys):
        rc = main(["report", "--net", "lenet", "--batch", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "peak memory" in out
        assert "img/s" in out

    def test_report_runs_the_iteration_users_run(self, capsys):
        """Under pressure the report is a session's iteration 0, which
        starts from the scout's record (the scout's own record-less
        iteration runs 48.3 img/s and stalls 235.47 ms here)."""
        rc = main(["report", "--net", "resnet50", "--batch", "32",
                   "--gpu-gb", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "(70.7 img/s)" in out
        assert "822.9 MiB out, 822.9 MiB back, stall 7.69 ms" in out

    def test_report_oom_exit_code(self, capsys):
        rc = main(["report", "--net", "vgg16", "--batch", "512",
                   "--framework", "caffe", "--gpu-gb", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "does NOT fit" in out

    def test_trace_prints_steps(self, capsys):
        rc = main(["trace", "--net", "lenet", "--batch", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conv1:f" in out
        assert "conv1:b" in out

    def test_probe_batch(self, capsys):
        rc = main(["probe", "--net", "lenet", "--batch", "4",
                   "--limit", "64", "--gpu-gb", "0.25"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "largest lenet batch" in out

    def test_probe_limit_below_start_is_usage_error(self, capsys):
        rc = main(["probe", "--net", "lenet", "--limit", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "--limit 1" in captured.err
        assert "largest lenet batch" not in captured.out
        assert main(["probe", "--depth", "--limit", "0"]) == 2

    def test_breakdown(self, capsys):
        rc = main(["breakdown", "--net", "lenet", "--batch", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "CONV" in out and "% time" in out

    def test_unknown_net_rejected(self):
        with pytest.raises(SystemExit):
            main(["report", "--net", "nope"])

    def test_framework_choices(self, capsys):
        for fw in ("caffe", "mxnet", "tensorflow"):
            rc = main(["report", "--net", "lenet", "--batch", "4",
                       "--framework", fw])
            assert rc == 0

    def test_report_defaults_to_alexnet(self, capsys):
        rc = main(["report", "--batch", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "alexnet" in out

    def test_probe_depth_rejects_explicit_net(self, capsys):
        rc = main(["probe", "--depth", "--net", "vgg16", "--limit", "2"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "--depth" in err or "cannot honour" in err

    def test_probe_depth_without_net_runs(self, capsys):
        rc = main(["probe", "--depth", "--batch", "2", "--limit", "2",
                   "--gpu-gb", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "deepest ResNet" in out

    def test_policies_lists_all_frameworks(self, capsys):
        rc = main(["policies"])
        out = capsys.readouterr().out
        assert rc == 0
        for fw in ("caffe", "torch", "mxnet", "tensorflow", "superneurons"):
            assert fw in out
        assert "cache=lru" in out          # superneurons stack
        assert "eager" in out              # tensorflow's cacheless swap
        assert "scope=grads_only" in out   # caffe/torch static sharing

    def test_policies_single_framework(self, capsys):
        rc = main(["policies", "superneurons"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recompute(strategy=cost_aware)" in out
        assert "caffe" not in out

    def test_infer_serving_report(self, capsys):
        rc = main(["infer", "--net", "lenet", "--batch", "4",
                   "--sessions", "2", "--iters", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 sharing one engine, round-robin (plans compiled 1x" in out
        assert "infer peak" in out and "train would need" in out

    def test_infer_parallel_drive(self, capsys):
        rc = main(["infer", "--net", "lenet", "--batch", "4",
                   "--sessions", "2", "--iters", "2", "--parallel"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "thread-per-session (plans compiled 1x" in out

    def test_infer_timeout_flag(self, capsys):
        rc = main(["infer", "--net", "lenet", "--batch", "4",
                   "--sessions", "2", "--iters", "2", "--parallel",
                   "--timeout", "120"])
        assert rc == 0
        assert "thread-per-session" in capsys.readouterr().out

    def test_serve_dynamic_batching(self, capsys):
        rc = main(["serve", "--net", "lenet", "--batch", "4",
                   "--rate", "300", "--duration", "0.3",
                   "--workers", "2", "--swaps", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "DynamicBatcher(capacity=4" in out
        assert "0 failed" in out
        assert "weight swaps : 1" in out

    def test_serve_concrete(self, capsys):
        rc = main(["serve", "--net", "lenet", "--batch", "4",
                   "--rate", "100", "--duration", "0.2",
                   "--workers", "2", "--concrete"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "concrete" in out
        # one coalescing rule: there is no policy to pick
        with pytest.raises(SystemExit) as unknown:
            main(["serve", "--net", "lenet", "--policy", "fifo"])
        assert unknown.value.code == 2

    @pytest.mark.parametrize("argv, spans", [
        (["trace", "--net", "lenet", "--batch", "4", "--iters", "2"],
         {"iteration"}),
        (["infer", "--net", "lenet", "--batch", "4", "--sessions", "2",
          "--iters", "2", "--parallel"], {"session.run", "iteration"}),
        (["serve", "--net", "lenet", "--batch", "4", "--rate", "300",
          "--duration", "0.2", "--workers", "2"], {"request"}),
        (["serve", "--net", "lenet", "--rate", "300", "--duration", "0.2",
          "--fleet", "--fleet-batches", "4,8", "--workers", "2"],
         {"request", "route"}),
    ], ids=["trace", "infer-parallel", "serve", "serve-fleet"])
    def test_trace_out_arms_for_the_run_only(self, argv, spans, tmp_path,
                                             monkeypatch, capsys):
        """``--trace-out`` is ``capture()`` around the run: the artifact
        validates offline, carries the run's spans and device streams,
        and the process is left as disarmed as it was found."""
        import json

        from repro.obs import trace as obs_trace
        from repro.obs.export import validate_trace_file
        monkeypatch.setattr(obs_trace, "ACTIVE", None)
        out = tmp_path / "trace.json"
        assert main(argv + ["--trace-out", str(out)]) == 0
        assert obs_trace.ACTIVE is None
        assert validate_trace_file(out) == []
        events = json.loads(out.read_text())["traceEvents"]
        assert spans <= {e["name"] for e in events}
        assert any(e.get("cat", "").startswith("sim.") for e in events), \
            "no device-timeline ops: the executors built disarmed"

    def test_serve_rejects_bad_rate(self, capsys):
        rc = main(["serve", "--net", "lenet", "--rate", "0",
                   "--duration", "1"])
        assert rc == 2

    def test_serve_rejects_bad_swaps_and_max_request(self, capsys):
        assert main(["serve", "--net", "lenet", "--swaps", "-1"]) == 2
        assert main(["serve", "--net", "lenet",
                     "--max-request", "0"]) == 2


class TestCheckExitCodes:
    """The check sub-family's documented exit-code contract:
    0 clean, 1 findings at the --fail-on threshold, 2 usage/internal."""

    RACE_FAST = ["check", "race", "--scenario", "parallel",
                 "--sessions", "2", "--iters", "1"]

    def test_check_race_clean_exits_zero(self, capsys):
        rc = main(self.RACE_FAST)
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_check_race_truncation_warns_but_passes_by_default(
            self, capsys):
        rc = main(self.RACE_FAST + ["--limit", "200"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "RACE005" in out

    def test_check_race_fail_on_warning_promotes_truncation(self, capsys):
        rc = main(self.RACE_FAST + ["--limit", "200",
                                    "--fail-on", "warning"])
        assert rc == 1
        assert "RACE005" in capsys.readouterr().out

    def test_check_race_json_artifact(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "race_report.json"
        rc = main(self.RACE_FAST + ["--format", "json",
                                    "--output", str(out_path)])
        assert rc == 0
        data = json.loads(out_path.read_text())
        assert data["tool"] == "race-detector"
        assert data["ok"] is True
        assert any(c.startswith("parallel") for c in data["checked"])
        assert "->" in capsys.readouterr().out  # console stays actionable

    def test_check_plan_unknown_config_is_usage_error(self, capsys):
        rc = main(["check", "plan", "--net", "lenet",
                   "--configs", "bogus"])
        assert rc == 2
        assert "unknown ladder config" in capsys.readouterr().err

    def test_check_lint_internal_error_exits_two(self, capsys):
        rc = main(["check", "lint", "does/not/exist.py"])
        assert rc == 2
        assert "internal error" in capsys.readouterr().err

    def test_check_lint_finding_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import threading\nlock = threading.Lock()\n")
        rc = main(["check", "lint", str(bad)])
        assert rc == 1
        assert "LINT005" in capsys.readouterr().out
