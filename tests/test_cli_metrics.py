"""CLI commands and the metrics logger."""

import argparse
import inspect
import re
import tempfile

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigError
from repro.train.metrics import MetricsLogger, read_jsonl


class TestMetricsLogger:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsLogger(path) as logger:
            logger.log({"step": 0, "loss": 1.5})
            logger.log({"step": 1, "loss": 1.2})
        records = read_jsonl(path)
        assert records == [{"step": 0, "loss": 1.5}, {"step": 1, "loss": 1.2}]

    def test_append_mode(self, tmp_path):
        path = tmp_path / "m.jsonl"
        with MetricsLogger(path) as logger:
            logger.log({"a": 1})
        with MetricsLogger(path) as logger:
            logger.log({"a": 2})
        assert [r["a"] for r in read_jsonl(path)] == [1, 2]

    def test_csv_with_header(self, tmp_path):
        path = tmp_path / "m.csv"
        with MetricsLogger(path) as logger:
            logger.log({"step": 0, "loss": 2.0})
            logger.log({"step": 1, "loss": 1.0})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "loss,step"
        assert len(lines) == 3

    def test_csv_rejects_key_change(self, tmp_path):
        with MetricsLogger(tmp_path / "m.csv") as logger:
            logger.log({"a": 1})
            with pytest.raises(ConfigError):
                logger.log({"b": 2})

    def test_bad_suffix(self, tmp_path):
        with pytest.raises(ConfigError):
            MetricsLogger(tmp_path / "m.txt")

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            read_jsonl(tmp_path / "nope.jsonl")


class TestCLI:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_configs_command(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "bagualu-14.5T" in out
        assert "14.50T" in out

    def test_train_command_with_metrics(self, tmp_path, capsys):
        metrics = tmp_path / "train.jsonl"
        code = main([
            "train", "--steps", "5", "--batch-size", "2", "--seq-len", "8",
            "--metrics", str(metrics),
        ])
        assert code == 0
        records = read_jsonl(metrics)
        assert len(records) == 5
        assert {"step", "loss", "lr", "skipped"} <= set(records[0])

    def test_train_fp16(self, capsys):
        assert main(["train", "--steps", "3", "--batch-size", "2",
                     "--seq-len", "8", "--fp16"]) == 0
        assert "[fp16]" in capsys.readouterr().out

    def test_train_with_sampling(self, capsys):
        assert main(["train", "--steps", "2", "--batch-size", "2",
                     "--seq-len", "8", "--sample", "4"]) == 0
        assert "greedy sample" in capsys.readouterr().out

    def test_distributed_command(self, tmp_path, capsys):
        metrics = tmp_path / "dist.jsonl"
        code = main([
            "distributed", "--world", "4", "--ep", "2", "--steps", "2",
            "--batch-size", "2", "--seq-len", "8", "--supernode", "2",
            "--metrics", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated step time" in out
        records = read_jsonl(metrics)
        # One record per step plus one RunContext summary at the end.
        assert len(records) == 3
        assert [r["step"] for r in records[:2]] == [0, 1]
        summary = records[-1]
        assert summary["total_bytes"] > 0
        assert summary["strategy"] == "moda"
        assert any(k.startswith("phase_") for k in summary)

    def test_distributed_refuses_a_layout_before_announcing_it(self, capsys):
        with pytest.raises(ConfigError, match="does not compose"):
            main(["distributed", "--world", "4", "--ep", "1", "--tp", "2",
                  "--zero", "2", "--steps", "1", "--batch-size", "2", "--seq-len", "8"])
        assert capsys.readouterr().out == ""

    def test_resilient_removes_its_scratch_checkpoints(self, tmp_path, monkeypatch, capsys):
        """Without --checkpoint-dir the checkpoints go to a temporary
        directory that is gone when the command returns."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["resilient", "--world", "2", "--ep", "2", "--steps", "2"]) == 0
        announced = re.search(r"^checkpoints: (.+)$", capsys.readouterr().out, re.M)
        assert announced and announced.group(1).startswith(str(tmp_path / "repro-ckpt-"))
        assert not list(tmp_path.glob("repro-ckpt-*"))

    def test_project_command(self, capsys):
        assert main(["project", "--model", "174T", "--zero", "64"]) == 0
        out = capsys.readouterr().out
        assert "173.99T" in out
        assert "node memory" in out

    def test_project_with_recompute(self, capsys):
        main(["project", "--model", "14.5T"])
        base = capsys.readouterr().out
        main(["project", "--model", "14.5T", "--recompute"])
        ck = capsys.readouterr().out
        assert base != ck  # memory/step numbers must move

    def test_gate_override(self, capsys):
        assert main(["train", "--steps", "2", "--batch-size", "2",
                     "--seq-len", "8", "--gate", "balanced"]) == 0


def _handler_source(name):
    """Source of ``_cmd_<name>`` plus, transitively, of every ``repro.cli``
    function it hands ``args`` to."""
    import repro.cli as cli

    sources, todo = {}, [f"_cmd_{name}"]
    while todo:
        fn = todo.pop()
        if fn not in sources:
            sources[fn] = inspect.getsource(getattr(cli, fn))
            todo += [callee for callee in re.findall(r"(\w+)\(\s*args\b", sources[fn])
                     if inspect.isfunction(getattr(cli, callee, None))]
    return "\n".join(sources.values())


class TestCLIFlagsAreRead:
    """A flag a subparser declares but its handler never reads is silently
    dropped. Computed from the parser and the handler source, so a new flag
    is covered the moment it is declared."""

    SUBPARSERS = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )

    @pytest.mark.parametrize("name", sorted(SUBPARSERS))
    def test_every_declared_dest_is_read_by_the_handler(self, name):
        declared = {action.dest for action in self.SUBPARSERS[name]._actions
                    if action.dest != "help"}
        read = set(re.findall(r"\bargs\.(\w+)", _handler_source(name)))
        assert declared <= read, (
            f"`{name}` declares flags its handler never reads: "
            f"{sorted(declared - read)}"
        )

    def test_shared_flags_keep_their_definitions(self):
        """The parent parsers declare, they do not redefine."""
        serve = build_parser().parse_args(["serve"])
        assert (serve.config, serve.seed, serve.supernode) == ("tiny", 0, 256)
        assert serve.alltoall is None and serve.trace is None
        assert serve.observe is False
        resilient = build_parser().parse_args(["resilient", "--seed", "3"])
        assert resilient.seed == 3 and resilient.config == "tiny"


class TestCLIPipeline:
    """Pipeline layouts launch through ``distributed`` (registry strategies)."""

    def test_pipeline_moda(self, capsys):
        assert main(["distributed", "--world", "4", "--pp", "2", "--ep", "2",
                     "--steps", "2", "--batch-size", "2", "--seq-len", "8",
                     "--microbatches", "2"]) == 0
        out = capsys.readouterr().out
        assert "strategy 'pp_moda'" in out
        assert "pp=2 x dp=1 x tp=1 x ep=2" in out
        assert "global loss" in out

    def test_pure_pipeline(self, capsys):
        assert main(["distributed", "--world", "2", "--pp", "2", "--ep", "1",
                     "--steps", "1", "--batch-size", "2", "--seq-len", "8"]) == 0
        out = capsys.readouterr().out
        assert "strategy 'pipeline'" in out
        assert "pp=2" in out
