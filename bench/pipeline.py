"""The batch half of a benchmark run, in a process of its own.

Runs the user-facing sequence on a workload's files: load, validate and
select the transcripts (``SETUP_REPEATS`` times), then the commands of the
spec's schedule (``evaluate``, ``train --tune`` on the tuning slice,
``train`` and ``predict``), each through the CLI entry point, in-process. A
command that exits non-zero or raises is recorded as failed and the schedule
goes on. A command that runs more than once must write the same bytes every
time. Writes a JSON document of timings and failures. Every section is timed
under a :class:`speed.Probe` and reported both as wall seconds and as
seconds scaled to the probe's reference speed. The peak RSS it reports is
this process's, so it covers exactly these commands.

Usage: python3 pipeline.py SPEC.json RESULT.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

SETUP_REPEATS = 5


def run_cli(args: list[str], stdout_path: Path) -> tuple[float, float, int, str]:
    """Run one CLI command; return (start, end, exit code, stderr), the
    times as ``time.perf_counter`` values."""
    from speechacts.cli import main

    err = io.StringIO()
    with open(stdout_path, "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                main.main(args=args, prog_name="speechacts", standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # click re-raises its own errors in this mode
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
            end = time.perf_counter()
    return start, end, code, err.getvalue()


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import speed

    with speed.Probe() as probe:
        return run(spec, result_path, probe)


def run(spec: dict, result_path: str, probe) -> int:
    import speed

    tracer = None
    if spec["trace_path"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from speechacts import corpus as corpus_mod

    def phase(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    out = Path(spec["out"])
    catalog_args = ["--catalog", spec["catalog"]] if spec["catalog"] else []
    seed_args = ["--seed", str(spec["fold_seed"])]
    # per section: seconds scaled to the probe's reference speed, and wall seconds
    result = {"commands": {}, "wall": {}, "failed": []}

    def record(name, start, end):
        wall, factor, _ = speed.window(probe.samples, start, end)
        result["commands"].setdefault(name, []).append(wall * factor)
        result["wall"].setdefault(name, []).append(wall)

    def command(name, args, stdout_name):
        with phase(name):
            start, end, code, err = run_cli(catalog_args + seed_args + args, out / stdout_name)
        record(name, start, end)
        (out / f"{name}.stderr").write_text(err, encoding="utf-8")
        if code != 0:
            result["failed"].append(f"{name}: exit {code}: {err.strip()[-300:]}")

    with phase("setup"):
        catalog = (corpus_mod.load_catalog(spec["catalog"]) if spec["catalog"]
                   else corpus_mod.LabelCatalog.default())
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            conversations = corpus_mod.load_transcripts([spec["corpus"]], catalog)
            report = corpus_mod.validate(conversations)
            examples = corpus_mod.modeling_examples(conversations, catalog)
            record("setup", start, time.perf_counter())
    setup = result["commands"].pop("setup")
    result["setup_s"] = statistics.median(setup)
    result["setup_wall_s"] = statistics.median(result["wall"].pop("setup"))
    result["examples"] = len(examples)
    if not report.ok:
        result["failed"].append(f"validate: {len(report.violations)} violations")

    evaluate = ["--format", "machine", "evaluate", spec["corpus"], "--folds", "5",
                "--output", str(out / "evaluate.json")]
    tune = ["train", spec["tune_corpus"], "--tune", "--output", str(out / "tuned_model.json")]
    train = ["train", spec["corpus"], "--output", str(out / "model.json")]
    predict = ["--format", "machine", "predict", spec["requests"], "--model",
               str(out / "model.json")]
    commands = {"evaluate": (evaluate, "evaluate.stdout", out / "evaluate.json"),
                "tune": (tune, "tune.stdout", out / "tuned_model.json"),
                "train": (train, "train.stdout", out / "model.json"),
                "predict": (predict, "predict.jsonl", out / "predict.jsonl")}
    digests: dict[str, set] = {}
    for name in spec["schedule"]:
        args, stdout_name, output = commands[name]
        command(name, args, stdout_name)
        if output.exists():
            digests.setdefault(name, set()).add(hashlib.sha256(output.read_bytes()).hexdigest())
    for name, seen in digests.items():
        if len(seen) != 1:
            result["failed"].append(f"{name}: repeated runs wrote different outputs")

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.write(Path(spec["trace_path"]))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
