"""Command-line surface wiring the pipeline end to end.

Exit codes: 0 success, 1 validation/data-quality failure (any ``ValueError``),
2 usage or I/O error (any ``OSError``). Flags beat config-file values, which
beat defaults; the effective configuration is echoed into reports (and to
stderr for record streams).
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import threading
import warnings

import click

from . import corpus as corpus_mod
from . import reports
from .classifier import load_model, predict_conversation, save_model, train_model
from .config import RunConfig, load_config
from .corpus import LabelCatalog
from .evaluate import cross_validate, rank_features_for_examples
from .featurize import SLEN_SCOPES
from .serve import ServeEngine, ServeServer, serve_stream
from .synth import SynthSpec, synth_catalog, synth_corpus


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {reports.one_line(message)}", err=True)
    sys.exit(code)


def _load_catalog(ctx) -> LabelCatalog:
    path = ctx.obj.get("catalog_path")
    return corpus_mod.load_catalog(path) if path else LabelCatalog.default()


def _effective_config(ctx, **overrides) -> RunConfig:
    path = ctx.obj.get("config_path")
    config = load_config(path) if path else RunConfig()
    updates = {k: v for k, v in overrides.items() if v is not None}
    if ctx.obj.get("seed") is not None:
        updates["seed"] = ctx.obj["seed"]
    return dataclasses.replace(config, **updates) if updates else config


def _config_echo(ctx, config: RunConfig) -> dict:
    return {"catalog": ctx.obj.get("catalog_path") or "<default>", **config.as_dict()}


def _read_corpus(paths, catalog):
    conversations = corpus_mod.load_transcripts(paths, catalog)
    report = corpus_mod.validate(conversations)
    if not report.ok:
        for v in report.violations:
            click.echo(f"violation: {reports.violation_line(v)}", err=True)
        _fail(1, f"{len(report.violations)} validation violation(s)")
    return conversations


def _read_examples(paths, catalog, purpose: str):
    examples = corpus_mod.modeling_examples(_read_corpus(paths, catalog), catalog)
    if not examples:
        _fail(1, f"no participant turns with catalog labels to {purpose} on")
    return examples


def _load_model(model_path, fallback: bool | None):
    """The model at model_path, its fallback set by the flag if given; echoes its config."""
    model = load_model(model_path)
    if fallback is not None:
        model.config = dataclasses.replace(model.config, fallback=fallback)
    click.echo(f"# config: {json.dumps(model.config.as_dict(), sort_keys=True, allow_nan=False)}",
               err=True)
    return model


class _Commands(click.Group):
    """Runs every command inside the one error boundary: a ``ValueError``
    (transcript, catalog, model-file and config errors included) exits 1, an
    ``OSError`` exits 2, each with one ``error:`` line, and a warning the
    package raises prints as one ``warning:`` line."""

    def invoke(self, ctx):
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: click.echo(
                f"warning: {reports.one_line(str(message))}", err=True)
            try:
                return super().invoke(ctx)
            except ValueError as exc:
                _fail(1, str(exc))
            except BrokenPipeError:
                raise  # click exits quietly when the reader of stdout goes away
            except OSError as exc:
                _fail(2, str(exc))


@click.group(cls=_Commands)
@click.option("--catalog", "catalog_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Label catalog JSON (default: bundled catalog).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Run configuration JSON.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Override the run seed.")
@click.option("--format", "fmt", type=click.Choice(reports.FORMATS), default=reports.TABLE,
              show_default=True, help="Report format.")
@click.pass_context
def main(ctx, catalog_path, config_path, seed, fmt):
    """Detect speech-act types in developer Q/A conversation turns."""
    ctx.obj = {"catalog_path": catalog_path, "config_path": config_path,
               "seed": seed, "format": fmt}


@main.command()
@click.argument("transcripts", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def validate(ctx, transcripts):
    """Check transcripts against the data-model invariants."""
    conversations = corpus_mod.load_transcripts(transcripts, _load_catalog(ctx))
    report = corpus_mod.validate(conversations)
    for v in report.violations:
        click.echo(reports.violation_line(v))
    click.echo(f"{len(report.violations)} violations")
    sys.exit(0 if report.ok else 1)


@main.command()
@click.argument("transcripts", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def stats(ctx, transcripts):
    """Corpus statistics: turns, speakers, label occurrence counts."""
    catalog = _load_catalog(ctx)
    conversations = _read_corpus(transcripts, catalog)
    result = corpus_mod.corpus_stats(conversations, catalog)
    config = _config_echo(ctx, _effective_config(ctx))
    if ctx.obj["format"] == reports.MACHINE:
        click.echo(reports.stats_machine(result, config), nl=False)
    else:
        click.echo(reports.stats_table(result, config), nl=False)


@main.command(name="synth-corpus")
@click.option("--labels", "n_labels", type=click.IntRange(min=2), default=6, show_default=True)
@click.option("--turns-per-label", type=click.IntRange(min=1), default=50, show_default=True)
@click.option("--signal", type=click.FloatRange(0.0, 1.0), default=1.0, show_default=True,
              help="Probability a keyword slot draws from the label's pool.")
@click.option("--multi-label-rate", type=click.FloatRange(0.0, 1.0), default=0.2,
              show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), required=True)
@click.option("--catalog-out", type=click.Path(dir_okay=False), default=None,
              help="Also write the matching catalog JSON.")
@click.pass_context
def synth_corpus_cmd(ctx, n_labels, turns_per_label, signal, multi_label_rate, output, catalog_out):
    """Generate a deterministic keyword-separable synthetic corpus."""
    spec = SynthSpec(n_labels=n_labels, turns_per_label=turns_per_label, signal=signal,
                     multi_label_rate=multi_label_rate, seed=_effective_config(ctx).seed)
    conversations = synth_corpus(spec)
    corpus_mod.write_document(output, corpus_mod.serialize_transcripts(conversations))
    if catalog_out:
        catalog = corpus_mod.catalog_to_dict(synth_catalog(spec))
        corpus_mod.write_document(catalog_out, json.dumps(catalog) + "\n")
    click.echo(f"wrote {sum(len(c.turns) for c in conversations)} turns "
               f"({len(conversations)} conversations) to {reports.one_line(output)}", err=True)


@main.command()
@click.argument("transcripts", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--output", "model_path", type=click.Path(dir_okay=False), required=True,
              help="Where to write the trained model file.")
@click.option("--tune/--no-tune", default=None, help="Grid-search hyperparameters first.")
@click.option("--smote-k", type=click.IntRange(min=1), default=None)
@click.option("--threshold", type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True),
              default=None)
@click.option("--slen-scope", type=click.Choice(SLEN_SCOPES), default=None)
@click.pass_context
def train(ctx, transcripts, model_path, tune, smote_k, threshold, slen_scope):
    """Train the multi-label model and persist it."""
    catalog = _load_catalog(ctx)
    config = _effective_config(ctx, tune=tune, smote_k=smote_k,
                               threshold=threshold, slen_scope=slen_scope)
    examples = _read_examples(transcripts, catalog, "train")
    corpus_mod.check_writable(model_path)
    model = train_model(examples, catalog, config)
    for skip in model.skipped:
        click.echo(f"warning: skipped label {skip.label}: {skip.reason}", err=True)
    for name, clf in model.classifiers.items():
        if not clf.converged:
            click.echo(f"warning: label {name} did not converge: gradient norm "
                       f"{clf.grad_norm:.3g} > tolerance {clf.hyperparams.tolerance:g} "
                       f"after {clf.iterations} Newton steps", err=True)
    save_model(model, model_path)
    click.echo(f"trained {len(model.classifiers)} classifiers "
               f"({len(model.skipped)} skipped) -> {reports.one_line(model_path)}", err=True)


@main.command()
@click.argument("transcripts", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--fallback/--no-fallback", default=None,
              help="Emit the argmax label when none clears the threshold [default: the model's].")
@click.pass_context
def predict(ctx, transcripts, model_path, fallback):
    """Classify the participant turns of a transcript, one record per turn."""
    model = _load_model(model_path, fallback)
    conversations = _read_corpus(transcripts, model.catalog)
    write = (reports.predict_lines if ctx.obj["format"] == reports.MACHINE
             else reports.predict_table_lines)
    text = reports.AnswerText(model.catalog.labels)
    for conv in conversations:
        # one scoring call and one write per conversation
        click.echo("\n".join(write(model, text, conv, predict_conversation(model, conv))))


@main.command()
@click.argument("transcripts", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--folds", type=click.IntRange(min=2), default=None)
@click.option("--tune/--no-tune", default=None)
@click.option("--smote-k", type=click.IntRange(min=1), default=None)
@click.option("--threshold", type=click.FloatRange(0.0, 1.0, min_open=True, max_open=True),
              default=None)
@click.option("--fallback/--no-fallback", default=None)
@click.option("--slen-scope", type=click.Choice(SLEN_SCOPES), default=None)
@click.option("--output", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Also write the machine-readable report here.")
@click.pass_context
def evaluate(ctx, transcripts, folds, tune, smote_k, threshold, fallback, slen_scope, out_path):
    """Stratified cross-validation with per-label and weighted metrics."""
    catalog = _load_catalog(ctx)
    config = _effective_config(ctx, n_folds=folds, tune=tune, smote_k=smote_k,
                               threshold=threshold, fallback=fallback, slen_scope=slen_scope)
    examples = _read_examples(transcripts, catalog, "evaluate")
    if out_path:
        corpus_mod.check_writable(out_path)
    report = cross_validate(examples, catalog, config)
    config_dict = _config_echo(ctx, config)
    machine_doc = reports.metrics_machine(report, config_dict)
    if ctx.obj["format"] == reports.MACHINE:
        click.echo(machine_doc, nl=False)
    else:
        click.echo(reports.metrics_table(report, config_dict), nl=False)
    if out_path:
        corpus_mod.write_document(out_path, machine_doc)


@main.command(name="rank-features")
@click.argument("transcripts", nargs=-1, required=True,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--label", "label_name", default=None,
              help="Rank for one label (default: every catalog label with positives).")
@click.option("--top-n", type=click.IntRange(min=1), default=10, show_default=True)
@click.option("--printed-order", is_flag=True, default=False,
              help="List features least-informative first.")
@click.option("--slen-scope", type=click.Choice(SLEN_SCOPES), default=None)
@click.pass_context
def rank_features_cmd(ctx, transcripts, label_name, top_n, printed_order, slen_scope):
    """Most informative features per speech-act type (fisher score)."""
    catalog = _load_catalog(ctx)
    config = _effective_config(ctx, slen_scope=slen_scope)
    examples = _read_examples(transcripts, catalog, "rank")
    labels = [label_name.lower()] if label_name else catalog.labels
    rankings = rank_features_for_examples(examples, catalog, labels, top_n, config.slen_scope)
    config_dict = _config_echo(ctx, config)
    if ctx.obj["format"] == reports.MACHINE:
        click.echo(reports.ranking_machine(rankings, config_dict), nl=False)
    else:
        click.echo(reports.ranking_table(rankings, printed_order, config_dict), nl=False)


@main.command()
@click.option("--model", "model_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--port", type=click.IntRange(0, 65535), default=None,
              help="Listen on TCP instead of stdin/stdout.")
@click.option("--host", default="127.0.0.1", show_default=True)
@click.option("--fallback/--no-fallback", default=None)
@click.pass_context
def serve(ctx, model_path, port, host, fallback):
    """Long-running classify service speaking the line protocol."""
    engine = ServeEngine(_load_model(model_path, fallback))
    if port is None:
        serve_stream(engine, click.get_binary_stream("stdin"), click.get_binary_stream("stdout"))
        return
    server = ServeServer((host, port), engine)
    if threading.current_thread() is threading.main_thread():
        # SIGTERM stops the server as Ctrl-C does: socket closed, exit 0
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:  # a SIGTERM sent as soon as the line below is read still exits 0
        click.echo(f"listening on {server.server_address[0]}:{server.server_address[1]}", err=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
