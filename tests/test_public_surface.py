"""The names other code relies on: the README library sketch and the benchmark hooks."""

import ast
import dataclasses
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import gradsense
from gradsense import config, runner

ROOT = Path(__file__).resolve().parents[1]


def _library_sketch() -> str:
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_library_sketch_runs():
    env: dict = {}
    exec(compile(_library_sketch(), "README.md:library-sketch", "exec"), env)
    alloc = env["alloc"]
    assert alloc.budget == 10_000.0
    assert alloc.amounts.sum() == pytest.approx(alloc.budget, rel=1e-12)
    assert (alloc.amounts >= 0).all()


def test_readme_config_block_is_the_default_config():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```yaml\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    doc = yaml.safe_load(blocks[0])
    assert config.config_from_dict(doc) == config.ExperimentConfig()
    for keys, cls in ((doc, config.ExperimentConfig), (doc["gaming"], config.GamingDesign)):
        assert set(keys) == {f.name for f in dataclasses.fields(cls)}


def _bindings(tracing) -> dict:
    """Every module global of gradsense and every traced method, by identity."""
    out = {}
    for key, mod in sorted(sys.modules.items()):
        if mod is not None and (key == "gradsense" or key.startswith("gradsense.")):
            out.update({(key, name): value for name, value in vars(mod).items()})
    for mod_name, cls_name, attr, *_ in tracing.LAYERS:
        if cls_name is not None:
            owner = getattr(sys.modules[f"gradsense.{mod_name}"], cls_name)
            out[(mod_name, cls_name, attr)] = owner.__dict__[attr]
    return out


def test_benchmark_tracer_finds_every_layer_and_restores(monkeypatch):
    # perfbench/tracing.py looks each traced layer up by name; a deleted or
    # renamed layer makes install raise AttributeError or KeyError
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    before = _bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install(gradsense)
    try:
        installed = _bindings(tracing)
        for mod_name, cls_name, attr, *_ in tracing.LAYERS:
            key = ((mod_name, cls_name, attr) if cls_name is not None
                   else (f"gradsense.{mod_name}", attr))
            assert installed[key] is not before[key], key
    finally:
        tracer.restore()
    after = _bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_times_every_stage_run(monkeypatch, tmp_path):
    # the per-stage spans exist only while run_full calls the module's run_stage
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from test_runner import tiny_config

    tracer = tracing.Tracer()
    tracer.install(gradsense)
    try:
        assert runner.run_full(tiny_config(tmp_path / "traced"))["ok"]
    finally:
        tracer.restore()
    stage_spans = [span[0] for span in tracer.spans if span[0].startswith("runner.stage.")]
    assert stage_spans == [f"runner.stage.{name}" for name in runner.STAGES]
    assert tracing.STAGES == runner.STAGES  # the benchmark's list of per-stage metrics


def test_benchmark_selftest_passes():
    # the harness's own tests, which run the traced layers on a tiny config
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_readme_names_every_stage_in_run_order():
    text = (ROOT / "README.md").read_text()
    paragraph = text.split("\nStages, in run order: ", 1)[1].split("\n\n", 1)[0]
    named = [name for name in re.findall(r"`(\w+)`", paragraph) if name in runner.STAGES]
    assert named == list(runner.STAGES)


# Functions that nothing in src/, the README sketch, the package exports or the
# console scripts uses: perfbench/tracing.py traces them by name, so they stay
# until ROADMAP items 7d and 16 take them out of the benchmark and then delete them.
KEPT = {"gradient_values", "save_field", "load_field", "spearman", "write_csv"}


def _references(tree: ast.AST, scopes: tuple = ()):
    """(name, enclosing function defs) for every name and attribute read in `tree`."""
    if isinstance(tree, ast.Name):
        yield tree.id, scopes
    elif isinstance(tree, ast.Attribute):
        yield tree.attr, scopes
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef)):
        scopes += (tree,)
    for child in ast.iter_child_nodes(tree):
        yield from _references(child, scopes)


def test_every_function_has_a_user():
    # dead code does not grow back: each function and method is read in src/ outside
    # its own body, named by the README sketch, exported, a console script or a store
    # loader that run_stage dispatches to by name; KEPT
    # holds exactly the rest, so it cannot go stale either
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "gradsense").glob("*.py"))}
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    users = ({name for name, _ in _references(ast.parse(_library_sketch()))}
             | {alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
             | set(re.findall(r':(\w+)"', scripts))
             # run_stage calls getattr(state, f"ensure_{store}") for each store a stage reads
             | {f"ensure_{store}" for stage in runner.STAGE_TABLE for store in stage.reads})
    readers: dict[str, list[tuple]] = {}
    for tree in trees.values():
        for name, scopes in _references(tree):
            readers.setdefault(name, []).append(scopes)
    unused = sorted(
        fn.name for tree in trees.values() for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and fn.name not in users
        and all(fn in scopes for scopes in readers.get(fn.name, [])))
    assert unused == sorted(KEPT)
