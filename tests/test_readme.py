"""README's examples run against the code they describe, and every
public name of the package has a caller or is documented.

Each ```python block is executed as written, and the inequality-system
JSON example is projected through `confbc fm` and priced both ways.
"""

import ast
import json
import re
from pathlib import Path

import pytest

from confbc.cli import main
from confbc.regions import LinearSystem, support_of_system

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _blocks(lang):
    return re.findall(r"^```%s\n(.*?)^```$" % lang, README, re.M | re.S)


def test_readme_has_the_examples():
    assert len(_blocks("python")) == 2
    assert sum('"variables"' in b for b in _blocks("json")) == 1


@pytest.mark.parametrize("block", range(2), ids=["gaussian-tour", "bound-table"])
def test_readme_python_block_runs(block):
    exec(compile(_blocks("python")[block], "README.md", "exec"), {})


def test_readme_system_json_through_fm(tmp_path):
    doc = json.loads(next(b for b in _blocks("json") if '"variables"' in b))
    sys_path, out_path = tmp_path / "sys.json", tmp_path / "proj.json"
    sys_path.write_text(json.dumps(doc))
    assert main(["fm", "--system", str(sys_path), "--eliminate", "B1,B2",
                 "--out", str(out_path)]) == 0
    projected = LinearSystem.from_json_dict(json.loads(out_path.read_text()))
    assert projected.variables == ("R",)
    # eliminating the bins keeps the best R of the full system: by hand
    # min(2, 2.5, (2 + 2.5 - 1) / 2) = 1.75
    whole = support_of_system(LinearSystem.from_json_dict(doc), (1.0, 0.0, 0.0))
    assert support_of_system(projected, (1.0,)) == pytest.approx(whole, abs=1e-12)
    assert whole == pytest.approx(1.75, abs=1e-12)


def _loaded_names(path):
    """Every name a module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    # a module-level public function or class of the package is either
    # read somewhere in the package or the benchmark, or named in README
    # or CI; a name only tests call is dead weight.  Imports, docstrings
    # and other strings do not count
    modules = sorted((ROOT / "src" / "confbc").glob("*.py"))
    public = {node.name: path.stem
              for path in modules if path.name != "__init__.py"
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    loaded = set().union(*map(_loaded_names,
                              modules + sorted((ROOT / "perfbench").glob("*.py"))))
    words = set(re.findall(r"\w+", README + (
        ROOT / ".github" / "workflows" / "tests.yml").read_text()))
    orphans = sorted("%s.%s" % (public[n], n) for n in public
                     if n not in loaded and n not in words)
    assert not orphans, "public names with no caller: %s" % ", ".join(orphans)
