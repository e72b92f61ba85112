"""The package surface: names resolved on first use, and the README's
library example run as written."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import crowdseq
from corpus import make_gold
from crowdseq import save_conll

SRC = str(Path(crowdseq.__file__).parents[1])
README = Path(__file__).parents[1] / "README.md"


def run_fresh(code: str, cwd=None) -> str:
    """Standard output of ``code`` run in a fresh interpreter importing this
    checkout's package."""
    prelude = f"import sys\nsys.path.insert(0, {SRC!r})\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code], cwd=cwd, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_imports_none_of_its_modules():
    out = run_fresh("import crowdseq\nprint(*sorted(m for m in sys.modules if m.startswith('crowdseq')))")
    assert out.split() == ["crowdseq"]


@pytest.mark.parametrize(
    "first",
    [
        "import crowdseq.simulate",
        "from crowdseq.simulate import SimConfig",
        "from crowdseq.cli import main\nassert main(['simulate', 'gold.tsv', '--out', 'crowd.tsv', '--seed', '1']) == 0",
    ],
)
def test_simulate_stays_the_function_whatever_is_imported_first(first, tmp_path):
    save_conll(tmp_path / "gold.tsv", make_gold(2, seed=1))
    out = run_fresh(
        f"{first}\n"
        "import inspect\n"
        "import crowdseq\n"
        "from crowdseq import simulate\n"
        "module = sys.modules['crowdseq.simulate']\n"
        "print(inspect.isfunction(crowdseq.simulate), simulate is module.simulate, crowdseq.simulate is simulate)\n",
        cwd=tmp_path,
    )
    assert out.splitlines()[-1].split() == ["True", "True", "True"]  # simulate prints its report first


def test_every_public_name_resolves_and_star_import_binds_them():
    out = run_fresh(
        "import crowdseq\n"
        "names = {name: getattr(crowdseq, name) for name in crowdseq.__all__}\n"
        "star = {}\n"
        "exec('from crowdseq import *', star)\n"
        "del star['__builtins__']\n"
        "print(len(names), star == names, set(crowdseq.__all__) <= set(dir(crowdseq)))\n"
        "print(crowdseq.fit is sys.modules['crowdseq.em'].fit, crowdseq.em is sys.modules['crowdseq.em'])\n"
        "try:\n"
        "    crowdseq.no_such_name\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
    )
    assert out.splitlines() == [
        f"{len(crowdseq.__all__)} True True",
        "True True",
        "module 'crowdseq' has no attribute 'no_such_name'",
    ]


def test_the_readme_library_example_runs(tmp_path):
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    save_conll(tmp_path / "gold.tsv", make_gold(8, seed=3))
    assert re.fullmatch(r"entity F1 [01]\.\d{3}\n", run_fresh(block, cwd=tmp_path))
