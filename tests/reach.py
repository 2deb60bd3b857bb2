"""Print every public name of ``delinscap`` that no contract reaches and README does not name.

The contracts are what the package is run for:

* the ``delinscap`` commands of README's CLI section, in order, each run
  through ``cli.main`` in an empty directory (:func:`golden.readme_commands`,
  :func:`golden.run_cli`);
* README's Library example, the ``python`` block of its Library section;
* one item of each benchmark workload, from ``delbench/workloads.py``, which
  is loaded from its file and only called.

They run with the ``delinscap`` logger at DEBUG and ``DELINSCAP_SERIES_CONFIG``
pointing to a file of the series defaults, so that the search's DEBUG record
and the config reader run as well.  Every call of Python code is recorded
(``sys.settrace``) from before the package is imported, as every contract
imports it.

The public names are the entries of each module's ``__all__`` (a re-export
under the first module that lists it) and the public methods and properties
of the classes among them, dunders excluded.  A function, method or property
is reached when its code runs; a class when code of its own runs, a
dataclass's generated ``__init__`` too.  Constants, and classes with no code
of their own, are values and are not probed.  A name that README writes in
backticks, bare or after a module (``to_runs``, ``core.to_runs``; a method
as ``RunSequence.total_length``), is a contract of README's and is not
printed.

Run as ``python tests/reach.py``; it takes no flags and prints one name a
line, ``module.name``, or nothing when every public name is reached or
named.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import logging
import os
import re
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
PACKAGE = ROOT / "src" / "delinscap"
README = ROOT / "README.md"
WORKLOADS = ROOT / "delbench" / "workloads.py"
# the series defaults, written as a DELINSCAP_SERIES_CONFIG file
SERIES_DEFAULTS = "tail_epsilon=1e-12\nr_max_cap=4096\n"


def _codes(obj) -> set:
    """The code objects of a function, a property or a static or class method."""
    obj = inspect.unwrap(obj.fget if isinstance(obj, property) else getattr(obj, "__func__", obj))
    return {obj.__code__} if hasattr(obj, "__code__") else set()


def public_names() -> dict[str, set]:
    """Each public name, ``module.name`` or ``module.Class.method``, and the
    code objects of which one running reaches it; values are left out."""
    names, seen = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"delinscap.{path.stem}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if inspect.isclass(obj):
                own = [(attr, _codes(value)) for attr, value in vars(obj).items()]
                if codes := set().union(*(codes for _, codes in own)):
                    names[f"{path.stem}.{name}"] = codes
                for attr, codes in own:
                    if codes and not attr.startswith("_"):
                        names[f"{path.stem}.{name}.{attr}"] = codes
            elif codes := _codes(obj):
                names[f"{path.stem}.{name}"] = codes
    return names


def readme_names(text: str) -> set[str]:
    """What README writes in backticks, with every suffix after a dot too:
    ``core.RunSequence.lengths`` gives ``RunSequence.lengths`` and ``lengths``."""
    names = set()
    for span in re.findall(r"`([\w.]+)(?:\(\))?`", text):
        parts = span.split(".")
        names.update(".".join(parts[k:]) for k in range(len(parts)))
    return names


def _library_example(text: str) -> str:
    """The ``python`` block of README's Library section."""
    return text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def run_contracts(config: Path) -> None:
    """Run every contract (see the module docstring), their output dropped."""
    import golden
    from delinscap.cli import ENV_CONFIG

    config.write_text(SERIES_DEFAULTS, encoding="utf-8")
    os.environ[ENV_CONFIG] = str(config)
    logger = logging.getLogger("delinscap")
    logger.setLevel(logging.DEBUG)
    logger.addHandler(logging.NullHandler())

    for command in golden.readme_commands():
        golden.run_cli(command)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(_library_example(README.read_text(encoding="utf-8")), {})
    spec = importlib.util.spec_from_file_location("delbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        workloads.run_item(workload, workloads.make_items(workload, seed=1, seconds=0.0)[0])


def main() -> None:
    sys.path[:0] = [str(PACKAGE.parent), str(TESTS)]
    called = set()

    def record(frame, event, arg):
        called.add(frame.f_code)  # a new frame: its code runs

    sys.settrace(record)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_contracts(Path(tmp) / "series.cfg")
    finally:
        sys.settrace(None)
    named = readme_names(README.read_text(encoding="utf-8"))
    for name, codes in public_names().items():
        if not codes & called and name.split(".", 1)[1] not in named:
            print(name)


if __name__ == "__main__":
    main()
