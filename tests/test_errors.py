"""The exception taxonomy holds only errors the package raises."""

import inspect
import pathlib
import re

from affinespde import errors

SRC = pathlib.Path(errors.__file__).parent


def test_every_error_class_is_raised_somewhere():
    source = "\n".join(p.read_text() for p in sorted(SRC.rglob("*.py")))
    raised = set(re.findall(r"\braise\s+(\w+)", source))
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, Exception)}
    assert classes, "errors.py defines no exception class"
    assert sorted(classes - raised) == []
