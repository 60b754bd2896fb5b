"""No function on the request path reads ``<Enum>.<MEMBER>``.

Under CPython 3.11 ``enum.EnumType`` defines ``__getattr__``, so a member
read such as ``ConnectionState.CLOSED`` inside a function takes the slow
attribute hook: about 150 ns, against about 18 ns for a module global.
The hot modules bind the members they read once, as module constants
(``_CLOSED = ConnectionState.CLOSED``), and read those.  Class bodies and
module level run once, so they are exempt.
"""

import ast
import enum
import importlib
import inspect

import pytest

#: Modules whose functions run per packet, per segment or per request.
HOT_MODULES = (
    "repro.transport.connection",
    "repro.app.client",
    "repro.app.server",
    "repro.app.protocol",
    "repro.app.workload",
    "repro.lb.dataplane",
    "repro.core.feedback",
    "repro.net.pipe",
    "repro.resilience.breaker",
    "repro.resilience.ladder",
    "repro.resilience.quality",
)


def enum_member_reads(source: str, enums: dict) -> list:
    """``(line, "Enum.MEMBER")`` for each member read inside a function body.

    ``enums`` maps a global name to the Enum class it holds.  A function's
    decorators and defaults run where it is defined, so only its body
    counts; a nested function is part of its parent's body.
    """
    reads = []
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = function.body
        elif isinstance(function, ast.Lambda):
            body = [function.body]
        else:
            continue
        for statement in body:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in enums
                    and node.attr in enums[node.value.id].__members__
                ):
                    reads.append((node.lineno, "%s.%s" % (node.value.id, node.attr)))
    return sorted(set(reads))


def module_enums(module) -> dict:
    return {
        name: value
        for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, enum.Enum)
    }


@pytest.mark.parametrize("name", HOT_MODULES)
def test_no_enum_member_read_in_a_function(name):
    module = importlib.import_module(name)
    assert enum_member_reads(inspect.getsource(module), module_enums(module)) == []


def test_the_check_sees_reads_in_bodies_only():
    class State(enum.Enum):
        OPEN = 1
        SHUT = 2

    source = (
        "DEFAULT = State.OPEN\n"
        "class Holder:\n"
        "    initial = State.OPEN\n"
        "    def method(self, state=State.SHUT):\n"
        "        return state is State.SHUT\n"
        "def outer():\n"
        "    def inner():\n"
        "        return State.OPEN.value\n"
        "    return lambda: State.NOT_A_MEMBER\n"
    )
    assert enum_member_reads(source, {"State": State}) == [
        (5, "State.SHUT"),
        (8, "State.OPEN"),
    ]
