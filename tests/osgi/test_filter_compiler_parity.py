"""Differential test: the filter compiler against a frozen closure compiler.

``parse_filter`` compiles each node to a matcher with AND / OR loops and
leaves that test ``str`` / ``int`` / ``float`` by exact type before the
``isinstance`` ladder. ``_frozen_compile`` below is a verbatim copy of the
compiler those replaced (``all`` / ``any`` over generators, the ladder
alone), compiling the same parsed tree recursively. On random filter trees
and property dicts mixing ``bool``, ``int``, ``float``, ``str``,
``Version``, subclasses and sequences under mixed-case keys, both must give
the same answer, or raise the same exception type.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.osgi.filter import Filter, parse_filter
from repro.osgi.version import Version

# ----------------------------------------------------------------------
# The frozen compiler (do not edit: it is the reference semantics)
# ----------------------------------------------------------------------
_MISSING = object()


def _approx(value: str) -> str:
    return "".join(value.split()).lower()


def _coerce_number(text: str) -> Optional[float]:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _coerce_version(text: str) -> Optional[Version]:
    try:
        return Version.parse(text)
    except (TypeError, ValueError):
        return None


def _frozen_compile(node: Filter) -> Callable[[Mapping[str, Any]], bool]:
    kind = node.kind
    if kind == Filter.AND:
        matchers = tuple(_frozen_compile(child) for child in node.children)
        return lambda props: all(m(props) for m in matchers)
    if kind == Filter.OR:
        matchers = tuple(_frozen_compile(child) for child in node.children)
        return lambda props: any(m(props) for m in matchers)
    if kind == Filter.NOT:
        inner = _frozen_compile(node.children[0])
        return lambda props: not inner(props)

    lookup = _frozen_lookup(node.attribute)
    if kind == Filter.PRESENT:
        return lambda props: lookup(props) is not _MISSING

    compare = _frozen_compare(node)

    def leaf(props: Mapping[str, Any]) -> bool:
        actual = lookup(props)
        if actual is _MISSING:
            return False
        if isinstance(actual, (list, tuple, set, frozenset)):
            return any(compare(item) for item in actual)
        return compare(actual)

    return leaf


def _frozen_lookup(attribute: str) -> Callable[[Mapping[str, Any]], Any]:
    exact = attribute
    lowered = attribute.lower()

    def lookup(props: Mapping[str, Any]) -> Any:
        value = props.get(exact, _MISSING)
        if value is not _MISSING:
            return value
        if lowered != exact:
            value = props.get(lowered, _MISSING)
            if value is not _MISSING:
                return value
        found = _MISSING
        for key in props:
            if str(key).lower() == lowered:
                found = props[key]
        return found

    return lookup


def _frozen_compare(node: Filter) -> Callable[[Any], bool]:
    kind = node.kind
    if kind == Filter.SUBSTRING:
        return _frozen_substring(node.value)
    if kind == Filter.EQUAL:
        return _frozen_equal(node.value)
    if kind == Filter.APPROX:
        expected_approx = _approx(str(node.value))
        return lambda actual: _approx(str(actual)) == expected_approx
    if kind == Filter.GREATER_EQ:
        return _frozen_ordered(node.value, greater=True)
    if kind == Filter.LESS_EQ:
        return _frozen_ordered(node.value, greater=False)
    raise AssertionError("unreachable filter kind %r" % kind)


def _frozen_equal(expected: str) -> Callable[[Any], bool]:
    expected_bool = expected.strip().lower()
    expected_number = _coerce_number(expected)
    expected_version = _coerce_version(expected)

    def compare(actual: Any) -> bool:
        if isinstance(actual, bool):
            return str(actual).lower() == expected_bool
        if isinstance(actual, (int, float)):
            return expected_number is not None and float(actual) == expected_number
        if isinstance(actual, Version):
            return expected_version is not None and actual == expected_version
        return str(actual) == expected

    return compare


def _frozen_ordered(expected: str, greater: bool) -> Callable[[Any], bool]:
    expected_number = _coerce_number(expected)
    expected_version = _coerce_version(expected)

    def compare(actual: Any) -> bool:
        if isinstance(actual, (int, float)) and not isinstance(actual, bool):
            if expected_number is None:
                return False
            return actual >= expected_number if greater else actual <= expected_number
        if isinstance(actual, Version):
            if expected_version is None:
                return False
            return actual >= expected_version if greater else actual <= expected_version
        text = str(actual)
        return text >= expected if greater else text <= expected

    return compare


def _frozen_substring(parts: List[str]) -> Callable[[Any], bool]:
    first, last = parts[0], parts[-1]
    first_len, last_len = len(first), len(last)
    middles = tuple(m for m in parts[1:-1] if m)
    single = len(parts) == 1

    def compare(actual: Any) -> bool:
        text = str(actual)
        if first and not text.startswith(first):
            return False
        if last and not text.endswith(last):
            return False
        position = first_len
        end_limit = len(text) - last_len
        for middle in middles:
            found = text.find(middle, position, end_limit)
            if found < 0:
                return False
            position = found + len(middle)
        return position <= end_limit or single

    return compare


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
class Label(str):
    """A ``str`` subclass: not exactly ``str``, so it takes the ladder."""

    def __str__(self) -> str:
        return "label:" + str.__str__(self)


class Count(int):
    """An ``int`` subclass that is not ``bool``."""


#: Attribute spellings; each also appears as a key in other cases.
NAMES = ["level", "Level", "LEVEL", "vendor", "Vendor", "x", "X"]
#: Literal operands that coerce to numbers, versions, booleans or nothing.
TOKENS = [
    "0", "1", "2", "3", "-1", "2.5", "10", "1e3", "inf", "nan", "1.2.3",
    "1.0", "1.2.3.beta", "true", "False", "TRUE", "abc", "Abc", "a b c",
    "acme corp", "AcmeCorp", "z", "",
]

operand = st.one_of(
    st.sampled_from(TOKENS),
    st.text(alphabet="abcXYZ019. -", max_size=6),
)


@st.composite
def filter_texts(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        name = draw(st.sampled_from(NAMES))
        op = draw(st.sampled_from(["=", "~=", ">=", "<=", "=*", "=sub"]))
        if op == "=*":
            return "(%s=*)" % name
        if op == "=sub":
            pieces = draw(st.lists(operand, min_size=2, max_size=4))
            return "(%s=%s)" % (name, "*".join(pieces))
        value = draw(operand)
        if op in ("~=", ">=", "<=") and not value:
            value = "1"
        return "(%s%s%s)" % (name, op, value)
    op = draw(st.sampled_from(["&", "|", "!"]))
    count = 1 if op == "!" else draw(st.integers(1, 4))
    inner = "".join(draw(filter_texts(depth=depth - 1)) for _ in range(count))
    return "(%s%s)" % (op, inner)


scalars = st.one_of(
    st.booleans(),
    st.integers(-5, 12),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1.0, 2.5, 3.0, 1000.0, -1.0]),
    st.sampled_from(TOKENS),
    st.text(max_size=6),
    st.sampled_from(["1.2.3", "1.0.0", "0.9", "1.2.3.beta"]).map(Version.parse),
    st.sampled_from(TOKENS).map(Label),
    st.integers(-3, 12).map(Count),
)
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=3),
    st.lists(scalars, max_size=3).map(tuple),
    st.lists(st.one_of(st.integers(-3, 5), st.sampled_from(TOKENS)), max_size=3).map(
        frozenset
    ),
)
property_dicts = st.dictionaries(st.sampled_from(NAMES), values, max_size=5)


def _outcome(match: Callable[[Mapping[str, Any]], bool], props: Mapping[str, Any]):
    try:
        result = match(props)
    except Exception as exc:  # compared by type: both must raise alike
        return ("raise", type(exc))
    return ("ok", type(result), result)


@settings(max_examples=600, deadline=None)
@given(filter_texts(), st.lists(property_dicts, min_size=1, max_size=4))
def test_compiler_matches_frozen_closure_compiler(text, dicts):
    compiled = parse_filter(text)
    frozen = _frozen_compile(compiled)
    for props in dicts:
        assert _outcome(compiled.matches, props) == _outcome(frozen, props), (
            text,
            props,
        )


def test_hand_picked_edges_agree():
    """Cases the ladder orders matter for: ``bool`` before ``int``, big
    ints, sequences, ``Version`` and keys that differ only in case."""
    cases = [
        ("(flag=true)", {"flag": True}),
        ("(flag=1)", {"flag": True}),
        ("(n>=1)", {"n": True}),
        ("(n=9007199254740993)", {"n": 2**53 + 1}),
        ("(n>=1e400)", {"n": 10**400}),
        ("(n=1)", {"n": 10**400}),
        ("(v>=1.2)", {"v": Version.parse("1.2.3")}),
        ("(v=1.2.3)", {"v": "1.2.3"}),
        ("(tags=b)", {"tags": ["a", "b"]}),
        ("(tags>=5)", {"tags": (1, 7)}),
        ("(Level=3)", {"level": 3, "LEVEL": 4}),
        ("(level=4)", {"LEVEL": 3, "LeVeL": 4}),
        ("(name=label:x)", {"name": Label("x")}),
        ("(&(a=1)(|(b=*)(!(c~=X Y))))", {"a": 1.0, "C": "xy"}),
    ]
    for text, props in cases:
        compiled = parse_filter(text)
        frozen = _frozen_compile(compiled)
        assert _outcome(compiled.matches, props) == _outcome(frozen, props), text
