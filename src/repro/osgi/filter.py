"""RFC 1960 / OSGi LDAP filter language.

The service registry selects services with filter strings such as::

    (&(objectClass=log.LogService)(level>=3)(!(vendor~=acme)))

This module provides a recursive-descent parser producing a :class:`Filter`
tree that matches against property dictionaries with OSGi semantics:

* attribute names are case-insensitive;
* ``=`` supports substring patterns (``foo*bar``) and presence (``=*``);
* ``~=`` is the approximate match (case/whitespace-insensitive);
* ``>=``/``<=`` compare numerically when the property value is numeric,
  by version when it is a :class:`~repro.osgi.version.Version`, and
  lexicographically otherwise;
* list/tuple-valued properties match when any element matches.

Filters are compiled to closures at parse time: attribute names are
lowered once, substring patterns are pre-split, and numeric/version
coercions of the literal operand are decided per node — ``matches()``
is a single closure call over the raw property dict, with no per-call
dict copying or string re-processing. :func:`parse_filter` memoises
parses in an LRU cache keyed by the filter text; treat parsed filters
as immutable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, FrozenSet, List, Mapping, Optional, Tuple, Union

from repro.osgi.errors import InvalidSyntaxError
from repro.osgi.version import Version

_MISSING = object()
#: Value types that are never sequences; a leaf tests these by exact type
#: before the ``isinstance`` ladder (``bool`` is not among them).
_SCALARS = frozenset((str, int, float))
_SEQUENCES = (list, tuple, set, frozenset)

#: A compiled matcher: raw property mapping -> bool.
_Matcher = Callable[[Mapping[str, Any]], bool]


class Filter:
    """A parsed, compiled LDAP filter node. Build with :func:`parse_filter`."""

    #: node kinds
    AND = "&"
    OR = "|"
    NOT = "!"
    EQUAL = "="
    APPROX = "~="
    GREATER_EQ = ">="
    LESS_EQ = "<="
    PRESENT = "=*"
    SUBSTRING = "substr"

    __slots__ = ("kind", "attribute", "value", "children", "_text", "_match")

    def __init__(
        self,
        kind: str,
        attribute: str = "",
        value: Any = None,
        children: Optional[List["Filter"]] = None,
        text: str = "",
    ) -> None:
        self.kind = kind
        self.attribute = attribute
        self.value = value
        self.children = children or []
        self._text = text
        self._match: _Matcher = _compile(self)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def matches(self, properties: Mapping[str, Any]) -> bool:
        """Evaluate against ``properties`` (case-insensitive keys).

        Accepts the raw dict: keys are looked up case-insensitively
        without building a lowered copy, and the mapping is never
        mutated.
        """
        return self._match(properties)

    def objectclass_candidates(self) -> Optional[FrozenSet[str]]:
        """Object classes this filter could possibly match, or ``None``.

        ``None`` means "unconstrained" — the filter may match a service
        of any class. A frozenset means the filter can only ever match a
        service registered under at least one of those classes; event
        dispatch uses this to index listeners by objectClass.
        """
        if self.kind == Filter.EQUAL:
            if self.attribute.lower() == "objectclass":
                return frozenset((str(self.value),))
            return None
        if self.kind == Filter.AND:
            out: Optional[FrozenSet[str]] = None
            for child in self.children:
                candidates = child.objectclass_candidates()
                if candidates is None:
                    continue
                out = candidates if out is None else (out & candidates)
            return out
        if self.kind == Filter.OR:
            union: FrozenSet[str] = frozenset()
            for child in self.children:
                candidates = child.objectclass_candidates()
                if candidates is None:
                    return None
                union |= candidates
            return union
        # NOT / substring / presence / ordered nodes cannot constrain.
        return None

    def __str__(self) -> str:
        return self._text or self._render()

    def _render(self) -> str:
        if self.kind in (Filter.AND, Filter.OR):
            return "(%s%s)" % (self.kind, "".join(c._render() for c in self.children))
        if self.kind == Filter.NOT:
            return "(!%s)" % self.children[0]._render()
        if self.kind == Filter.PRESENT:
            return "(%s=*)" % self.attribute
        if self.kind == Filter.SUBSTRING:
            pattern = "*".join(_escape(part) for part in self.value)
            return "(%s=%s)" % (self.attribute, pattern)
        return "(%s%s%s)" % (self.attribute, self.kind, _escape(str(self.value)))

    def __repr__(self) -> str:
        return "Filter(%s)" % self


def _escape(value: str) -> str:
    out = []
    for ch in value:
        if ch in "()*\\":
            out.append("\\")
        out.append(ch)
    return "".join(out)


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


# ----------------------------------------------------------------------
# Compilation: Filter tree -> matcher closures
# ----------------------------------------------------------------------
def _compile(node: Filter) -> _Matcher:
    kind = node.kind
    if kind == Filter.AND:
        matchers = tuple(child._match for child in node.children)

        def match_all(props: Mapping[str, Any]) -> bool:
            for match in matchers:
                if not match(props):
                    return False
            return True

        return match_all
    if kind == Filter.OR:
        matchers = tuple(child._match for child in node.children)

        def match_any(props: Mapping[str, Any]) -> bool:
            for match in matchers:
                if match(props):
                    return True
            return False

        return match_any
    if kind == Filter.NOT:
        inner = node.children[0]._match
        return lambda props: not inner(props)

    lookup = _compile_lookup(node.attribute)
    if kind == Filter.PRESENT:
        return lambda props: lookup(props) is not _MISSING

    compare = _compile_compare(node)
    exact = node.attribute

    def leaf(props: Mapping[str, Any]) -> bool:
        actual = props.get(exact, _MISSING)
        if actual is _MISSING:
            actual = lookup(props)
            if actual is _MISSING:
                return False
        if type(actual) not in _SCALARS and isinstance(actual, _SEQUENCES):
            return any(compare(item) for item in actual)
        return compare(actual)

    return leaf


def _compile_lookup(attribute: str) -> Callable[[Mapping[str, Any]], Any]:
    """Case-insensitive property lookup without copying the dict.

    Fast path: the attribute as written, then its lowercase form, hit the
    dict directly. Slow path (rare): scan the keys, lowering each; the
    last match wins, mirroring the overwrite order of the lowered-copy
    approach this replaces.
    """
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


def _compile_compare(node: Filter) -> Callable[[Any], bool]:
    kind = node.kind
    if kind == Filter.SUBSTRING:
        return _compile_substring(node.value)
    if kind == Filter.EQUAL:
        return _compile_equal(node.value)
    if kind == Filter.APPROX:
        expected_approx = _approx(str(node.value))
        return lambda actual: _approx(str(actual)) == expected_approx
    if kind == Filter.GREATER_EQ:
        return _compile_ordered(node.value, greater=True)
    if kind == Filter.LESS_EQ:
        return _compile_ordered(node.value, greater=False)
    raise AssertionError("unreachable filter kind %r" % kind)


def _compile_equal(expected: str) -> Callable[[Any], bool]:
    expected_bool = expected.strip().lower()
    expected_number = _coerce_number(expected)
    expected_version = _coerce_version(expected)

    def compare(actual: Any) -> bool:
        kind = type(actual)
        if kind is str:
            return actual == expected
        if kind is int or kind is float:
            return expected_number is not None and float(actual) == expected_number
        if isinstance(actual, bool):
            return str(actual).lower() == expected_bool
        if isinstance(actual, (int, float)):
            return expected_number is not None and float(actual) == expected_number
        if isinstance(actual, Version):
            return expected_version is not None and actual == expected_version
        return str(actual) == expected

    return compare


def _compile_ordered(expected: str, greater: bool) -> Callable[[Any], bool]:
    expected_number = _coerce_number(expected)
    expected_version = _coerce_version(expected)

    def compare(actual: Any) -> bool:
        kind = type(actual)
        if kind is str:
            return actual >= expected if greater else actual <= expected
        if kind is int or kind is float or (
            isinstance(actual, (int, float)) and not isinstance(actual, bool)
        ):
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


def _compile_substring(parts: List[str]) -> Callable[[Any], bool]:
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


class _Parser:
    """Recursive-descent parser over a filter string."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def parse(self) -> Filter:
        node = self._parse_filter()
        self._skip_ws()
        if self.pos != len(self.text):
            raise InvalidSyntaxError(
                "trailing characters at position %d" % self.pos, self.text
            )
        node._text = self.text.strip()
        return node

    # -- helpers -------------------------------------------------------
    def _peek(self) -> str:
        if self.pos >= len(self.text):
            raise InvalidSyntaxError("unexpected end of input", self.text)
        return self.text[self.pos]

    def _expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise InvalidSyntaxError(
                "expected %r at position %d" % (ch, self.pos), self.text
            )
        self.pos += 1

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    # -- grammar -------------------------------------------------------
    def _parse_filter(self) -> Filter:
        self._skip_ws()
        self._expect("(")
        self._skip_ws()
        ch = self._peek()
        if ch == "&":
            node = self._parse_composite(Filter.AND)
        elif ch == "|":
            node = self._parse_composite(Filter.OR)
        elif ch == "!":
            self.pos += 1
            child = self._parse_filter()
            node = Filter(Filter.NOT, children=[child])
        else:
            node = self._parse_comparison()
        self._skip_ws()
        self._expect(")")
        return node

    def _parse_composite(self, kind: str) -> Filter:
        self.pos += 1  # consume & or |
        children: List[Filter] = []
        self._skip_ws()
        while self._peek() == "(":
            children.append(self._parse_filter())
            self._skip_ws()
        if not children:
            raise InvalidSyntaxError(
                "composite %r needs at least one operand" % kind, self.text
            )
        return Filter(kind, children=children)

    def _parse_comparison(self) -> Filter:
        attribute = self._parse_attribute()
        ch = self._peek()
        if ch == "~":
            self.pos += 1
            self._expect("=")
            value, wildcards = self._parse_value()
            if wildcards:
                raise InvalidSyntaxError("~= cannot use wildcards", self.text)
            return Filter(Filter.APPROX, attribute, value)
        if ch == ">":
            self.pos += 1
            self._expect("=")
            value, wildcards = self._parse_value()
            if wildcards:
                raise InvalidSyntaxError(">= cannot use wildcards", self.text)
            return Filter(Filter.GREATER_EQ, attribute, value)
        if ch == "<":
            self.pos += 1
            self._expect("=")
            value, wildcards = self._parse_value()
            if wildcards:
                raise InvalidSyntaxError("<= cannot use wildcards", self.text)
            return Filter(Filter.LESS_EQ, attribute, value)
        self._expect("=")
        value, wildcards = self._parse_value()
        if not wildcards:
            return Filter(Filter.EQUAL, attribute, value)
        parts = value  # _parse_value returned the split parts
        if parts == ["", ""]:
            return Filter(Filter.PRESENT, attribute)
        return Filter(Filter.SUBSTRING, attribute, parts)

    def _parse_attribute(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "=<>~()":
            self.pos += 1
        attribute = self.text[start : self.pos].strip()
        if not attribute:
            raise InvalidSyntaxError(
                "missing attribute at position %d" % start, self.text
            )
        return attribute

    def _parse_value(self) -> Tuple[Union[str, List[str]], bool]:
        """Return (value, had_wildcards).

        Without wildcards the value is the unescaped string; with wildcards
        it is the list of literal segments between ``*`` markers.
        """
        parts: List[str] = []
        current: List[str] = []
        saw_wildcard = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == ")":
                break
            if ch == "(":
                raise InvalidSyntaxError(
                    "unescaped '(' in value at position %d" % self.pos, self.text
                )
            if ch == "\\":
                self.pos += 1
                if self.pos >= len(self.text):
                    raise InvalidSyntaxError("dangling escape", self.text)
                current.append(self.text[self.pos])
                self.pos += 1
                continue
            if ch == "*":
                saw_wildcard = True
                parts.append("".join(current))
                current = []
                self.pos += 1
                continue
            current.append(ch)
            self.pos += 1
        parts.append("".join(current))
        if saw_wildcard:
            return parts, True
        return parts[0], False


@lru_cache(maxsize=512)
def _parse_cached(text: str) -> Filter:
    return _Parser(text).parse()


def parse_filter(text: str) -> Filter:
    """Parse ``text`` into a compiled :class:`Filter`.

    Parses are memoised in an LRU cache keyed by the exact filter text;
    the same text returns the same (immutable) :class:`Filter` object.
    Raises :class:`~repro.osgi.errors.InvalidSyntaxError` on malformed
    input.
    """
    if not isinstance(text, str) or not text.strip():
        raise InvalidSyntaxError("empty filter", str(text))
    return _parse_cached(text)


#: Introspection/reset hooks for the parse cache (used by tests and benchmarks).
parse_filter_cache_info = _parse_cached.cache_info
parse_filter_cache_clear = _parse_cached.cache_clear
