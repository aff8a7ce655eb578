"""Exception types and the diagnostic vocabulary shared across the
package, the XML reader that refuses a malformed document or a wrong
root, the one reader of a reference date and the one XML writer."""

import enum
import io
from collections.abc import Iterator
from datetime import date
from os import PathLike
from xml.etree import ElementTree as ET


class TqaError(Exception):
    """Base class for all errors raised by this package."""


class MalformedValue(TqaError):
    """A value string matches no production of the canonical value grammar."""


class UnanchoredValue(TqaError):
    """A value without an absolute year cannot be mapped to a day interval."""


class OutOfCalendar(TqaError):
    """Date arithmetic produced a day outside years 1-9999."""


class UnsplittableQuestion(TqaError):
    """A complex question cannot be split at its temporal signal."""


class SchemaViolation(TqaError):
    """A testbed or fixture document violates the annotation schema."""


class PackInvalid(TqaError):
    """A language pack fails validation; the message names the invariant."""


class EmptyPopulation(TqaError):
    """Metrics were requested over zero items."""


class Diagnostic(str, enum.Enum):
    """Why a pipeline stage could not fully go ahead; stages return these
    alongside their result instead of raising."""

    #: decompose: the question could not be split; no answers are produced.
    UNSPLITTABLE = "UNSPLITTABLE"
    #: decompose: the signal carries a quantity offset ("a year after")
    #: whose arithmetic is not applied; the base relation is used instead.
    OFFSET_SIGNAL_UNSUPPORTED = "OFFSET_SIGNAL_UNSUPPORTED"
    #: recompose: an undated answer passed the expression filter unchecked.
    UNDATED_PASSTHROUGH = "UNDATED_PASSTHROUGH"
    #: recompose: an undated answer could not enter an ordering check.
    UNDATED_ANSWER = "UNDATED_ANSWER"
    #: recompose: a keyed flow found no restriction answer; result is empty.
    NO_RESTRICTION_ANSWER = "NO_RESTRICTION_ANSWER"


def iter_xml(source, root, error: type[TqaError]) -> Iterator[ET.Element]:
    """Each element of an XML document given as bytes, a path or a binary
    file, as its end tag is read, the root last.  A document that does not
    parse or names an encoding the parser cannot read (LookupError,
    UnicodeError or a multi-byte ValueError), or whose root is no ``root``
    element once the stream ends, raises ``error``.  A caller that clears
    each element it is done with never holds the whole tree."""
    stream = io.BytesIO(source) if isinstance(source, bytes) else source
    try:
        for _, element in ET.iterparse(stream):
            yield element
    except (ET.ParseError, LookupError, ValueError) as exc:
        # any other ValueError, such as a read of a closed stream, is no
        # fault of the document
        if (type(exc) is ValueError
                and not str(exc).startswith("multi-byte encodings")):
            raise
        where = f"{source}: " if isinstance(source, (str, PathLike)) else ""
        raise error(f"{where}malformed XML: {exc}") from None
    if element.tag != root:
        raise error(f"root element {element.tag!r}, expected {root}")


def read_xml(source, root, error: type[TqaError]) -> ET.Element:
    """The ``root`` element of a document, read as ``iter_xml`` reads it."""
    for element in iter_xml(source, root, error):
        pass
    return element


def read_day(text: str, what: str) -> date:
    """The day ``text`` writes as ``date.isoformat`` writes it, YYYY-MM-DD
    in ASCII digits; any other text raises SchemaViolation naming ``what``."""
    try:
        if (day := date.fromisoformat(text)).isoformat() == text:
            return day
    except ValueError:
        pass
    raise SchemaViolation(f"bad {what} {text!r}")


def write_xml(root: ET.Element) -> bytes:
    """A document as the package writes every XML file: UTF-8 with a
    declaration, indented two spaces.  Indents ``root`` in place."""
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)
