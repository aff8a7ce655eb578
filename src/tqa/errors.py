"""Exception types shared across the package, and the XML reader that
turns a malformed document into one of them."""

from os import PathLike
from xml.etree import ElementTree as ET


class TqaError(Exception):
    """Base class for all errors raised by this package."""


class MalformedValue(TqaError):
    """A value string matches no production of the canonical value grammar."""


class UnanchoredValue(TqaError):
    """A value without an absolute year cannot be mapped to a day interval."""


class OutOfCalendar(TqaError):
    """Date arithmetic produced a day before year 1."""


class UnsplittableQuestion(TqaError):
    """A complex question has no text after its temporal signal.

    Carries the partial analysis so callers can still report the
    temporal expressions, the signal and the question type.
    """

    def __init__(self, message, tes=(), signal=None, qtype=None):
        super().__init__(message)
        self.tes = tuple(tes)
        self.signal = signal
        self.qtype = qtype


class UndatedAnswer(TqaError):
    """An ordering check was attempted on an answer without a date."""


class SchemaViolation(TqaError):
    """A testbed or fixture document violates the annotation schema."""

    def __init__(self, message, qid=None):
        super().__init__(message)
        self.qid = qid


class PackInvalid(TqaError):
    """A language pack fails validation; the message names the invariant."""


class EmptyPopulation(TqaError):
    """Metrics were requested over zero items."""


def read_xml(source, error: type[TqaError]) -> ET.Element:
    """Root element of an XML document given as bytes, a path or a file;
    a document that does not parse raises ``error``."""
    try:
        if isinstance(source, bytes):
            return ET.fromstring(source)
        return ET.parse(source).getroot()
    except ET.ParseError as exc:
        where = f"{source}: " if isinstance(source, (str, PathLike)) else ""
        raise error(f"{where}malformed XML: {exc}") from None
