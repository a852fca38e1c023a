"""Small shared helpers: the one xsd:date reader and closed date intervals."""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date

from .rdf_core import XSD_DATE

_ISO_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
DATE_SUFFIX = '"^^' + XSD_DATE


def parse_iso_date(lexical: str) -> date | None:
    """Parse a strict YYYY-MM-DD calendar date; None when invalid."""
    if not _ISO_DATE_RE.match(lexical):
        return None
    try:
        return date.fromisoformat(lexical)
    except ValueError:
        return None


def xsd_dates(objects) -> list[date | None]:
    """Each object's date; None where it is not a well-formed xsd:date literal."""
    cut = -len(DATE_SUFFIX)  # a valid date's lexical form holds nothing to escape: read the quoted text as is
    return [parse_iso_date(o[1:cut]) if o.endswith(DATE_SUFFIX) else None for o in objects]


class InvalidIntervalError(ValueError):
    """Raised when an end date precedes its start date."""


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed date interval; an end of None means ongoing, without end."""

    start: date
    end: date | None = None

    def __post_init__(self) -> None:
        if self.end is not None and self.end < self.start:
            raise InvalidIntervalError(f"end {self.end.isoformat()} precedes start {self.start.isoformat()}")

    def intersect(self, other: Interval) -> Interval | None:
        """The dates both intervals hold, or None when they share none."""
        start = max(self.start, other.start)
        end = min((i.end for i in (self, other) if i.end is not None), default=None)
        if end is not None and end < start:
            return None
        return Interval(start, end)
