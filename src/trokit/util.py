"""Small shared helpers."""

from __future__ import annotations

import re
from datetime import date

from .rdf_core import XSD_DATE, Literal

_ISO_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


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
    return [
        parse_iso_date(o.lexical) if isinstance(o, Literal) and o.datatype == XSD_DATE else None
        for o in objects
    ]
