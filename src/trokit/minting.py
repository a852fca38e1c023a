"""Deterministic IRI construction.

Identical real-world facts must always land on identical graph nodes,
so every IRI here is a pure function of its inputs: names are folded
to ASCII slugs, role IRIs concatenate their five defining components,
and registry identifiers are percent-encoded verbatim.

Slugs never contain '_', which keeps the '_'-separated components of a
role IRI machine-splittable.
"""

from __future__ import annotations

import string
import unicodedata
from dataclasses import dataclass
from datetime import date
from urllib.parse import quote

from .rdf_core import Iri
from .util import Interval

ENTITY_KINDS = ("person", "org", "contract", "evidence")

# bytes.translate table: a-z and 0-9 stay, every other byte becomes a space
_SEPARATORS = bytes(c if chr(c) in string.ascii_lowercase + string.digits else 32 for c in range(256))


class EmptySlugError(ValueError):
    """Raised when nothing alphanumeric survives name folding."""


@dataclass(frozen=True, slots=True)
class MintConfig:
    """Where minted IRIs live. The base must end with '/'."""

    base: Iri = Iri("http://ehu.eus/tro/data/")

    def __post_init__(self) -> None:
        if not self.base.value.endswith("/"):
            raise ValueError(f"mint base must end with '/': {self.base.value}")


def normalize_name(raw: str) -> str:
    """Fold a name to a slug: [a-z0-9]+(-[a-z0-9]+)*.

    Compatibility-decompose, drop combining marks, lowercase, then
    collapse every run of other characters into one hyphen.
    Raises EmptySlugError when nothing survives.
    """
    folded = raw  # ASCII is its own NFKD form and holds no combining marks
    if not raw.isascii():
        folded = unicodedata.normalize("NFKD", raw)
        for ch in set(folded):  # one C-speed pass per distinct mark, not a Python step per character
            if unicodedata.combining(ch):
                folded = folded.replace(ch, "")
    # every character outside [a-z0-9] (a non-ASCII one encodes as '?') becomes a space, and split drops the runs
    slug = b"-".join(folded.lower().encode("ascii", "replace").translate(_SEPARATORS).split()).decode("ascii")
    if not slug:
        raise EmptySlugError(f"no alphanumeric content in {raw!r}")
    return slug


def mint_role_iri(
    cfg: MintConfig,
    person: str,
    role_type: str,
    start: date,
    end: date | None,
    org: str,
) -> Iri:
    """IRI for one person-role-time-organization fact.

    Open-ended roles use the literal component "ongoing" in the END
    slot; "ongoing" is not a valid ISO date, so no collision is
    possible. Raises InvalidIntervalError when end precedes start.
    """
    Interval(start, end)
    components = (
        normalize_name(person),
        normalize_name(role_type),
        start.isoformat(),
        end.isoformat() if end is not None else "ongoing",
        normalize_name(org),
    )
    return Iri(cfg.base.value + "role/" + "_".join(components))


def mint_entity_iri(cfg: MintConfig, kind: str, key: str) -> Iri:
    """IRI for a person, org, contract, or evidence node.

    Contract keys are registry identifiers and stay verbatim
    (percent-encoded); the other kinds are slugged names.
    """
    if kind not in ENTITY_KINDS:
        raise ValueError(f"unknown entity kind {kind!r}; expected one of {ENTITY_KINDS}")
    if kind == "contract":
        encoded = quote(key, safe="")
        if not encoded:
            raise EmptySlugError("empty contract identifier")
    else:
        encoded = normalize_name(key)
    return Iri(cfg.base.value + kind + "/" + encoded)
