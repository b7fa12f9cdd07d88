"""Public Suffix List rules engine.

Implements the matching algorithm specified at https://publicsuffix.org/list/
over a bundled snapshot of rules (:mod:`repro.urls.suffix_data`):

1. A rule matches a domain when the rule's labels equal the right-most
   labels of the domain (``*`` matches any single label).
2. Exception rules (``!`` prefix) take priority over every other rule.
3. Otherwise the prevailing rule is the matching rule with the most labels.
4. The public suffix is the set of labels matched by the prevailing rule
   (for an exception rule, the rule's labels minus its left-most label).
5. The registered domain is the public suffix plus one additional label.

If no rule matches, the prevailing rule is ``*`` (the top-level label is
treated as the public suffix), as mandated by the specification.
"""

from __future__ import annotations

from functools import lru_cache

from repro.urls.suffix_data import iter_snapshot_rules


class PublicSuffixList:
    """A queryable set of public-suffix rules.

    Rules are held as sets of label tuples, exception rules apart from
    normal ones, so finding the prevailing rule is one set lookup per
    suffix of the host rather than a scan over rules.  A wildcard may
    only be a rule's left-most label, as publicsuffix.org specifies.

    Parameters
    ----------
    rules:
        Iterable of raw rule strings.  Defaults to the bundled snapshot.

    Raises
    ------
    ValueError
        When a rule has a ``*`` label other than its left-most one.

    Examples
    --------
    >>> psl = PublicSuffixList()
    >>> psl.public_suffix("www.amazon.co.uk")
    'co.uk'
    >>> psl.registered_domain("www.amazon.co.uk")
    'amazon.co.uk'
    >>> psl.registered_domain("foo.www.ck")  # exception rule !www.ck
    'www.ck'
    """

    def __init__(self, rules=None):
        raw_rules = list(rules) if rules is not None else list(iter_snapshot_rules())
        self._size = len(raw_rules)
        self._exceptions: set[tuple[str, ...]] = set()
        self._normal: set[tuple[str, ...]] = set()
        for raw in raw_rules:
            is_exception = raw.startswith("!")
            if is_exception:
                raw = raw[1:]
            labels = tuple(raw.lower().split("."))
            if "*" in labels[1:]:
                raise ValueError(
                    f"wildcard must be the left-most label: {raw!r}"
                )
            (self._exceptions if is_exception else self._normal).add(labels)

    def __len__(self) -> int:
        return self._size

    def _suffix_length(self, labels: tuple[str, ...]) -> int:
        """Labels in the public suffix of ``labels`` (non-empty).

        An exception rule prevails over every normal rule, and among
        rules of one kind the longest match prevails; an exception's
        suffix drops its left-most label.  With no match, the implicit
        ``*`` rule makes the last label the suffix.
        """
        exception = _longest_match(self._exceptions, labels)
        if exception:
            return exception - 1
        return _longest_match(self._normal, labels) or 1

    def _split_labels(self, fqdn: str) -> tuple[tuple[str, ...], int]:
        """``(labels, public suffix length)`` of ``fqdn``, normalised once."""
        labels = _normalize(fqdn)
        return labels, (self._suffix_length(labels) if labels else 0)

    def public_suffix(self, fqdn: str) -> str:
        """Return the public suffix of ``fqdn``.

        Falls back to the last label when no rule matches (the ``*``
        implicit rule of the specification).
        """
        labels, suffix_len = self._split_labels(fqdn)
        return ".".join(labels[len(labels) - suffix_len:])

    def registered_domain(self, fqdn: str) -> str | None:
        """Return the RDN of ``fqdn`` (public suffix plus one label).

        Returns ``None`` when the whole FQDN is itself a public suffix,
        i.e. there is no registrable label to the left of the suffix.
        """
        labels, suffix_len = self._split_labels(fqdn)
        if suffix_len >= len(labels):
            return None
        return ".".join(labels[len(labels) - suffix_len - 1:])

    def is_public_suffix(self, fqdn: str) -> bool:
        """True when ``fqdn`` exactly equals a public suffix."""
        labels, suffix_len = self._split_labels(fqdn)
        return bool(labels) and suffix_len == len(labels)

    def split(self, fqdn: str) -> tuple[str, str, str]:
        """Split ``fqdn`` into ``(subdomains, mld, public_suffix)``.

        ``subdomains`` and either remaining part may be empty strings when
        the corresponding component is absent.
        """
        labels, suffix_len = self._split_labels(fqdn)
        boundary = len(labels) - suffix_len
        suffix = ".".join(labels[boundary:])
        if boundary == 0:
            return "", "", suffix
        return ".".join(labels[:boundary - 1]), labels[boundary - 1], suffix


def _longest_match(rules: set[tuple[str, ...]], labels: tuple[str, ...]) -> int:
    """Label count of the longest rule in ``rules`` matching ``labels``.

    Each suffix of ``labels`` is looked up, longest first, as itself and
    with its left-most label as the wildcard; 0 when none matches.
    """
    for start in range(len(labels)):
        tail = labels[start:]
        if tail in rules or ("*",) + tail[1:] in rules:
            return len(tail)
    return 0


def _normalize(fqdn: str) -> tuple[str, ...]:
    """Lower-case and split an FQDN into labels, dropping empty labels."""
    fqdn = fqdn.strip().strip(".").lower()
    if not fqdn:
        return ()
    return tuple(label for label in fqdn.split(".") if label)


@lru_cache(maxsize=1)
def default_psl() -> PublicSuffixList:
    """Return the process-wide :class:`PublicSuffixList` built from the snapshot."""
    return PublicSuffixList()
