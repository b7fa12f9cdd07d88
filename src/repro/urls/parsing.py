"""URL decomposition following Section II-B of the paper (Fig. 1).

A URL is split as::

    protocol://[subdomains.]mld.ps[/path][?query]
               \\________FQDN_________/
                          \\__RDN__/
    FreeURL = subdomains + path + query

The registered domain name (RDN) is constrained — the phisher must register
it — while the *FreeURL* components (subdomains, path, query) are fully
under the page owner's control.  IP-based URLs have no domain structure:
``rdn``, ``mld`` and ``public_suffix`` are ``None`` for them, which is
exactly the degenerate case discussed in Section VII-B of the paper.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from repro.urls.public_suffix import PublicSuffixList, default_psl


class UrlParseError(ValueError):
    """Raised when a string cannot be interpreted as a URL."""


_SCHEME_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*://")
_HOST_LABEL_RE = re.compile(r"^[a-z0-9_](?:[a-z0-9_-]*[a-z0-9_])?$", re.IGNORECASE)


@dataclass(frozen=True)
class ParsedUrl:
    """Structured view of a URL with the paper's component model.

    Attributes
    ----------
    raw:
        The original URL string.
    protocol:
        URL scheme, e.g. ``"https"``.
    fqdn:
        The fully qualified domain name (or the textual IP address for
        IP-based URLs).
    port:
        Explicit port, or ``None``.
    path, query, fragment:
        Standard URL components (possibly empty strings).
    is_ip:
        True when the host is an IPv4/IPv6 address rather than a domain.
    subdomains:
        The prefix of the FQDN before the RDN (``""`` when absent).
    mld:
        Main level domain — the registrable label left of the public suffix.
    public_suffix:
        The public suffix (e.g. ``"co.uk"``).
    rdn:
        Registered domain name, ``mld + "." + public_suffix``.
    """

    raw: str
    protocol: str
    fqdn: str
    port: int | None
    path: str
    query: str
    fragment: str
    is_ip: bool
    subdomains: str
    mld: str | None
    public_suffix: str | None
    rdn: str | None = field(default=None)

    @property
    def free_url(self) -> str:
        """The phisher-controlled URL parts: subdomains, path and query."""
        parts = []
        if self.subdomains:
            parts.append(self.subdomains)
        if self.path and self.path != "/":
            parts.append(self.path)
        if self.query:
            parts.append(self.query)
        return " ".join(parts)

    @property
    def level_domain_count(self) -> int:
        """Number of dot-separated labels in the FQDN (0 for IP hosts)."""
        if self.is_ip or not self.fqdn:
            return 0
        return len([label for label in self.fqdn.split(".") if label])

    @property
    def uses_https(self) -> bool:
        """True when the URL is served over HTTPS."""
        return self.protocol == "https"

    def same_rdn(self, other: "ParsedUrl") -> bool:
        """True when both URLs share a (non-null) registered domain."""
        return self.rdn is not None and self.rdn == other.rdn

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.raw


#: Shape pre-filter for the ``ipaddress`` probe: a textual IPv4 address
#: is digits and dots only, a textual IPv6 address holds a colon
#: (bracketed or not).  Any other host would make ``ip_address`` raise,
#: so skipping the probe returns the same ``False`` without paying for
#: a raised-and-caught ``ValueError``.
_IP_SHAPE_RE = re.compile(r"^[0-9.]+$|[:\[]")


def _is_ip_address(host: str) -> bool:
    if not _IP_SHAPE_RE.search(host):
        return False
    candidate = host[1:-1] if host.startswith("[") and host.endswith("]") else host
    try:
        ipaddress.ip_address(candidate)
    except ValueError:
        return False
    return True


def _host_fields(host: str, psl: PublicSuffixList):
    """What a normalised host contributes to a :class:`ParsedUrl`.

    ``(is_ip, subdomains, mld, public_suffix, rdn)`` for a valid host;
    for an invalid one, its first bad label (a ``str``), so a memoized
    failure still raises with the URL at hand.
    """
    if _is_ip_address(host):
        return (True, "", None, None, None)
    for label in host.split("."):
        if not _HOST_LABEL_RE.match(label):
            return label
    subdomains, mld, suffix = psl.split(host)
    rdn = f"{mld}.{suffix}" if mld and suffix else (mld or None)
    return (False, subdomains, mld or None, suffix or None, rdn)


def _host_and_port(netloc: str) -> tuple[str, int | None]:
    """Host and port of a netloc, as ``SplitResult.hostname``/``.port``.

    Those properties re-split the netloc on every read; this splits it
    once.  The host is returned as written (``""`` when absent) for the
    caller to lower-case, and a port that ``.port`` would reject with
    ``ValueError`` (not ASCII digits, above 65535, or too long for
    ``int``) is ``None``.
    """
    hostinfo = netloc.rpartition("@")[2]
    _, bracket, bracketed = hostinfo.partition("[")
    if bracket:
        host, _, after = bracketed.partition("]")
        port = after.partition(":")[2]
    else:
        host, _, port = hostinfo.partition(":")
    if not (port.isdigit() and port.isascii()):
        return host, None
    try:
        number = int(port)
    except ValueError:  # more digits than int() converts, as in .port
        return host, None
    return host, (number if number <= 65535 else None)


def parse_url(
    url: str,
    psl: PublicSuffixList | None = None,
    hosts: dict | None = None,
) -> ParsedUrl:
    """Parse ``url`` into a :class:`ParsedUrl`.

    A missing scheme defaults to ``http`` (mirroring browser behaviour for
    URLs pasted into the address bar).  Raises :class:`UrlParseError` for
    strings with no usable host.

    ``hosts`` is an optional memo owned by the caller: a dict from
    normalised host to the result of its IP probe, label check and PSL
    split, read and filled here.  Those results depend only on the host
    and ``psl``, so a memo changes no output as long as every call that
    shares it passes the same ``psl``; link URLs concentrate on few
    hosts, so a batch that shares one skips most of that work.
    """
    if psl is None:
        psl = default_psl()
    if not isinstance(url, str) or not url.strip():
        raise UrlParseError(f"empty or non-string URL: {url!r}")
    url = url.strip()
    if not _SCHEME_RE.match(url):
        url = "http://" + url
    try:
        split = urlsplit(url)
    except ValueError as exc:
        raise UrlParseError(f"malformed URL {url!r}: {exc}") from exc

    hostname, port = _host_and_port(split.netloc)
    host = hostname.strip().strip(".").lower()
    if not host:
        raise UrlParseError(f"URL has no host: {url!r}")
    fields = None if hosts is None else hosts.get(host)
    if fields is None:
        fields = _host_fields(host, psl)
        if hosts is not None:
            hosts[host] = fields
    if isinstance(fields, str):
        raise UrlParseError(f"invalid host label {fields!r} in {url!r}")

    is_ip, subdomains, mld, suffix, rdn = fields
    return ParsedUrl(
        raw=url,
        protocol=split.scheme.lower(),
        fqdn=host,
        port=port,
        path=split.path or "",
        query=split.query or "",
        fragment=split.fragment or "",
        is_ip=is_ip,
        subdomains=subdomains,
        mld=mld,
        public_suffix=suffix,
        rdn=rdn,
    )
