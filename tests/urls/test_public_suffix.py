"""Tests for the public-suffix rules engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.urls.public_suffix import PublicSuffixList, _normalize, default_psl
from repro.urls.suffix_data import iter_snapshot_rules
from tests.core.test_batch_differential import _HOST


@pytest.fixture(scope="module")
def psl():
    return default_psl()


class TestPublicSuffix:
    def test_simple_tld(self, psl):
        assert psl.public_suffix("example.com") == "com"

    def test_second_level_rule(self, psl):
        assert psl.public_suffix("www.amazon.co.uk") == "co.uk"

    def test_deep_subdomains(self, psl):
        assert psl.public_suffix("a.b.c.d.example.org") == "org"

    def test_wildcard_rule(self, psl):
        # *.ck makes any second-level label part of the suffix.
        assert psl.public_suffix("foo.bar.ck") == "bar.ck"

    def test_exception_rule(self, psl):
        # !www.ck overrides the *.ck wildcard.
        assert psl.public_suffix("www.ck") == "ck"
        assert psl.registered_domain("foo.www.ck") == "www.ck"

    def test_unknown_tld_falls_back_to_last_label(self, psl):
        assert psl.public_suffix("host.unknowntld") == "unknowntld"
        assert psl.registered_domain("host.unknowntld") == "host.unknowntld"

    def test_private_hosting_rule(self, psl):
        assert psl.public_suffix("me.github.io") == "github.io"
        assert psl.registered_domain("a.b.github.io") == "b.github.io"


class TestRegisteredDomain:
    def test_basic(self, psl):
        assert psl.registered_domain("www.example.com") == "example.com"

    def test_bare_suffix_has_no_rdn(self, psl):
        assert psl.registered_domain("com") is None
        assert psl.registered_domain("co.uk") is None

    def test_empty_input(self, psl):
        assert psl.registered_domain("") is None

    def test_case_and_trailing_dot_insensitive(self, psl):
        assert psl.registered_domain("WWW.Example.COM.") == "example.com"


class TestSplit:
    def test_full_split(self, psl):
        assert psl.split("www.amazon.co.uk") == ("www", "amazon", "co.uk")

    def test_no_subdomains(self, psl):
        assert psl.split("amazon.co.uk") == ("", "amazon", "co.uk")

    def test_suffix_only(self, psl):
        assert psl.split("co.uk") == ("", "", "co.uk")

    def test_multiple_subdomains(self, psl):
        subdomains, mld, suffix = psl.split("a.b.c.example.com")
        assert (subdomains, mld, suffix) == ("a.b.c", "example", "com")

    def test_empty(self, psl):
        assert psl.split("") == ("", "", "")


class TestIsPublicSuffix:
    def test_positive(self, psl):
        assert psl.is_public_suffix("co.uk")
        assert psl.is_public_suffix("com")

    def test_negative(self, psl):
        assert not psl.is_public_suffix("example.com")
        assert not psl.is_public_suffix("")


class TestCustomRules:
    def test_custom_rule_set(self):
        custom = PublicSuffixList(["com", "*.example", "!special.example"])
        # Wildcard: any label under .example is a suffix...
        assert custom.public_suffix("www.shop.example") == "shop.example"
        # ...except the exception rule, which registers at special.example.
        assert custom.public_suffix("special.example") == "example"
        assert custom.registered_domain("x.special.example") == "special.example"

    def test_exception_prevails_over_longer_rule(self):
        custom = PublicSuffixList(["ck", "!www.ck", "deep.www.ck"])
        assert custom.public_suffix("a.deep.www.ck") == "ck"
        assert custom.registered_domain("a.deep.www.ck") == "www.ck"

    def test_wildcard_only_as_left_most_label(self):
        PublicSuffixList(["*.example", "!a.example"])
        for rule in ("shop.*.example", "example.*", "!a.*.example"):
            with pytest.raises(ValueError):
                PublicSuffixList([rule])

    def test_len_counts_rules(self):
        assert len(PublicSuffixList(["com", "net"])) == 2

    def test_default_is_cached(self):
        assert default_psl() is default_psl()


class _ScanReference:
    """The rule scan the engine ran before its set lookup; the reference.

    Every rule sharing the host's last label is tested label by label;
    the longest matching exception prevails, else the longest match.
    """

    def __init__(self, raw_rules):
        self.by_tld = {}
        for raw in raw_rules:
            exception = raw.startswith("!")
            labels = tuple((raw[1:] if exception else raw).lower().split("."))
            self.by_tld.setdefault(labels[-1], []).append((labels, exception))

    def public_suffix(self, fqdn):
        labels = _normalize(fqdn)
        if not labels:
            return ""
        matching = [
            (rule, exception)
            for rule, exception in self.by_tld.get(labels[-1], ())
            if len(rule) <= len(labels) and all(
                rule_label in ("*", label)
                for rule_label, label in zip(reversed(rule), reversed(labels))
            )
        ]
        exceptions = [len(rule) - 1 for rule, exception in matching if exception]
        length = (
            max(exceptions) if exceptions
            else max((len(rule) for rule, _ in matching), default=1)
        )
        length = min(length, len(labels))
        return ".".join(labels[len(labels) - length:])

    def registered_domain(self, fqdn):
        labels = _normalize(fqdn)
        if not labels:
            return None
        suffix = self.public_suffix(fqdn)
        suffix_len = len(suffix.split(".")) if suffix else 0
        if suffix_len >= len(labels):
            return None
        return ".".join(labels[len(labels) - suffix_len - 1:])

    def is_public_suffix(self, fqdn):
        labels = _normalize(fqdn)
        return bool(labels) and ".".join(labels) == self.public_suffix(fqdn)

    def split(self, fqdn):
        labels = _normalize(fqdn)
        if not labels:
            return "", "", ""
        suffix = self.public_suffix(fqdn)
        suffix_len = len(suffix.split(".")) if suffix else 0
        remainder = labels[: len(labels) - suffix_len]
        if not remainder:
            return "", "", suffix
        return ".".join(remainder[:-1]), remainder[-1], suffix


def _answers(psl, host):
    return (
        psl.public_suffix(host), psl.registered_domain(host),
        psl.is_public_suffix(host), psl.split(host),
    )


_SNAPSHOT_RULES = list(iter_snapshot_rules())
_REFERENCE = _ScanReference(_SNAPSHOT_RULES)
#: Every snapshot rule as a host (exception mark dropped, wildcard
#: filled in), with zero, one and two labels prepended.
_RULE_HOSTS = [
    prefix + raw.lstrip("!").replace("*", "wild")
    for raw in _SNAPSHOT_RULES
    for prefix in ("", "shop.", "www.shop.")
]


class TestLookupMatchesScan:
    def test_every_snapshot_rule(self, psl):
        for host in _RULE_HOSTS:
            assert _answers(psl, host) == _answers(_REFERENCE, host), host

    @given(st.one_of(
        _HOST,
        st.builds("{}.{}".format, _HOST, st.sampled_from(_RULE_HOSTS)),
    ))
    @settings(max_examples=300, deadline=None)
    def test_generated_hosts(self, psl, host):
        assert _answers(psl, host) == _answers(_REFERENCE, host)
