"""Boundary classification and decisions.

The edge tests walk every reserved range boundary plus/minus one
address; the lattice tests enumerate the full class product against an
independently written rank table.
"""

import ipaddress
import socket
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from webshield import nbs
from webshield.nbs import (
    AddressClass,
    BoundaryDecision,
    Decision,
    LearnCache,
    NbsMode,
    classify_address,
    crosses_boundary,
    decide,
    gate,
    parse_ip,
    split_authority,
)

REPRESENTATIVE = {
    AddressClass.LOOPBACK: "127.0.0.1",
    AddressClass.PRIVATE: "10.1.2.3",
    AddressClass.LINK_LOCAL: "169.254.1.1",
    AddressClass.UNIQUE_LOCAL: "fd00::1",
    AddressClass.UNSPECIFIED: "0.0.0.0",
    AddressClass.PUBLIC: "93.184.216.34",
}

# independent statement of the ordering used by the lattice tests
ORACLE_RANK = {
    AddressClass.PUBLIC: 2,
    AddressClass.PRIVATE: 1,
    AddressClass.UNIQUE_LOCAL: 1,
    AddressClass.LINK_LOCAL: 1,
    AddressClass.LOOPBACK: 0,
    AddressClass.UNSPECIFIED: 0,
}


def oracle_crosses(src, dst):
    return dst is AddressClass.UNSPECIFIED or ORACLE_RANK[src] > ORACLE_RANK[dst]


class TestClassify:
    @pytest.mark.parametrize(
        "ip,expected",
        [
            ("127.0.0.1", AddressClass.LOOPBACK),
            ("127.255.255.255", AddressClass.LOOPBACK),
            ("0.0.0.0", AddressClass.UNSPECIFIED),
            ("10.1.2.3", AddressClass.PRIVATE),
            ("172.16.0.1", AddressClass.PRIVATE),
            ("192.168.1.5", AddressClass.PRIVATE),
            ("169.254.7.7", AddressClass.LINK_LOCAL),
            ("8.8.8.8", AddressClass.PUBLIC),
            ("::1", AddressClass.LOOPBACK),
            ("::", AddressClass.UNSPECIFIED),
            ("fe80::1", AddressClass.LINK_LOCAL),
            ("fc00::1", AddressClass.UNIQUE_LOCAL),
            ("fd12:3456::1", AddressClass.UNIQUE_LOCAL),
            ("2606:2800:220:1::1", AddressClass.PUBLIC),
            # v6 addresses embedding v4: NAT64 (64:ff9b::/96) and 6to4 (2002::/16)
            ("64:ff9b::7f00:1", AddressClass.LOOPBACK),
            ("64:ff9b::a00:1", AddressClass.PRIVATE),
            ("64:ff9b::a9fe:101", AddressClass.LINK_LOCAL),
            ("64:ff9b::5db8:d822", AddressClass.PUBLIC),
            ("64:ff9b::", AddressClass.UNSPECIFIED),
            ("64:ff9b:1::7f00:1", AddressClass.PUBLIC),
            ("2002:7f00:1::", AddressClass.LOOPBACK),
            ("2002:c0a8:105::1", AddressClass.PRIVATE),
            ("2002:5db8:d822::1", AddressClass.PUBLIC),
            ("0.0.0.1", AddressClass.PUBLIC),
            ("::2", AddressClass.PUBLIC),
        ],
    )
    def test_examples(self, ip, expected):
        assert classify_address(ip) is expected

    def test_malformed_rejected(self):
        for bad in ["not-an-ip", "256.1.1.1", "10.0.0", "", "fe80:::1"]:
            with pytest.raises(ValueError):
                classify_address(bad)

    def test_v4_mapped_v6_classifies_as_embedded_v4(self):
        assert classify_address("::ffff:127.0.0.1") is AddressClass.LOOPBACK
        assert classify_address("::ffff:10.0.0.1") is AddressClass.PRIVATE

    @pytest.mark.parametrize(
        "network,expected",
        [
            ("127.0.0.0/8", AddressClass.LOOPBACK),
            ("10.0.0.0/8", AddressClass.PRIVATE),
            ("172.16.0.0/12", AddressClass.PRIVATE),
            ("192.168.0.0/16", AddressClass.PRIVATE),
            ("169.254.0.0/16", AddressClass.LINK_LOCAL),
            ("fe80::/10", AddressClass.LINK_LOCAL),
            ("fc00::/7", AddressClass.UNIQUE_LOCAL),
        ],
    )
    def test_range_edges(self, network, expected):
        net = ipaddress.ip_network(network)
        first, last = net[0], net[-1]
        assert classify_address(first) is expected
        assert classify_address(last) is expected
        # one address outside each edge must not classify into the range
        below = first - 1
        above = last + 1
        for neighbour in (below, above):
            if int(neighbour) < 0:
                continue
            got = classify_address(neighbour)
            assert got is not expected or neighbour in net

    def test_accepts_ip_objects(self):
        assert classify_address(ipaddress.ip_address("127.0.0.1")) is AddressClass.LOOPBACK

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300)
    def test_total_over_v4(self, raw):
        assert isinstance(classify_address(ipaddress.IPv4Address(raw)), AddressClass)

    @given(st.integers(min_value=0, max_value=2**128 - 1))
    @settings(max_examples=300)
    def test_total_over_v6(self, raw):
        assert isinstance(classify_address(ipaddress.IPv6Address(raw)), AddressClass)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @example(0)
    @example(0x7F000001)
    @settings(max_examples=300)
    def test_embedded_v4_classifies_as_the_v4_address(self, v):
        """v4-mapped (::ffff:v), NAT64 (64:ff9b::v) and 6to4 (2002:v::)."""
        expected = classify_address(ipaddress.IPv4Address(v))
        for embedded in ((0xFFFF << 32) | v, (0x64FF9B << 96) | v, (0x2002 << 112) | (v << 80)):
            assert classify_address(ipaddress.IPv6Address(embedded)) is expected


class TestCrossesBoundary:
    def test_public_to_loopback_crosses(self):
        assert crosses_boundary(AddressClass.PUBLIC, AddressClass.LOOPBACK)

    def test_private_to_private_does_not(self):
        assert not crosses_boundary(AddressClass.PRIVATE, AddressClass.PRIVATE)

    def test_loopback_to_public_does_not(self):
        assert not crosses_boundary(AddressClass.LOOPBACK, AddressClass.PUBLIC)

    def test_private_to_loopback_crosses(self):
        assert crosses_boundary(AddressClass.PRIVATE, AddressClass.LOOPBACK)

    def test_unspecified_destination_always_crosses(self):
        for src in AddressClass:
            assert crosses_boundary(src, AddressClass.UNSPECIFIED)

    def test_full_lattice(self):
        for src in AddressClass:
            for dst in AddressClass:
                assert crosses_boundary(src, dst) == oracle_crosses(src, dst)


class TestLearnCache:
    def test_lookup_miss(self):
        assert LearnCache().lookup("nobody.example") is None

    def test_learn_and_lookup(self):
        cache = LearnCache()
        cache.learn("printer.example", classify_address("192.168.1.5"))
        assert cache.lookup("printer.example") is AddressClass.PRIVATE

    def test_last_write_wins(self):
        cache = LearnCache()
        cache.learn("rebind.example", classify_address("93.184.216.34"))
        cache.learn("rebind.example", classify_address("127.0.0.1"))
        assert cache.lookup("rebind.example") is AddressClass.LOOPBACK

    def test_learn_returns_the_class_it_replaced(self):
        cache = LearnCache()
        assert cache.learn("Site.Example", AddressClass.PUBLIC) is None
        assert cache.learn("site.example", AddressClass.LOOPBACK) is AddressClass.PUBLIC

    def test_hostname_case_insensitive(self):
        cache = LearnCache()
        cache.learn("CamelCase.Example", classify_address("10.0.0.1"))
        assert cache.lookup("camelcase.example") is AddressClass.PRIVATE

    def test_lookup_never_mutates(self):
        cache = LearnCache()
        cache.lookup("ghost.example")
        assert len(cache) == 0

    def test_oldest_host_evicted_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(nbs, "MAX_LEARNED_HOSTS", 2)
        cache = LearnCache()
        for host in ("first.example", "second.example", "third.example"):
            cache.learn(host, AddressClass.LOOPBACK)
        assert len(cache) == 2
        assert cache.lookup("first.example") is None
        first = decide(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "first.example", None, cache)
        assert first.value is Decision.ALLOW_AND_LEARN  # a first contact again
        assert cache.learn("third.example", AddressClass.PUBLIC) is AddressClass.LOOPBACK
        assert cache.lookup("second.example") is AddressClass.LOOPBACK  # relearning evicts none


class TestDecide:
    def test_preresolve_blocks_crossing(self):
        decision = decide(
            NbsMode.PRE_RESOLVE, AddressClass.PUBLIC, "printer.local", "192.168.1.5"
        )
        assert decision.value is Decision.BLOCK
        assert "public" in decision.reason and "private" in decision.reason

    def test_preresolve_allows_public(self):
        decision = decide(
            NbsMode.PRE_RESOLVE, AddressClass.PUBLIC, "site.example", "93.184.216.34"
        )
        assert decision.value is Decision.ALLOW

    def test_preresolve_requires_resolution(self):
        with pytest.raises(ValueError):
            decide(NbsMode.PRE_RESOLVE, AddressClass.PUBLIC, "site.example", None)

    def test_learn_first_contact_allows_and_learns(self):
        decision = decide(
            NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "evil.example", None, LearnCache()
        )
        assert decision.value is Decision.ALLOW_AND_LEARN

    def test_learn_cached_crossing_blocks(self):
        cache = LearnCache()
        cache.learn("evil.example", classify_address("127.0.0.1"))
        decision = decide(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "evil.example", None, cache)
        assert decision.value is Decision.BLOCK
        assert "loopback" in decision.reason

    def test_learn_literal_ip_decided_directly(self):
        decision = decide(
            NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "127.0.0.1", None, LearnCache()
        )
        assert decision.value is Decision.BLOCK
        allowed = decide(
            NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "8.8.8.8", None, LearnCache()
        )
        assert allowed.value is Decision.ALLOW

    def test_learn_literal_v6_with_brackets(self):
        decision = decide(
            NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "[::1]", None, LearnCache()
        )
        assert decision.value is Decision.BLOCK

    def test_dns_rebinding_sequence(self):
        # hostname starts public, then re-resolves to loopback
        cache = LearnCache()
        first = decide(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "spy.example", None, cache)
        assert first.value is Decision.ALLOW_AND_LEARN
        cache.learn("spy.example", classify_address("93.184.216.34"))
        second = decide(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "spy.example", None, cache)
        assert second.value is Decision.ALLOW
        cache.learn("spy.example", classify_address("127.0.0.1"))
        third = decide(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "spy.example", None, cache)
        assert third.value is Decision.BLOCK

    def test_unspecified_reason_names_dns_filtering(self):
        cache = LearnCache()
        cache.learn("blocked.example", classify_address("0.0.0.0"))
        decision = decide(
            NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "blocked.example", None, cache
        )
        assert decision.value is Decision.BLOCK
        assert "DNS" in decision.reason

    def test_block_reasons_name_both_classes(self):
        for src in AddressClass:
            for dst, ip in REPRESENTATIVE.items():
                decision = decide(NbsMode.PRE_RESOLVE, src, "host.example", ip)
                if decision.value is Decision.BLOCK and dst is not AddressClass.UNSPECIFIED:
                    assert src.value in decision.reason
                    assert dst.value in decision.reason

    def test_purity(self):
        cache = LearnCache()
        cache.learn("x.example", classify_address("10.0.0.1"))
        args = (NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "x.example", None, cache)
        assert decide(*args) == decide(*args)

    def test_full_truth_table(self):
        # every (mode, class pair, cache state) combination
        for src in AddressClass:
            for dst, ip in REPRESENTATIVE.items():
                expected = Decision.BLOCK if oracle_crosses(src, dst) else Decision.ALLOW
                # preresolve with the address resolved
                got = decide(NbsMode.PRE_RESOLVE, src, "host.example", ip)
                assert got.value is expected, (src, dst, "preresolve")
                # learn mode with a literal IP target
                got = decide(NbsMode.LEARN_ON_REPLY, src, ip, None, LearnCache())
                assert got.value is expected, (src, dst, "literal")
                # learn mode with a cache hit
                cache = LearnCache()
                cache.learn("host.example", classify_address(ip))
                got = decide(NbsMode.LEARN_ON_REPLY, src, "host.example", None, cache)
                assert got.value is expected, (src, dst, "cached")
            # learn mode with a cache miss is always allow-and-learn
            got = decide(NbsMode.LEARN_ON_REPLY, src, "host.example", None, LearnCache())
            assert got.value is Decision.ALLOW_AND_LEARN

    def test_target_names_the_class_decided_on(self):
        for src in AddressClass:
            for dst, ip in REPRESENTATIVE.items():
                cache = LearnCache()
                cache.learn("host.example", classify_address(ip))
                for got in (
                    decide(NbsMode.PRE_RESOLVE, src, "host.example", ip),
                    decide(NbsMode.LEARN_ON_REPLY, src, ip, None, LearnCache()),
                    decide(NbsMode.LEARN_ON_REPLY, src, "host.example", None, cache),
                ):
                    assert got.value in (Decision.ALLOW, Decision.BLOCK)
                    assert got.target is dst
            first = decide(NbsMode.LEARN_ON_REPLY, src, "host.example", None, LearnCache())
            assert first.value is Decision.ALLOW_AND_LEARN
            assert first.target is None

    def test_allow_reasons(self):
        cache = LearnCache()
        cache.learn("site.example", classify_address("93.184.216.34"))
        assert decide(
            NbsMode.PRE_RESOLVE, AddressClass.PUBLIC, "site.example", "93.184.216.34"
        ).reason == "public -> public: no crossing"
        assert decide(
            NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "site.example", None, cache
        ).reason == "public -> learned public: no crossing"

    def test_block_decision_reason_nonempty(self):
        decision = decide(NbsMode.PRE_RESOLVE, AddressClass.PUBLIC, "x", "127.0.0.1")
        assert isinstance(decision, BoundaryDecision)
        assert decision.reason


class TestSplitAuthority:
    @pytest.mark.parametrize(
        "authority,expected",
        [
            ("site.example", ("site.example", 80)),
            ("site.example:8080", ("site.example", 8080)),
            ("127.0.0.1:1", ("127.0.0.1", 1)),
            ("[::1]", ("::1", 80)),
            ("[::1]:65535", ("::1", 65535)),
        ],
    )
    def test_forms(self, authority, expected):
        assert split_authority(authority, 80) == expected

    @pytest.mark.parametrize(
        "authority",
        ["site.example:abc", "site.example:0", "site.example:70000",
         "site.example:+1", "[::1]:x", "[::1]x", "::1"],
    )
    def test_bad_port_rejected(self, authority):
        with pytest.raises(ValueError):
            split_authority(authority, 80)

    @pytest.mark.parametrize(
        "authority",
        ["user@127.0.0.1:80", "user:secret@site.example", "@site.example", "site.example@",
         "[::1]@x:80"],
    )
    def test_userinfo_rejected(self, authority):
        with pytest.raises(ValueError, match="userinfo"):
            split_authority(authority, 80)


AUTHORITY_TEXT = st.text(alphabet="[]:.%0123456789abcdefx") | st.text()


class TestParserProperties:
    @given(AUTHORITY_TEXT)
    @example("")
    @example("[]:80")
    @example("[::1")
    @example("[::1]80")
    @example("x..y")
    @example(".example")
    @example("a" * 64 + ".com")
    @settings(max_examples=200, deadline=None)
    def test_split_authority_gives_host_and_port_or_value_error(self, authority):
        try:
            host, port = split_authority(authority, 80)
        except ValueError:
            return
        assert host and type(port) is int and 0 < port < 65536
        host.encode("idna")  # the resolver can take it
        # the authority is the host as written, then nothing or ":port"
        written = f"[{host}]" if authority.startswith("[") else host
        assert authority.startswith(written)
        rest = authority[len(written):]
        assert rest[:1] in ("", ":") and port == int(rest[1:] or 80)

    @given(AUTHORITY_TEXT)
    @example("")
    @example("[]:80")
    @example("[::1")
    @settings(max_examples=200, deadline=None)
    def test_parse_ip_gives_address_or_value_error(self, value):
        try:
            ip = parse_ip(value)
        except ValueError:
            return
        assert isinstance(ip, (ipaddress.IPv4Address, ipaddress.IPv6Address))


class TestGate:
    def test_one_crossing_address_blocks(self, mixed_resolver):
        decision, address = gate(
            NbsMode.PRE_RESOLVE, AddressClass.PUBLIC, mixed_resolver, 80, LearnCache()
        )
        assert decision.value is Decision.BLOCK
        assert decision.target is AddressClass.LOOPBACK
        assert address is None

    def test_first_address_decides_and_is_connected_to(self, mixed_resolver):
        decision, address = gate(
            NbsMode.PRE_RESOLVE, AddressClass.LOOPBACK, mixed_resolver, 8080, LearnCache()
        )
        assert decision.value is Decision.ALLOW
        assert decision.reason == "loopback -> public: no crossing"
        assert decision.target is AddressClass.PUBLIC
        assert address == ("93.184.216.34", 8080)

    def test_ipv4_first(self, monkeypatch):
        infos = [
            (socket.AF_INET6, socket.SOCK_STREAM, 6, "", ("::1", 80, 0, 0)),
            (socket.AF_INET, socket.SOCK_STREAM, 6, "", ("10.0.0.1", 80)),
        ]
        monkeypatch.setattr(socket, "getaddrinfo", lambda *a, **k: list(infos))
        decision, address = gate(
            NbsMode.PRE_RESOLVE, AddressClass.LOOPBACK, "dual.example", 80, LearnCache()
        )
        assert decision.target is AddressClass.PRIVATE
        assert address == ("10.0.0.1", 80)

    def test_resolver_failure_raises(self):
        with pytest.raises(OSError):
            gate(NbsMode.PRE_RESOLVE, AddressClass.PUBLIC, "no-such-host.invalid", 80,
                 LearnCache())

    def test_learn_mode_connects_to_the_resolved_address_and_learns_it(self, monkeypatch):
        infos = [(socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", 443))]
        monkeypatch.setattr(socket, "getaddrinfo", lambda *a, **k: list(infos))
        cache = LearnCache()
        first, address = gate(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "new.example",
                              443, cache)
        assert first.value is Decision.ALLOW_AND_LEARN
        assert address == ("127.0.0.1", 443)
        assert cache.lookup("new.example") is AddressClass.LOOPBACK
        blocked, address = gate(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "new.example",
                                443, cache)
        assert blocked.value is Decision.BLOCK
        assert address is None

    def test_learn_mode_public_first_contact_says_no_crossing(self, monkeypatch):
        infos = [(socket.AF_INET, socket.SOCK_STREAM, 6, "", ("93.184.216.34", 80))]
        monkeypatch.setattr(socket, "getaddrinfo", lambda *a, **k: list(infos))
        decision, address = gate(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "pub.example",
                                 80, LearnCache())
        assert (decision.value, decision.target) == (Decision.ALLOW_AND_LEARN, None)
        assert decision.reason == (
            "first contact with 'pub.example'; learned public before the connect: no crossing"
        )
        assert address == ("93.184.216.34", 80)

    def test_learn_mode_block_needs_no_resolver(self, monkeypatch):
        def no_resolver(*args, **kwargs):
            raise AssertionError("a cached block must not resolve")

        monkeypatch.setattr(socket, "getaddrinfo", no_resolver)
        cache = LearnCache()
        cache.learn("evil.example", AddressClass.LOOPBACK)
        for host in ("evil.example", "127.0.0.1"):
            decision, address = gate(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, host, 80,
                                     cache)
            assert (decision.value, address) == (Decision.BLOCK, None)

    def test_learn_mode_rebind_decided_on_the_new_address(self, monkeypatch):
        infos = [(socket.AF_INET, socket.SOCK_STREAM, 6, "", ("10.0.0.7", 80))]
        monkeypatch.setattr(socket, "getaddrinfo", lambda *a, **k: list(infos))
        cache = LearnCache()
        cache.learn("spy.example", AddressClass.PUBLIC)
        decision, address = gate(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "spy.example",
                                 80, cache)
        assert decision.value is Decision.BLOCK
        assert decision.target is AddressClass.PRIVATE
        assert address is None
        assert cache.lookup("spy.example") is AddressClass.PRIVATE

    def test_concurrent_first_contacts_learn_once(self, monkeypatch):
        barrier = threading.Barrier(4, timeout=2)

        def resolver(host, port, *args, **kwargs):  # every lookup waits for all four
            barrier.wait()
            return [(socket.AF_INET, socket.SOCK_STREAM, 6, "", ("127.0.0.1", port))]

        monkeypatch.setattr(socket, "getaddrinfo", resolver)
        cache = LearnCache()
        decisions = []

        def contact():
            decision, _ = gate(NbsMode.LEARN_ON_REPLY, AddressClass.PUBLIC, "race.example",
                               80, cache)
            decisions.append(decision.value.value)

        threads = [threading.Thread(target=contact) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5)
        assert sorted(decisions) == ["AllowAndLearn"] + ["Block"] * 3
