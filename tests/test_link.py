"""Unit tests for links and link types (Definition 2)."""

import threading
import tracemalloc

import pytest

from repro.core.atom import Atom
from repro.core.link import Cardinality, Link, LinkType
from repro.exceptions import CardinalityError, DanglingLinkError, SchemaError


class TestLink:
    def test_unsorted_pair_equality(self):
        assert Link("l", "a", "b") == Link("l", "b", "a")
        assert hash(Link("l", "a", "b")) == hash(Link("l", "b", "a"))

    def test_different_link_types_not_equal(self):
        assert Link("l1", "a", "b") != Link("l2", "a", "b")

    def test_connects_and_other(self):
        link = Link("l", "a", "b")
        assert link.connects("a") and link.connects("b")
        assert link.other("a") == "b"
        assert link.other("b") == "a"
        with pytest.raises(DanglingLinkError):
            link.other("c")

    def test_self_loop_other(self):
        link = Link("l", "a", "a")
        assert link.other("a") == "a"

    def test_given_order_preserved(self):
        link = Link("l", "parent", "child")
        assert link.given_order == ("parent", "child")

    def test_endpoint_of_type_with_atoms(self):
        parent = Atom("author", {}, identifier="a1")
        child = Atom("book", {}, identifier="b1")
        link = Link("wrote", parent, child)
        assert link.endpoint_of_type("author") == "a1"
        assert link.endpoint_of_type("book") == "b1"
        assert link.endpoint_of_type("missing") is None


class TestLinkViews:
    """A link stores two identifiers and a type pair; identity and the
    derived views keep the unsorted-pair semantics."""

    def test_typed_links_equal_either_way_round(self):
        forward = Link("wrote", "a1", "b1", "author", "book")
        backward = Link("wrote", "b1", "a1", "book", "author")
        assert forward == backward and hash(forward) == hash(backward)
        assert forward == Link("wrote", "b1", "a1")  # types take no part
        assert forward != Link("wrote", "a1", "b2", "author", "book")

    def test_endpoints_sorted_by_type_then_identifier(self):
        link = Link("wrote", "b1", "a1", "book", "author")
        assert link.endpoints == (("author", "a1"), ("book", "b1"))
        assert link.given_order == ("b1", "a1")
        assert link.identifiers == frozenset({"a1", "b1"})
        reflexive = Link("composition", "p2", "p1", "part", "part")
        assert reflexive.endpoints == (("part", "p1"), ("part", "p2"))
        assert Link("l", "b", "a").endpoints == ((None, "a"), (None, "b"))

    def test_reflexive_type_keeps_construction_order(self):
        link_type = LinkType("composition", "part", "part")
        link_type.connect("p2", "p1")
        (stored,) = link_type
        assert stored.given_order == ("p2", "p1")
        assert (stored.first, stored.second) == ("p2", "p1")
        link_type.connect("p1", "p2")  # the same unsorted pair
        assert len(link_type) == 1

    def test_self_loop_on_a_reflexive_type(self):
        link_type = LinkType("composition", "part", "part")
        link = link_type.connect("p1", "p1")
        assert link.other("p1") == "p1" and link.connects("p1")
        assert link_type.partners_of("p1") == frozenset({"p1"})
        link_type.remove(link)
        assert len(link_type) == 0 and not link_type.links_of("p1")

    def test_links_of_one_type_share_one_type_pair(self):
        link_type = LinkType("wrote", "author", "book", [("a1", "b1"), ("a2", "b2")])
        first, second = link_type
        assert first.types == ("author", "book")
        assert first.types is second.types
        assert link_type.link("a3", "b3").types is first.types

    def test_remove_given_the_other_way_round_emits_definition_order(self):
        link_type = LinkType("wrote", "author", "book", [("a1", "b1")])
        events = []
        link_type.events.subscribe(events.append)
        link_type.remove(Link("wrote", "b1", "a1", "book", "author"))
        assert len(link_type) == 0
        (event,) = events
        assert event.link.given_order == ("a1", "b1")


class TestLinkMemory:
    def test_link_has_no_instance_dict(self):
        assert not hasattr(Link("l", "a", "b"), "__dict__")
        assert not hasattr(LinkType("l", "a", "b").link("a1", "b1"), "__dict__")

    def test_bytes_per_link_with_incidence(self):
        """20k links of one non-reflexive type over a ring-like mesh (every
        atom in two links), identifiers built beforehand: the links, the
        occurrence set and the incidence buckets stay within 300 B a link
        (≈ 250 B on CPython 3.11 and 3.12, ≈ 260 B on 3.9)."""
        count = 20_000
        half = count // 2
        authors = [f"a{i}" for i in range(half)]
        books = [f"b{i}" for i in range(half)]
        pairs = [(authors[i % half], books[(i // half + i) % half]) for i in range(count)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            link_type = LinkType("wrote", "author", "book", pairs)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(link_type) == count
        assert grown / count <= 300


class TestIncidenceBuckets:
    """An incidence bucket is a tuple holding each incident link once; a
    write replaces it and never mutates it."""

    def test_shared_identifier_link_is_entered_once(self):
        link_type = LinkType("pc", "p", "c")
        link = link_type.connect("x", "x")  # p:x — c:x
        assert link_type.incident("x") == (link,)
        assert link_type.links_of("x") == {link}
        assert link_type.partners_of("x") == {"x"}
        link_type.remove(link)
        assert "x" not in link_type._by_atom
        assert link_type.incident("x") == ()

    def test_reflexive_self_loop_is_entered_once(self):
        link_type = LinkType("composition", "part", "part")
        loop = link_type.connect("p1", "p1")
        other = link_type.connect("p1", "p2")
        assert link_type.incident("p1") == (loop, other)
        link_type.remove(loop)
        assert link_type.incident("p1") == (other,)
        link_type.remove(other)
        assert link_type._by_atom == {}

    def test_removal_filters_by_link_equality(self):
        link_type = LinkType("wrote", "author", "book")
        kept = link_type.connect("a1", "b1")
        link_type.connect("a1", "b2")
        link_type.remove(Link("wrote", "b2", "a1"))  # the other way round, untyped
        assert link_type.incident("a1") == (kept,)
        assert "b2" not in link_type._by_atom

    def test_removal_emits_the_stored_link_on_a_reflexive_type(self):
        link_type = LinkType("composition", "part", "part", [("super", "sub")])
        events = []
        link_type.events.subscribe(events.append)
        link_type.remove(link_type.link("sub", "super"))  # roles given the other way round
        (event,) = events
        assert event.link.given_order == ("super", "sub")
        assert link_type._by_atom == {}

    def test_a_bucket_handed_out_never_changes(self):
        link_type = LinkType("wrote", "author", "book")
        first = link_type.connect("a1", "b1")
        taken = link_type.incident("a1")

        def write():
            link_type.connect("a1", "b2")
            link_type.remove(first)

        writer = threading.Thread(target=write)
        writer.start()
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert taken == (first,)
        assert link_type.incident("a1") == (link_type.link("a1", "b2"),)
        assert link_type.incident("a1") is link_type._by_atom["a1"]

    def test_one_to_one_over_a_shared_identifier(self):
        link_type = LinkType("pc", "p", "c", cardinality=Cardinality.ONE_TO_ONE)
        link = link_type.connect("x", "x")
        with pytest.raises(CardinalityError):
            link_type.connect("x", "y")  # p:x already participates
        with pytest.raises(CardinalityError):
            link_type.connect("z", "x")  # c:x already participates
        link_type.remove(link)
        link_type.connect("x", "y")
        assert len(link_type) == 1

    def test_one_to_many_over_a_shared_identifier(self):
        link_type = LinkType("pc", "p", "c", cardinality=Cardinality.ONE_TO_MANY)
        link_type.connect("x", "x")
        link_type.connect("x", "y")  # p:x may have many children
        with pytest.raises(CardinalityError):
            link_type.connect("z", "x")  # c:x already has a parent
        assert len(link_type.incident("x")) == 2


class TestLinkType:
    def make(self, cardinality=Cardinality.MANY_TO_MANY):
        return LinkType("wrote", "author", "book", cardinality=cardinality)

    def test_accessors(self):
        link_type = self.make()
        assert link_type.name == "wrote"
        assert link_type.description == frozenset(("author", "book"))
        assert link_type.atom_type_names == ("author", "book")
        assert not link_type.is_reflexive

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            LinkType("", "a", "b")

    def test_reflexive(self):
        link_type = LinkType("composition", "part", "part")
        assert link_type.is_reflexive
        assert link_type.other_type("part") == "part"

    def test_other_type(self):
        link_type = self.make()
        assert link_type.other_type("author") == "book"
        assert link_type.other_type("book") == "author"
        with pytest.raises(SchemaError):
            link_type.other_type("missing")

    def test_connects_type(self):
        link_type = self.make()
        assert link_type.connects_type("author")
        assert not link_type.connects_type("publisher")

    def test_connect_and_contains(self):
        link_type = self.make()
        link = link_type.connect("a1", "b1")
        assert link in link_type
        assert len(link_type) == 1

    def test_connect_idempotent(self):
        link_type = self.make()
        link_type.connect("a1", "b1")
        link_type.connect("b1", "a1")  # unsorted pair — same link
        assert len(link_type) == 1

    def test_links_of_and_partners_of(self):
        link_type = self.make()
        link_type.connect("a1", "b1")
        link_type.connect("a1", "b2")
        assert len(link_type.links_of("a1")) == 2
        assert link_type.partners_of("a1") == frozenset({"b1", "b2"})
        assert link_type.partners_of("unknown") == frozenset()

    def test_remove_link_and_atom(self):
        link_type = self.make()
        link = link_type.connect("a1", "b1")
        link_type.connect("a1", "b2")
        link_type.remove(link)
        assert len(link_type) == 1
        removed = link_type.links_of("a1")
        for link in removed:
            link_type.remove(link)
        assert len(removed) == 1
        assert len(link_type) == 0

    def test_one_to_one_cardinality_enforced(self):
        link_type = self.make(Cardinality.ONE_TO_ONE)
        link_type.connect("a1", "b1")
        with pytest.raises(CardinalityError):
            link_type.connect("a1", "b2")
        with pytest.raises(CardinalityError):
            link_type.connect("a2", "b1")

    def test_one_to_many_cardinality_enforced(self):
        link_type = self.make(Cardinality.ONE_TO_MANY)
        link_type.connect("a1", "b1")
        link_type.connect("a1", "b2")  # one author, many books — fine
        with pytest.raises(CardinalityError):
            link_type.connect("a2", "b1")  # a book may not get a second author

    def test_many_to_many_unrestricted(self):
        link_type = self.make()
        link_type.connect("a1", "b1")
        link_type.connect("a2", "b1")
        link_type.connect("a1", "b2")
        assert len(link_type) == 3

    def test_empty_copy_and_copy(self):
        link_type = self.make()
        link_type.connect("a1", "b1")
        empty = link_type.empty_copy("other")
        assert empty.name == "other" and len(empty) == 0
        clone = link_type.copy()
        assert len(clone) == 1

    def test_restricted_to_filters_links(self):
        link_type = self.make()
        link_type.connect("a1", "b1")
        link_type.connect("a2", "b2")
        restricted = link_type.restricted_to("wrote2", {"a1"}, {"b1", "b2"})
        assert len(restricted) == 1
        assert restricted.name == "wrote2"

    def test_ordered_ids_reflexive_uses_given_order(self):
        link_type = LinkType("composition", "part", "part")
        link = link_type.connect("super", "sub")
        assert link_type._ordered_ids(link) == ("super", "sub")

    def test_validate_against_detects_dangling(self):
        from repro.core.atom import AtomType

        authors = AtomType("author", {"name": "string"})
        books = AtomType("book", {"title": "string"})
        authors.add({"name": "x"}, identifier="a1")
        books.add({"title": "y"}, identifier="b1")
        link_type = self.make()
        link_type.connect("a1", "b1")
        link_type.validate_against(authors, books)  # no error
        link_type.connect("a1", "b_missing")
        with pytest.raises(DanglingLinkError):
            link_type.validate_against(authors, books)
