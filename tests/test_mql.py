"""Unit tests for the MQL front-end: lexer, parser, translator, interpreter (chapter 4)."""

import pytest

from repro.core.molecule import MoleculeTypeDescription
from repro.core.predicates import And, Comparison, Not, Or
from repro.exceptions import MQLSemanticError, MQLSyntaxError
from repro.mql import (
    MQLInterpreter,
    Query,
    SetOperation,
    StructureBranch,
    StructureNode,
    TokenType,
    execute,
    parse,
    structure_to_description,
    tokenize,
)
from repro.mql.ast_nodes import AttributeReference, RecursiveStructure
from repro.mql.translator import QueryTranslator


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select ALL from Where")
        assert [t.value for t in tokens[:4]] == ["SELECT", "ALL", "FROM", "WHERE"]

    def test_identifiers_and_punctuation(self):
        tokens = tokenize("state-area, (x.y);")
        types = [t.type for t in tokens[:-1]]
        assert TokenType.IDENT in types
        assert TokenType.DASH in types
        assert TokenType.COMMA in types
        assert TokenType.DOT in types
        assert TokenType.SEMICOLON in types

    def test_string_literal(self):
        tokens = tokenize("'pn'")
        assert tokens[0].type is TokenType.STRING and tokens[0].value == "pn"

    def test_unterminated_string(self):
        with pytest.raises(MQLSyntaxError):
            tokenize("'pn")

    def test_numbers(self):
        tokens = tokenize("42 3.5")
        assert tokens[0].value == 42 and isinstance(tokens[0].value, int)
        assert tokens[1].value == 3.5

    def test_number_followed_by_dot_identifier(self):
        tokens = tokenize("point.name")
        assert [t.type for t in tokens[:3]] == [TokenType.IDENT, TokenType.DOT, TokenType.IDENT]

    def test_bracketed_link_name(self):
        tokens = tokenize("[state-area]")
        assert tokens[0].type is TokenType.BRACKET_NAME
        assert tokens[0].value == "state-area"

    def test_unterminated_bracket(self):
        with pytest.raises(MQLSyntaxError):
            tokenize("[state-area")

    def test_operators(self):
        tokens = tokenize("= != <> < <= > >=")
        values = [t.value for t in tokens[:-1]]
        assert values == ["=", "!=", "<>", "<", "<=", ">", ">="]

    def test_comment_skipped(self):
        tokens = tokenize("SELECT -- a comment\nALL")
        assert [t.value for t in tokens[:2]] == ["SELECT", "ALL"]

    def test_unexpected_character(self):
        with pytest.raises(MQLSyntaxError):
            tokenize("SELECT %")

    def test_error_carries_position(self):
        try:
            tokenize("SELECT\n  %")
        except MQLSyntaxError as exc:
            assert exc.line == 2
        else:  # pragma: no cover
            pytest.fail("expected MQLSyntaxError")

    def test_positions_after_multiline_literals(self):
        """A string literal or bracketed name spanning newlines moves the
        line count: every token after one is reported where it is."""
        tokens = tokenize("SELECT ALL FROM t0 WHERE t0.key = 'a\nb'\nAND x")
        assert [(t.value, t.line, t.column) for t in tokens[-4:]] == [
            ("a\nb", 1, 34),
            ("AND", 3, 0),
            ("x", 3, 4),
            (None, 3, 5),
        ]
        tokens = tokenize("SELECT ALL FROM RECURSIVE part [comp\nosition\n] DOWN 2;")
        assert [(t.value, t.line, t.column) for t in tokens[-5:]] == [
            ("comp\nosition", 1, 31),
            ("DOWN", 3, 2),
            (2, 3, 7),
            (";", 3, 8),
            (None, 3, 9),
        ]
        with pytest.raises(MQLSyntaxError) as raised:
            tokenize("SELECT ALL FROM t0 WHERE t0.key = '\n\n' AND %")
        assert (raised.value.line, raised.value.column) == (3, 6)

    def test_digits_outside_ascii_are_unexpected_characters(self):
        """Numbers are written with 0-9; any other digit character is an
        MQLSyntaxError (it used to escape as ValueError, or read as a digit)."""
        digits = [
            chr(code)
            for code in range(0x3000)
            if chr(code).isdigit() and chr(code) not in "0123456789"
        ]
        assert "²" in digits and "٣" in digits
        for digit in digits:
            for text in (
                f"SELECT ALL FROM t0 WHERE t0.value = {digit};",
                f"SELECT ALL FROM t0 WHERE t0.value = 1{digit};",
            ):
                with pytest.raises(MQLSyntaxError, match="unexpected character"):
                    tokenize(text)


class TestParser:
    def test_select_all_simple_chain(self):
        ast = parse("SELECT ALL FROM state-area-edge;")
        assert isinstance(ast, Query)
        assert ast.select_all
        assert ast.from_clause.molecule_name is None
        nodes = [e for e in ast.from_clause.structure.elements if isinstance(e, StructureNode)]
        assert [n.atom_type for n in nodes] == ["state", "area", "edge"]

    def test_named_molecule_type(self):
        ast = parse("SELECT ALL FROM mt_state(state-area);")
        assert ast.from_clause.molecule_name == "mt_state"

    def test_branch_group(self):
        ast = parse("SELECT ALL FROM point-edge-(area-state,net-river);")
        branch = ast.from_clause.structure.elements[-1]
        assert isinstance(branch, StructureBranch)
        assert len(branch.branches) == 2

    def test_projection_list(self):
        ast = parse("SELECT state, area FROM state-area;")
        assert not ast.select_all
        assert ast.projection == ("state", "area")

    def test_where_comparison(self):
        ast = parse("SELECT ALL FROM state-area WHERE state.hectare > 800;")
        assert ast.where.lhs == AttributeReference("hectare", "state")
        assert ast.where.operator == ">"
        assert ast.where.rhs == 800

    def test_where_boolean_precedence(self):
        ast = parse("SELECT ALL FROM state-area WHERE a = 1 OR b = 2 AND NOT c = 3;")
        # OR at the top, AND below, NOT innermost.
        assert ast.where.operator == "OR"
        and_node = ast.where.operands[1]
        assert and_node.operator == "AND"

    def test_where_parentheses(self):
        ast = parse("SELECT ALL FROM state-area WHERE (a = 1 OR b = 2) AND c = 3;")
        assert ast.where.operator == "AND"

    def test_explicit_link_names(self):
        ast = parse("SELECT ALL FROM author -[wrote]- book;")
        nodes = [e for e in ast.from_clause.structure.elements if isinstance(e, StructureNode)]
        assert nodes[1].link_name == "wrote"

    def test_recursive_structure(self):
        ast = parse("SELECT ALL FROM RECURSIVE part [composition] DOWN;")
        structure = ast.from_clause.structure
        assert isinstance(structure, RecursiveStructure)
        assert structure.atom_type == "part"
        assert structure.link_name == "composition"
        assert structure.direction == "down"

    def test_recursive_with_depth(self):
        ast = parse("SELECT ALL FROM RECURSIVE part [composition] UP 3;")
        assert ast.from_clause.structure.direction == "up"
        assert ast.from_clause.structure.max_depth == 3

    def test_set_operations_left_associative(self):
        ast = parse(
            "SELECT ALL FROM a-b UNION SELECT ALL FROM a-b DIFFERENCE SELECT ALL FROM a-b;"
        )
        assert isinstance(ast, SetOperation)
        assert ast.operator == "DIFFERENCE"
        assert isinstance(ast.left, SetOperation)
        assert ast.left.operator == "UNION"

    def test_missing_from_rejected(self):
        with pytest.raises(MQLSyntaxError):
            parse("SELECT ALL state-area;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(MQLSyntaxError):
            parse("SELECT ALL FROM a-b extra")

    def test_bad_comparison_rhs_rejected(self):
        with pytest.raises(MQLSyntaxError):
            parse("SELECT ALL FROM a-b WHERE a.x = ;")

    def test_boolean_literals(self):
        ast = parse("SELECT ALL FROM a-b WHERE a.flag = TRUE;")
        assert ast.where.rhs is True


class TestStructureTranslation:
    def test_chain(self):
        ast = parse("SELECT ALL FROM state-area-edge-point;")
        description = structure_to_description(ast.from_clause.structure)
        assert description.root == "state"
        assert description.atom_type_names == ("state", "area", "edge", "point")
        assert len(description.directed_links) == 3

    def test_branches(self):
        ast = parse("SELECT ALL FROM point-edge-(area-state,net-river);")
        description = structure_to_description(ast.from_clause.structure)
        assert description.root == "point"
        assert set(description.atom_type_names) == {"point", "edge", "area", "state", "net", "river"}
        assert len(description.children_of("edge")) == 2

    def test_repeated_atom_type_is_single_node(self):
        ast = parse("SELECT ALL FROM a-b-(c,d)-e;")
        description = structure_to_description(ast.from_clause.structure)
        # 'e' attaches to 'b' (the node before the branch group).
        assert ("-", "b", "e") in [dl.as_tuple() for dl in description.directed_links]

    def test_invalid_structure_reported_semantically(self):
        ast = parse("SELECT ALL FROM (a-b,c-d);")
        with pytest.raises(MQLSemanticError):
            structure_to_description(ast.from_clause.structure)


class TestSemanticAnalysis:
    def test_unknown_atom_type(self, geo_db):
        with pytest.raises(MQLSemanticError):
            execute(geo_db, "SELECT ALL FROM state-continent;")

    def test_unknown_link_type(self, geo_db):
        with pytest.raises(MQLSemanticError):
            execute(geo_db, "SELECT ALL FROM state -[borders]- area;")

    def test_unknown_attribute(self, geo_db):
        with pytest.raises(MQLSemanticError):
            execute(geo_db, "SELECT ALL FROM state-area WHERE state.population > 1;")

    def test_attribute_outside_structure(self, geo_db):
        with pytest.raises(MQLSemanticError):
            execute(geo_db, "SELECT ALL FROM state-area WHERE river.name = 'x';")

    def test_ambiguous_unqualified_attribute(self, geo_db):
        # 'name' occurs in state, point, river, city — ambiguous within this structure.
        with pytest.raises(MQLSemanticError):
            execute(geo_db, "SELECT ALL FROM state-area-edge-point WHERE name = 'pn';")

    def test_unqualified_attribute_resolved_when_unique(self, geo_db):
        result = execute(geo_db, "SELECT ALL FROM state-area WHERE hectare > 800;")
        assert len(result) == 4

    def test_projection_must_retain_root(self, geo_db):
        with pytest.raises(MQLSemanticError):
            execute(geo_db, "SELECT area FROM state-area;")

    def test_projection_unknown_type(self, geo_db):
        with pytest.raises(MQLSemanticError):
            execute(geo_db, "SELECT state, river FROM state-area;")

    def test_recursive_link_resolution(self):
        from repro.datasets.bill_of_materials import build_bill_of_materials

        bom = build_bill_of_materials(depth=2, fan_out=2)
        result = execute(bom, "SELECT ALL FROM RECURSIVE part DOWN;")
        assert len(result) == len(bom.atyp("part"))


class TestInterpreter:
    def test_paper_statement_one(self, geo_db):
        result = execute(geo_db, "SELECT ALL FROM mt_state(state-area-edge-point);")
        assert len(result) == 10
        assert result.molecule_type.name == "mt_state"

    def test_paper_statement_two(self, geo_db):
        result = execute(
            geo_db,
            "SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.name = 'pn';",
        )
        assert len(result) == 1
        states = sorted(a["code"] for a in result.molecules[0].atoms_of_type("state"))
        assert states == ["GO", "MG", "MS", "SP"]

    def test_projection_applied(self, geo_db):
        result = execute(geo_db, "SELECT state, area FROM mt_state(state-area-edge-point);")
        assert all(len(m) == 2 for m in result)

    def test_to_dicts(self, geo_db):
        result = execute(geo_db, "SELECT ALL FROM state-area WHERE state.code = 'SP';")
        dicts = result.to_dicts()
        assert len(dicts) == 1
        assert dicts[0]["code"] == "SP"
        assert dicts[0]["area"]

    def test_where_conjunction(self, geo_db):
        result = execute(
            geo_db,
            "SELECT ALL FROM state-area WHERE state.hectare > 700 AND state.code != 'BA';",
        )
        assert {m.root_atom["code"] for m in result} == {"GO", "MG", "MS", "SP"}

    def test_recursive_with_where(self):
        from repro.datasets.bill_of_materials import build_bill_of_materials

        bom = build_bill_of_materials(depth=3, fan_out=2)
        result = execute(bom, "SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.level = 0;")
        assert len(result) == 1
        assert len(result.molecules[0]) == 15

    def test_explain_lists_algebra_operations(self, geo_db):
        interpreter = MQLInterpreter(geo_db)
        plan = interpreter.explain(
            "SELECT state, area FROM mt_state(state-area-edge-point) WHERE state.hectare > 800;"
        )
        assert any("α" in line for line in plan)
        assert any("Σ" in line for line in plan)
        assert any("Π" in line for line in plan)

    def test_explain_set_operation(self, geo_db):
        interpreter = MQLInterpreter(geo_db)
        plan = interpreter.explain(
            "SELECT ALL FROM state-area UNION SELECT ALL FROM state-area;"
        )
        assert any("Ω" in line for line in plan)

    def test_union_difference_intersect(self, geo_db):
        union = execute(
            geo_db,
            "SELECT ALL FROM state-area WHERE state.hectare > 800 "
            "UNION SELECT ALL FROM state-area WHERE state.code = 'SP';",
        )
        assert len(union) == 5
        difference = execute(
            geo_db,
            "SELECT ALL FROM state-area DIFFERENCE SELECT ALL FROM state-area WHERE state.hectare > 800;",
        )
        assert len(difference) == 6
        intersect = execute(
            geo_db,
            "SELECT ALL FROM state-area WHERE state.hectare > 800 "
            "INTERSECT SELECT ALL FROM state-area WHERE state.code = 'MG';",
        )
        assert len(intersect) == 1

    def test_result_iteration_and_len(self, geo_db):
        result = execute(geo_db, "SELECT ALL FROM state-area;")
        assert len(list(result)) == len(result) == 10
