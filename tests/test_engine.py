"""The public engine API and the ebXML customer transformation."""

import pytest

import repro
from repro import Engine, ExecutionOptions, execute_query, parse_document
from repro.workloads import EBXML_QUERY, generate_ebxml


class TestEngineAPI:
    def test_compile_once_execute_many(self, bib_xml):
        engine = Engine()
        compiled = engine.compile("count(//book)")
        doc = parse_document(bib_xml)
        assert compiled.execute(context_item=doc).values() == [3]
        assert compiled.execute(context_item=doc).values() == [3]

    def test_string_context_parsed(self):
        assert execute_query("count(/r/x)", context_item="<r><x/><x/></r>").values() == [2]

    def test_variable_conversion(self):
        result = execute_query(
            "($i, $f, $s, $b, $seq[2])",
            variables={"i": 42, "f": 1.5, "s": repro.xml("<a/>"), "b": True,
                       "seq": [1, 2, 3]})
        values = result.items()
        assert values[0].value == 42
        assert values[1].value == 1.5
        assert values[2].kind == "document"
        assert values[3].value is True
        assert values[4].value == 2

    def test_result_reiterable(self, bib_xml):
        result = execute_query("//title/text()", context_item=bib_xml)
        first = [i for i in result]
        second = [i for i in result]
        assert first == second

    def test_serialize_atomics_space_separated(self):
        assert execute_query("(1, 2, 3)").serialize() == "1 2 3"

    def test_serialize_mixed(self):
        out = execute_query("(<a/>, 1, 2, <b/>)").serialize()
        assert out == "<a/>1 2<b/>"

    def test_serialize_with_decl(self):
        out = execute_query("<a/>").serialize(xml_decl=True)
        assert out.startswith("<?xml")

    def test_explain_shows_tree(self, bib_xml):
        compiled = Engine().compile("/bib/book/title")
        text = compiled.explain()
        assert "Step" in text
        assert "RootExpr" in text

    def test_optimizer_can_be_disabled(self, bib_xml):
        fast = Engine(options=ExecutionOptions(optimize=True)).compile("1 + 1")
        slow = Engine(options=ExecutionOptions(optimize=False)).compile("1 + 1")
        from repro.xquery import ast

        assert isinstance(fast.optimized, ast.Literal)
        assert isinstance(slow.optimized, ast.Arithmetic)

    def test_documents_binding(self):
        q = "doc('a.xml')/r/@v = doc('b.xml')/r/@v"
        result = execute_query(q, documents={"a.xml": "<r v='1'/>",
                                             "b.xml": "<r v='1'/>"})
        assert result.values() == [True]

    def test_schema_import_via_engine(self):
        from repro.xsd import Schema

        schema = Schema.from_text(
            "<schema><type name='t'><sequence>"
            "<element name='x' type='xs:integer'/>"
            "</sequence></type><element name='r' type='t'/></schema>")
        engine = Engine()
        compiled = engine.compile(
            "data(validate { <r><x>5</x></r> }//x) + 1", schemas=[schema])
        assert compiled.execute().values() == [6]

    def test_stats_exposed(self, bib_xml):
        result = execute_query("<w>{//title}</w>", context_item=bib_xml)
        result.items()
        assert result.stats.get("elements_constructed") == 1


class TestNestingDepth:
    """A query nested past the interpreter's recursion limit is a
    static error (XPST0003), never a raw ``RecursionError``."""

    @staticmethod
    def _compile_or_static_error(text):
        from repro.errors import StaticError

        try:
            return Engine().compile(text)
        except StaticError as exc:
            assert exc.code == "XPST0003"
            assert "nested too deeply" in str(exc)
            return None

    @pytest.mark.parametrize("text", [
        "(" * 49 + "1" + ")" * 49,
        "count(" * 60 + "1" + ")" * 60])
    def test_near_the_limit_answers_or_maps(self, text):
        # about twenty parser frames per level: whether 49 levels fit
        # depends on the caller's stack — either way, no raw error
        compiled = self._compile_or_static_error(text)
        if compiled is not None:
            assert compiled.execute().values() == [1]

    def test_far_past_the_limit_is_a_static_error(self):
        assert self._compile_or_static_error(
            "(" * 3000 + "1" + ")" * 3000) is None


class TestEbxmlTransformation:
    """The tutorial's customer query, end to end."""

    @pytest.fixture(scope="class")
    def output(self):
        engine = Engine()
        compiled = engine.compile(EBXML_QUERY, variables=("input",))
        doc = generate_ebxml(n_partners=8, seed=42)
        result = compiled.execute(variables={"input": repro.xml(doc)})
        return parse_document(result.serialize()), doc

    def test_every_partner_transformed(self, output):
        config, source = output
        partners_in = parse_document(source)
        n_in = len([e for e in partners_in.descendants()
                    if getattr(e, "name", None) and e.name.local == "trading-partner"])
        n_out = len([e for e in config.descendants()
                     if getattr(e, "name", None) and e.name.local == "trading-partner"])
        assert n_in == n_out == 8

    def test_attributes_projected(self, output):
        config, _ = output
        partner = next(e for e in config.descendants()
                       if getattr(e, "name", None) and e.name.local == "trading-partner")
        attr_names = {a.name.local for a in partner.attributes}
        assert {"name", "business-id", "type", "email", "username"} <= attr_names

    def test_ebxml_bindings_joined(self, output):
        config, source = output
        # every ebXML *document-exchange* yields one binding
        # (conversation-definitions carry the same attribute — exclude them)
        import re

        n_ebxml = len(re.findall(
            r'<document-exchange[^>]*business-protocol-name="ebXML"', source))
        bindings = [e for e in config.descendants()
                    if getattr(e, "name", None) and e.name.local == "ebxml-binding"]
        assert len(bindings) == n_ebxml

    def test_conditional_attribute_present_iff_ttl(self, output):
        config, source = output
        bindings = [e for e in config.descendants()
                    if getattr(e, "name", None) and e.name.local == "ebxml-binding"]
        for binding in bindings:
            has_duration = any(a.name.local == "persist-duration"
                               for a in binding.attributes)
            # persist-duration = ttl div 1000 — check the unit suffix
            if has_duration:
                value = next(a.value for a in binding.attributes
                             if a.name.local == "persist-duration")
                assert value.endswith(" seconds")

    def test_services_generated_for_nonempty_templates(self, output):
        config, _ = output
        services = [e for e in config.descendants()
                    if getattr(e, "name", None) and e.name.local == "service"]
        for service in services:
            name = next(a.value for a in service.attributes if a.name.local == "name")
            assert name.startswith("test") and name.endswith(".jpd")
            protocol = next(a.value for a in service.attributes
                            if a.name.local == "business-protocol")
            assert protocol in ("EBXML", "ROSETTANET")

    def test_deterministic(self):
        engine = Engine()
        compiled = engine.compile(EBXML_QUERY, variables=("input",))
        doc = generate_ebxml(n_partners=4, seed=9)
        first = compiled.execute(variables={"input": repro.xml(doc)}).serialize()
        second = compiled.execute(variables={"input": repro.xml(doc)}).serialize()
        assert first == second

    def test_optimized_equals_unoptimized(self):
        doc = generate_ebxml(n_partners=4, seed=11)
        fast = Engine(options=ExecutionOptions(optimize=True)).compile(
            EBXML_QUERY, variables=("input",))
        slow = Engine(options=ExecutionOptions(optimize=False)).compile(
            EBXML_QUERY, variables=("input",))
        assert fast.execute(variables={"input": repro.xml(doc)}).serialize() == \
            slow.execute(variables={"input": repro.xml(doc)}).serialize()


class TestWorkloads:
    def test_xmark_deterministic(self):
        from repro.workloads import generate_xmark

        assert generate_xmark(0.02, seed=3) == generate_xmark(0.02, seed=3)

    def test_xmark_scales(self):
        from repro.workloads import generate_xmark

        small = len(generate_xmark(0.05, seed=1))
        large = len(generate_xmark(0.2, seed=1))
        assert 2.5 < large / small < 6

    def test_xmark_well_formed_and_queryable(self, xmark_small):
        n = execute_query("count(/site/people/person)", context_item=xmark_small)
        assert n.values()[0] > 0

    def test_messages_parse(self):
        from repro.workloads import generate_messages

        for message in generate_messages(50, seed=1):
            parse_document(message)

    def test_synthetic_deep(self):
        from repro.workloads.synthetic import deep_document

        doc = parse_document(deep_document(30))
        assert execute_query("count(//n)", context_item=doc).values() == [30]


class TestTreeTransformerBaseline:
    def test_default_identity(self):
        from repro.baselines import TreeTransformer

        t = TreeTransformer([])
        out = t.transform_text("<a x='1'><b>t</b></a>")
        from repro.xdm.build import node_events
        from repro.xmlio import serialize_events

        assert serialize_events(node_events(out[0], with_document=False)) == \
            '<a x="1"><b>t</b></a>'

    def test_template_rewrites(self):
        from repro.baselines import Template, TreeTransformer
        from repro.baselines.tree_transformer import element

        def retitle(node, transformer):
            return [element("header", text=node.string_value)]

        t = TreeTransformer([Template("title", retitle)])
        out = t.transform_text("<book><title>X</title></book>")
        from repro.xdm.build import node_events
        from repro.xmlio import serialize_events

        assert serialize_events(node_events(out[0], with_document=False)) == \
            "<book><header>X</header></book>"

    def test_priority_order(self):
        from repro.baselines import Template, TreeTransformer
        from repro.baselines.tree_transformer import element

        t = TreeTransformer([
            Template("*", lambda n, tr: [element("low")], priority=0),
            Template("a", lambda n, tr: [element("high")], priority=5),
        ])
        out = t.transform_text("<a/>")
        assert out[0].name.local == "high"
