"""The command-line interface."""

import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture()
def bib_file(tmp_path, bib_xml):
    path = tmp_path / "bib.xml"
    path.write_text(bib_xml)
    return path


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCli:
    def test_query_over_file(self, bib_file, capsys):
        code, out, _ = run_cli(["count(//book)", "-i", str(bib_file)], capsys)
        assert code == 0
        assert out.strip() == "3"

    def test_serialized_nodes(self, bib_file, capsys):
        code, out, _ = run_cli(
            ["/bib/book[1]/title", "-i", str(bib_file)], capsys)
        assert code == 0
        assert out.strip() == "<title>The politics of experience</title>"

    def test_query_file(self, bib_file, tmp_path, capsys):
        qfile = tmp_path / "q.xq"
        qfile.write_text("//book[@year='1998']/title/text()")
        code, out, _ = run_cli(["-q", str(qfile), "-i", str(bib_file)], capsys)
        assert code == 0
        assert "Data on the Web" in out

    def test_variables(self, bib_file, capsys):
        code, out, _ = run_cli(
            ["declare variable $max external; "
             "count(//book[xs:decimal(price) le $max])",
             "--var", "max=30", "-i", str(bib_file)], capsys)
        assert code == 0
        assert out.strip() == "1"

    def test_string_variable(self, capsys):
        code, out, _ = run_cli(["$greeting", "--var", "greeting=hello"], capsys)
        assert code == 0
        assert out.strip() == "hello"

    def test_xml_variable(self, capsys):
        code, out, _ = run_cli(
            ["count($d//x)", "--var", "d=<r><x/><x/></r>"], capsys)
        assert out.strip() == "2"

    def test_var_from_file(self, bib_file, capsys):
        code, out, _ = run_cli(
            ["count($d//book)", "--var", f"d=@{bib_file}"], capsys)
        assert out.strip() == "3"

    def test_doc_function_loads_files(self, bib_file, capsys):
        code, out, _ = run_cli(
            [f"count(doc('{bib_file}')//book)"], capsys)
        assert code == 0
        assert out.strip() == "3"

    def test_explain(self, bib_file, capsys):
        code, out, _ = run_cli(
            ["--explain", "/bib/book/title", "-i", str(bib_file)], capsys)
        assert code == 0
        assert "static type" in out
        assert "Step" in out

    def test_compile_error_reported(self, capsys):
        code, _, err = run_cli(["1 +"], capsys)
        assert code == 1
        assert "compile error" in err

    def test_static_type_error_reported(self, capsys):
        code, _, err = run_cli(["fn:true() + 1"], capsys)
        assert code == 1
        assert "XPTY0004" in err

    def test_runtime_error_reported(self, capsys):
        code, _, err = run_cli(["1 idiv 0"], capsys)
        assert code == 1
        assert "FOAR0001" in err

    def test_missing_query_errors(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_var_syntax(self, capsys):
        with pytest.raises(SystemExit):
            main(["1", "--var", "novalue"])

    @pytest.mark.parametrize("argv", [["--batch-size", "8", "1"],
                                      ["serve", "--batch-size", "8"]])
    def test_removed_batch_size_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "--batch-size" in capsys.readouterr().err

    @pytest.mark.parametrize("options,named", [
        ('{"batch_size": 8}', "batch_size"),
        # 3.0 deleted jobs with the parallel groups it sized
        ('{"jobs": null}', "jobs"),
        # 8.0 deleted scatter-gather and the shard count
        ('{"shards": 2}', "shards")])
    def test_serve_config_with_removed_knob_is_a_config_error(
            self, tmp_path, capsys, options, named):
        config = tmp_path / "server.json"
        config.write_text('{"options": %s}' % options)
        code, _, err = run_cli(["serve", "--config", str(config)], capsys)
        assert code == 1
        assert err.startswith("config error:") and named in err
        assert "Traceback" not in err

    def test_serve_flags_are_pinned(self):
        # a removed flag is an argparse usage error (exit 2): the knobs
        # 8.0 and earlier releases deleted have no flag left
        from repro.cli import build_serve_parser

        flags = {flag for action in build_serve_parser()._actions
                 for flag in action.option_strings}
        assert flags == {"-h", "--help", "--host", "--port", "--processes",
                         "--max-workers", "--timeout", "--result-cache",
                         "--data-dir", "--config"}

    def test_removed_jobs_flag_rejected(self, capsys):
        # 3.0: one sequential plan per query, on both commands
        for argv in (["--jobs", "4", "1"], ["serve", "--jobs", "4"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert "--jobs" in capsys.readouterr().err

    def test_indent_deep_document(self, tmp_path, capsys):
        # the pretty-printer keeps open elements on a stack, not the
        # Python call stack: 2 000 element-only levels (block-rendered,
        # one per line) above 18 000 under a text-bearing element
        # (inline), 20 000 deep in all
        deep = ("<a>" * 2000 + "<b>t" + "<a>" * 17999
                + "</a>" * 17999 + "</b>" + "</a>" * 2000)
        path = tmp_path / "deep.xml"
        path.write_text(deep)
        code, out, err = run_cli(["--indent", "1", "-i", str(path), "."],
                                 capsys)
        assert code == 0, err
        lines = out.rstrip("\n").splitlines()
        assert lines[1999] == " " * 1999 + "<a>"
        assert lines[2000] == " " * 2000 + "<b>t" + "<a>" * 17998 \
            + "<a/>" + "</a>" * 17998 + "</b>"
        assert lines[-1] == "</a>" and len(lines) == 4001

    def test_xml_decl_flag(self, capsys):
        code, out, _ = run_cli(["--xml-decl", "<a/>"], capsys)
        assert out.startswith("<?xml")


class TestCliSubprocess:
    """End-to-end through the real interpreter (pipes included)."""

    def test_python_dash_m(self, bib_file):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "count(//book)", "-i", str(bib_file)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3"

    def test_stdin_pipe(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "count(//b)"],
            input="<a><b/><b/><b/></a>", capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3"
