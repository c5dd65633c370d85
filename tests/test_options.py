"""ExecutionOptions: the one frozen configuration object.

Covers the satellite guarantees: round-trips through every surface
(Engine, QueryService, repro.configure, serialization), the compile
cache keyed by the options fingerprint, and the removed 1.x keyword
surface rejected by Python's own ``TypeError``.
"""

import dataclasses
import json

import pytest

import repro
from repro import Engine, ExecutionOptions
from repro.runtime.memo import LRUCache
from repro.service import QueryService


class TestConstructionAndValidation:
    def test_defaults(self):
        opts = ExecutionOptions()
        assert opts.optimize is True
        assert opts.max_workers == 4

    def test_frozen(self):
        opts = ExecutionOptions()
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.optimize = False

    def test_removed_batch_size_knob_rejected(self):
        # 1.9 deleted the batched executor and its knob, shims included
        for build in (ExecutionOptions, ExecutionOptions().replace,
                      Engine, QueryService):
            with pytest.raises(TypeError, match="batch_size"):
                build(batch_size=8)

    def test_bad_codegen_rejected(self):
        # no codegen value is valid: the keyword itself is gone
        with pytest.raises(TypeError, match="codegen"):
            ExecutionOptions(codegen="llvm")

    def test_removed_codegen_knob_rejected(self, tmp_path, capsys):
        # 5.0: the closure oracle is no product backend — tests reach it
        # as repro.compiler.reference.ReferenceEngine
        from repro.cli import main

        knob = {"codegen": "source"}
        for build in (ExecutionOptions, ExecutionOptions().replace):
            with pytest.raises(TypeError, match="codegen"):
                build(**knob)
        with pytest.raises(ValueError, match="codegen"):
            ExecutionOptions.from_dict(knob)
        for argv in (["--codegen", "source", "1"],
                     ["serve", "--codegen", "source"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert "--codegen" in capsys.readouterr().err
        config = tmp_path / "server.json"
        config.write_text(json.dumps({"options": knob}))
        assert main(["serve", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "codegen" in err
        assert not hasattr(Engine(), "codegen")
        assert ExecutionOptions().fingerprint() == ("opts", True)

    def test_removed_plan_knobs_rejected(self, tmp_path, capsys):
        # 6.0: types are always inferred, the planner always picks each
        # twig's algorithm, and the service loader retries on its own
        # defaults — tests force a twig algorithm through
        # repro.compiler.reference.forced_twig
        from repro.cli import main
        from repro.compiler.reference import forced_twig

        knobs = {"static_typing": False, "twig_strategy": "binary",
                 "retries": 3, "retry_base_delay": 0.001}
        for name, value in knobs.items():
            for build in (ExecutionOptions, ExecutionOptions().replace):
                with pytest.raises(TypeError, match=name):
                    build(**{name: value})
            with pytest.raises(ValueError, match=name):
                ExecutionOptions.from_dict({name: value})
        for argv in (["--no-static-typing", "1"],
                     ["--twig-strategy", "binary", "1"]):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert argv[0] in capsys.readouterr().err
        config = tmp_path / "server.json"
        config.write_text(json.dumps({"options": {"twig_strategy": "binary"}}))
        assert main(["serve", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "twig_strategy" in err
        engine = Engine()
        assert not hasattr(engine, "static_typing")
        assert not hasattr(engine, "twig_strategy")
        with QueryService() as svc:
            assert not hasattr(svc, "retries")
            assert not hasattr(svc, "retry_base_delay")
        assert ExecutionOptions(optimize=False).fingerprint() \
            == ("opts", False)
        with pytest.raises(TypeError, match="compile_cache"):
            forced_twig(Engine, "binary")(compile_cache=LRUCache(4))

    def test_removed_1x_keyword_shims_rejected(self):
        # 2.0 removed the deprecation layer: knobs travel in options=
        for build, knob in ((Engine, {"codegen": "closure"}),
                            (Engine, {"optimize": False}),
                            (QueryService, {"max_workers": 2}),
                            (QueryService, {"jobs": 4})):
            with pytest.raises(TypeError, match=next(iter(knob))):
                build(**knob)
            with pytest.raises(TypeError, match=next(iter(knob))):
                build(options=ExecutionOptions(), **knob)
        assert not hasattr(ExecutionOptions, "from_legacy")

    def test_removed_jobs_knob_rejected(self):
        # 3.0 deleted intra-query parallel groups, their executors and
        # the knob; Python's own TypeError is the rejection
        fields = {f.name for f in dataclasses.fields(ExecutionOptions)}
        assert len(fields) == 7 and "jobs" not in fields
        for build in (ExecutionOptions, ExecutionOptions().replace):
            with pytest.raises(TypeError, match="jobs"):
                build(jobs=2)
        with pytest.raises(TypeError, match="executor"):
            Engine(executor=None)
        with pytest.raises(ValueError, match="jobs"):
            ExecutionOptions.from_dict({"jobs": 1})

    def test_replace(self):
        base = ExecutionOptions()
        derived = base.replace(optimize=False)
        assert derived.optimize is False
        assert base.optimize is True


class TestSerialization:
    def test_round_trip(self):
        opts = ExecutionOptions(optimize=False, max_workers=8,
                                default_timeout=1.5)
        assert ExecutionOptions.from_dict(opts.to_dict()) == opts
        assert ExecutionOptions.from_dict(ExecutionOptions().to_dict()) \
            == ExecutionOptions()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises((TypeError, ValueError)):
            ExecutionOptions.from_dict({"optimizer": True})
        with pytest.raises(ValueError, match="batch_size"):
            ExecutionOptions.from_dict({"batch_size": 8})

    def test_fingerprint_covers_compile_knobs(self):
        a = ExecutionOptions()
        assert a.fingerprint() == ExecutionOptions().fingerprint()
        assert a.replace(optimize=False).fingerprint() != a.fingerprint()

    def test_fingerprint_ignores_service_knobs(self):
        a = ExecutionOptions()
        b = a.replace(max_workers=16, max_queue=99, default_timeout=3.0,
                      compile_cache_size=3)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_ignores_data_dir(self):
        # regression: where documents live on disk must not key the
        # compile cache — a plan is identical whether its catalog is
        # in memory or persistent, and fingerprinting the path would
        # wrongly split (or worse, alias) cache entries across restarts
        a = ExecutionOptions()
        b = a.replace(data_dir="/var/lib/repro")
        assert a.fingerprint() == b.fingerprint()
        assert "data_dir" not in str(a.fingerprint())

    def test_data_dir_round_trips_and_coerces_paths(self):
        from pathlib import Path

        opts = ExecutionOptions(data_dir=Path("/tmp/collections"))
        assert opts.data_dir == "/tmp/collections"  # str: JSON-safe
        assert ExecutionOptions.from_dict(opts.to_dict()) == opts


class TestEngineIntegration:
    def test_engine_accepts_options(self):
        engine = Engine(options=ExecutionOptions(optimize=False))
        assert engine.optimize is False
        assert engine.options.optimize is False

    def test_options_key_the_shared_compile_cache(self):
        shared = LRUCache(16)
        fast = Engine(options=ExecutionOptions(), compile_cache=shared)
        slow = Engine(options=ExecutionOptions(optimize=False),
                      compile_cache=shared)
        a = fast.compile("1 + 1")
        b = slow.compile("1 + 1")
        assert a is not b
        assert fast.compile("1 + 1") is a
        assert slow.compile("1 + 1") is b


class TestServiceIntegration:
    def test_service_accepts_options(self):
        opts = ExecutionOptions(max_workers=2, max_queue=3,
                                default_timeout=5.0)
        with QueryService(options=opts) as svc:
            assert svc.max_workers == 2
            assert svc.max_queue == 3
            assert svc.default_timeout == 5.0
            assert svc.engine.options is opts
            assert svc.execute("1 + 1").values() == [2]

    def test_bare_service_runs_the_default_options(self):
        with QueryService() as svc:
            assert svc.options == ExecutionOptions()
            assert type(svc.engine) is Engine

    def test_service_rejects_positional_options(self):
        with pytest.raises(TypeError):
            QueryService(None, 4)


class TestConfigure:
    def test_configure_rebuilds_default_engine(self):
        original = repro.api.default_engine()
        try:
            engine = repro.configure(ExecutionOptions(optimize=False))
            assert repro.api.default_engine() is engine
            assert repro.execute("1 + 1").values() == [2]
        finally:
            repro.api._default_engine = original

    def test_configure_rejects_non_options(self):
        with pytest.raises(TypeError):
            repro.configure({"optimize": False})

