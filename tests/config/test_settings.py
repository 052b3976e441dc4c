"""JSON configuration: overrides, includes, references, accessors
(paper §III-C, Listing 1)."""

import json

import pytest

from repro.config.settings import (
    Settings,
    SettingsError,
    apply_override,
    parse_override,
)
from repro.config.spec import KeySpec


class TestParseOverride:
    def test_listing1_string_override(self):
        path, value = parse_override("network.router.architecture=string=my_arch")
        assert path == ["network", "router", "architecture"]
        assert value == "my_arch"

    def test_listing1_uint_override(self):
        path, value = parse_override("network.concentration=uint=16")
        assert path == ["network", "concentration"]
        assert value == 16

    def test_int_negative(self):
        assert parse_override("a=int=-5")[1] == -5

    def test_uint_rejects_negative(self):
        with pytest.raises(SettingsError):
            parse_override("a=uint=-5")

    def test_float(self):
        assert parse_override("a.b=float=0.25")[1] == 0.25

    def test_bool_variants(self):
        assert parse_override("a=bool=true")[1] is True
        assert parse_override("a=bool=FALSE")[1] is False
        assert parse_override("a=bool=1")[1] is True
        with pytest.raises(SettingsError):
            parse_override("a=bool=maybe")

    def test_json_type(self):
        assert parse_override('a=json=[1,2,3]')[1] == [1, 2, 3]
        assert parse_override('a=json={"k": 2}')[1] == {"k": 2}

    def test_value_containing_equals(self):
        # Only the first two '=' split; the value keeps the rest.
        assert parse_override("a=string=x=y")[1] == "x=y"

    def test_malformed(self):
        with pytest.raises(SettingsError):
            parse_override("novalue")
        with pytest.raises(SettingsError):
            parse_override("a=unknown_type=3")
        with pytest.raises(SettingsError):
            parse_override("=uint=3")


class TestApplyOverride:
    def test_creates_missing_dicts(self):
        root = {}
        apply_override(root, ["a", "b", "c"], 7)
        assert root == {"a": {"b": {"c": 7}}}

    def test_overwrites_existing(self):
        root = {"a": {"b": 1}}
        apply_override(root, ["a", "b"], 2)
        assert root["a"]["b"] == 2

    def test_list_indexing(self):
        root = {"apps": [{"rate": 0.1}, {"rate": 0.2}]}
        apply_override(root, ["apps", "1", "rate"], 0.9)
        assert root["apps"][1]["rate"] == 0.9

    def test_list_index_out_of_range(self):
        with pytest.raises(SettingsError):
            apply_override({"apps": []}, ["apps", "0"], 1)

    def test_descend_into_scalar_rejected(self):
        with pytest.raises(SettingsError):
            apply_override({"a": 5}, ["a", "b"], 1)


class TestIncludes:
    def test_include_expansion(self, tmp_path):
        (tmp_path / "router.json").write_text(
            json.dumps({"architecture": "input_queued"})
        )
        main = tmp_path / "main.json"
        main.write_text(
            json.dumps({"network": {"router": "$include(router.json)"}})
        )
        settings = Settings.from_file(main)
        assert (
            settings.child("network").child("router").get_str("architecture")
            == "input_queued"
        )

    def test_nested_includes(self, tmp_path):
        (tmp_path / "inner.json").write_text(json.dumps({"deep": 1}))
        (tmp_path / "outer.json").write_text(
            json.dumps({"inner": "$include(inner.json)"})
        )
        main = tmp_path / "main.json"
        main.write_text(json.dumps({"outer": "$include(outer.json)"}))
        settings = Settings.from_file(main)
        assert settings.raw()["outer"]["inner"]["deep"] == 1

    def test_include_relative_to_including_file(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "leaf.json").write_text(json.dumps({"v": 3}))
        (sub / "mid.json").write_text(json.dumps({"leaf": "$include(leaf.json)"}))
        main = tmp_path / "main.json"
        main.write_text(json.dumps({"mid": "$include(sub/mid.json)"}))
        settings = Settings.from_file(main)
        assert settings.raw()["mid"]["leaf"]["v"] == 3

    def test_missing_include_raises(self, tmp_path):
        main = tmp_path / "main.json"
        main.write_text(json.dumps({"x": "$include(nope.json)"}))
        with pytest.raises(SettingsError):
            Settings.from_file(main)


class TestReferences:
    def test_simple_ref(self):
        settings = Settings.from_dict(
            {"shared": {"depth": 64}, "router": {"queue": "$ref(shared.depth)"}}
        )
        assert settings.raw()["router"]["queue"] == 64

    def test_ref_copies_objects(self):
        settings = Settings.from_dict(
            {"proto": {"a": 1}, "one": "$ref(proto)", "two": "$ref(proto)"}
        )
        assert settings.raw()["one"] == {"a": 1}
        # Mutating one copy must not affect the other.
        settings.raw()["one"]["a"] = 99
        assert settings.raw()["two"]["a"] == 1

    def test_chained_refs(self):
        settings = Settings.from_dict(
            {"a": 5, "b": "$ref(a)", "c": "$ref(b)"}
        )
        assert settings.raw()["c"] == 5

    def test_ref_cycle_detected(self):
        with pytest.raises(SettingsError):
            Settings.from_dict({"a": "$ref(b)", "b": "$ref(a)"})

    def test_ref_missing_path(self):
        with pytest.raises(SettingsError):
            Settings.from_dict({"a": "$ref(not.there)"})

    def test_ref_into_list(self):
        settings = Settings.from_dict({"xs": [10, 20], "y": "$ref(xs.1)"})
        assert settings.raw()["y"] == 20


class TestTypedAccessors:
    def test_get_required_missing(self):
        with pytest.raises(SettingsError):
            Settings.from_dict({}).get("absent")

    def test_get_default(self):
        assert Settings.from_dict({}).get("absent", 3) == 3

    def test_read_int_rejects_bool(self):
        settings = Settings.from_dict({"flag": True})
        with pytest.raises(SettingsError):
            settings.read({"flag": KeySpec("int")}, "flag")

    def test_read_uint_rejects_negative(self):
        settings = Settings.from_dict({"n": -2})
        with pytest.raises(SettingsError):
            settings.read({"n": KeySpec("uint")}, "n")

    def test_read_float_accepts_int(self):
        value = Settings.from_dict({"r": 1}).read({"r": KeySpec("float")}, "r")
        assert value == 1.0 and isinstance(value, float)

    def test_get_str_type_checked(self):
        with pytest.raises(SettingsError):
            Settings.from_dict({"s": 5}).get_str("s")

    def test_read_bool_type_checked(self):
        with pytest.raises(SettingsError):
            Settings.from_dict({"b": "true"}).read({"b": KeySpec("bool")}, "b")

    def test_read_int_list(self):
        spec = {"xs": KeySpec("int_list")}
        assert Settings.from_dict({"xs": [1, 2]}).read(spec, "xs") == [1, 2]
        with pytest.raises(SettingsError):
            Settings.from_dict({"xs": [1, "a"]}).read(spec, "xs")

    def test_contains_and_keys(self):
        settings = Settings.from_dict({"a": 1})
        assert "a" in settings
        assert "b" not in settings
        assert list(settings.keys()) == ["a"]


class TestHierarchy:
    def test_child_block(self):
        settings = Settings.from_dict({"network": {"router": {"vcs": 2}}})
        router = settings.child("network").child("router")
        assert router.get("vcs") == 2

    def test_child_missing_with_default(self):
        child = Settings.from_dict({}).child("router", default={"vcs": 1})
        assert child.get("vcs") == 1

    def test_child_missing_required(self):
        with pytest.raises(SettingsError):
            Settings.from_dict({}).child("router")

    def test_child_error_paths_include_location(self):
        settings = Settings.from_dict({"a": {"b": {}}})
        with pytest.raises(SettingsError, match="a.b.missing"):
            settings.child("a").child("b").get("missing")

    def test_child_list(self):
        settings = Settings.from_dict({"apps": [{"type": "blast"}, {"type": "pulse"}]})
        children = settings.child_list("apps")
        assert [c.get_str("type") for c in children] == ["blast", "pulse"]

    def test_child_list_rejects_scalars(self):
        with pytest.raises(SettingsError):
            Settings.from_dict({"apps": [1]}).child_list("apps")


class TestFromFileWithOverrides:
    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"network": {"concentration": 4}}))
        settings = Settings.from_file(
            path, overrides=["network.concentration=uint=16"]
        )
        assert settings.child("network").get("concentration") == 16

    def test_overrides_applied_before_refs(self):
        settings = Settings.from_dict(
            {"base": 1, "derived": "$ref(base)"},
            overrides=["base=uint=9"],
        )
        assert settings.raw()["derived"] == 9

    def test_to_json_round_trip(self):
        data = {"a": {"b": [1, 2]}}
        settings = Settings.from_dict(data)
        assert json.loads(settings.to_json()) == data

    def test_from_dict_does_not_mutate_input(self):
        data = {"a": 1}
        Settings.from_dict(data, overrides=["a=uint=5"])
        assert data == {"a": 1}
