"""Command-line interface behaviour: determinism, profile routing,
file handling, exit codes."""

import hashlib
import json
import struct

import pytest
from click.testing import CliRunner

from webshield.cli import main
from webshield.farble import AudioSamples, BitmapBuffer
from webshield.formats import read_audio, read_bitmap, write_audio, write_bitmap
from webshield.fpd import analyze_trace, load_fpd_config

FIXED_SESSION = "00" * 32
ORIGIN = "https://a.example"


@pytest.fixture
def runner():
    return CliRunner()


def assert_clean_exit(result, code, message):
    """The command failed with ``code`` and a one-line error, not a traceback."""
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == code
    assert message in result.stderr
    assert result.stderr.strip().splitlines()[-1].startswith("Error:")


def write_white_bitmap(path, w=2, h=2):
    write_bitmap(path, BitmapBuffer(w, h, bytes([255, 255, 255, 255]) * (w * h)))


# Every byte each profile-routed command emits, for one fixed input each.
MATRIX_COMMANDS = {
    "canvas": ["farble", "canvas", "--in", "{dir}/in.rgba", "--out", "{dir}/out"],
    "audio": ["farble", "audio", "--in", "{dir}/in.pcm", "--out", "{dir}/out"],
    "geo": ["farble", "geo", "--lat", "50.0755", "--lon", "14.4378"],
    "gl": ["spoof", "gl"],
    "devices": ["spoof", "devices"],
}
GL_P1 = (
    '{"vendor": "YBTMCwAmHrdNwFZm1Ve", "renderer": "y7lGHRGfku15xL1YlOqZhvkDqdf5M", '
    '"unmasked_vendor": "4a2VtXMhzrJTEQf3Q", "unmasked_renderer": "sxJAtKAFO1NJMbLx867mH2 y"}\n'
)
GL_GENERIC = (
    '{"vendor": "Generic Vendor", "renderer": "Generic Renderer", '
    '"unmasked_vendor": "Generic Vendor", "unmasked_renderer": "Generic Renderer"}\n'
)
DEVICES_P1 = (
    "G05v4Afkc54QSVcL16sRqDvY_hoTl5CsHN3H-V0IoDo\n"
    "afOhtixgzEvt4nqhveTfPBxA6Cu4Q277z-c2xERAiLo\n"
    "z4PLHFeTrrcI2lvZWxmIH6mFihhsH_MteppOy6MfaaI\n"
)
# (profile, command) -> (exit code, stdout, stderr action, SHA-256 of --out or None)
MATRIX = {
    ("p1", "canvas"): (0, "", "little_lie",
                       "b09559eeed361da107262ec71b73f5debfb0ae8a9493cdbe690a14a2f38ba6ba"),
    ("p1", "audio"): (0, "", "little_lie",
                      "4ee640a2e2ed42423fe58e937486d69de4ce12b2c959fe82bc52057c71ed8fa6"),
    ("p1", "geo"): (0, '{"latitude": 50.06500947659145, "longitude": 14.507873914323767, '
                       '"accuracy": 10000.0}\n', "little_lie", None),
    ("p1", "gl"): (0, GL_P1, "little_lie", None),
    ("p1", "devices"): (0, DEVICES_P1, "little_lie", None),
    ("p2", "canvas"): (0, "", "pass_through",
                       "de262ca046222b89462d66a8401eff53abddb817fa834d1cea137c5201324f6b"),
    ("p2", "audio"): (0, "", "pass_through",
                      "1b551f73042ccc42ebc4d3872ebd5be89dc367b2cc1900c59e24de8c415f1fbb"),
    ("p2", "geo"): (0, '{"latitude": 50.0755, "longitude": 14.4378, "accuracy": 10.0}\n',
                    "pass_through", None),
    ("p2", "gl"): (0, "", "pass_through", None),
    ("p2", "devices"): (0, "", "pass_through", None),
    ("p3", "canvas"): (0, "", "fixed_fake",
                       "2101ad8462440a2c1522dce6427a0036757002da1e4dd5a930aba421c2dcc9fb"),
    ("p3", "audio"): (0, "", "fixed_fake",
                      "f1ba4eb442dfc2a453e5ca6450720213bb221236b939b1d9998138d43cecf2eb"),
    ("p3", "geo"): (0, "", "block", None),
    ("p3", "gl"): (0, GL_GENERIC, "fixed_fake", None),
    ("p3", "devices"): (0, "", "block", None),
}
MATRIX_GROUPS = {"canvas": "canvas", "audio": "audio", "geo": "geolocation",
                 "gl": "webgl", "devices": "mediadevices"}


class TestProfileMatrix:
    @pytest.mark.parametrize("profile, command", sorted(MATRIX))
    def test_golden_output(self, runner, tmp_path, profile, command):
        write_bitmap(tmp_path / "in.rgba", BitmapBuffer(3, 2, bytes(range(0, 240, 10))))
        write_audio(tmp_path / "in.pcm",
                    AudioSamples(8000, [[0.5, -0.25, 0.0, 1.0], [-1.0, 0.125, 0.75, -0.5]]))
        args = [a.format(dir=tmp_path) for a in MATRIX_COMMANDS[command]]
        result = runner.invoke(
            main, args + ["--session", FIXED_SESSION, "--origin", ORIGIN, "--profile", profile]
        )
        out = tmp_path / "out"
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        code, stdout, action, sha = MATRIX[profile, command]
        assert result.exit_code == code
        assert result.stdout == stdout
        assert result.stderr == f"action={action} group={MATRIX_GROUPS[command]}\n"
        assert digest == sha

    @pytest.mark.parametrize("profile", ["p1", "p2", "p3"])
    @pytest.mark.parametrize("args, message", [
        (["farble", "geo", "--lat", "95", "--lon", "0"], "latitude out of range"),
        (["farble", "geo", "--lat", "0", "--lon", "200"], "longitude out of range"),
        (["farble", "geo", "--lat", "0", "--lon", "0", "--accuracy", "-1"], "accuracy"),
        (["farble", "geo", "--lat", "0", "--lon", "0", "--precision", "0"], "precision"),
        (["farble", "geo", "--lat", "0", "--lon", "0", "--precision", "nan"], "precision"),
        (["spoof", "devices", "--count", "-1"], "count must be >= 0"),
    ])
    def test_bad_input_is_domain_error_in_every_profile(self, runner, profile, args, message):
        result = runner.invoke(
            main, args + ["--session", FIXED_SESSION, "--origin", ORIGIN, "--profile", profile]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert message in result.stderr
        assert "action=" not in result.stderr  # rejected before any action applies


class TestVersionAndUsage:
    def test_version_prints_schema_versions(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "webshield" in result.output
        assert "fpd-config-schema 1" in result.output

    def test_unknown_subcommand_is_usage_error(self, runner):
        result = runner.invoke(main, ["warble"])
        assert result.exit_code == 2

    def test_bad_session_hex_is_usage_error(self, runner, tmp_path):
        src = tmp_path / "in.rgba"
        write_white_bitmap(src)
        result = runner.invoke(
            main,
            ["farble", "canvas", "--in", str(src), "--out", str(tmp_path / "o.rgba"),
             "--origin", ORIGIN, "--session", "nothex"],
        )
        assert result.exit_code == 2

    def test_missing_origin_is_usage_error(self, runner, tmp_path):
        src = tmp_path / "in.rgba"
        write_white_bitmap(src)
        result = runner.invoke(
            main,
            ["farble", "canvas", "--in", str(src), "--out", str(tmp_path / "o.rgba"),
             "--session", FIXED_SESSION],
        )
        assert result.exit_code == 2


class TestFarbleCanvas:
    def test_deterministic_across_runs(self, runner, tmp_path):
        src = tmp_path / "in.rgba"
        write_white_bitmap(src, 4, 4)
        outputs = []
        for name in ("a.rgba", "b.rgba"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["farble", "canvas", "--in", str(src), "--out", str(out),
                 "--origin", ORIGIN, "--session", FIXED_SESSION],
            )
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_lsb_only_changes(self, runner, tmp_path):
        src = tmp_path / "in.rgba"
        write_white_bitmap(src, 4, 4)
        out = tmp_path / "out.rgba"
        runner.invoke(
            main,
            ["farble", "canvas", "--in", str(src), "--out", str(out),
             "--origin", ORIGIN, "--session", FIXED_SESSION],
        )
        farbled = read_bitmap(out)
        for i, (got, want) in enumerate(zip(farbled.data, read_bitmap(src).data)):
            if i % 4 == 3:
                assert got == want  # alpha untouched
            else:
                assert got in (want, want - 1)

    def test_p2_passes_input_through(self, runner, tmp_path):
        src = tmp_path / "in.rgba"
        write_white_bitmap(src, 3, 3)
        out = tmp_path / "out.rgba"
        result = runner.invoke(
            main,
            ["farble", "canvas", "--in", str(src), "--out", str(out),
             "--origin", ORIGIN, "--session", FIXED_SESSION, "--profile", "p2"],
        )
        assert result.exit_code == 0
        assert out.read_bytes() == src.read_bytes()
        assert "action=pass_through" in result.stderr

    def test_p3_emits_fixed_fake(self, runner, tmp_path):
        src = tmp_path / "in.rgba"
        write_bitmap(src, BitmapBuffer(2, 1, bytes([1, 2, 3, 4, 5, 6, 7, 8])))
        out = tmp_path / "out.rgba"
        result = runner.invoke(
            main,
            ["farble", "canvas", "--in", str(src), "--out", str(out),
             "--origin", ORIGIN, "--session", FIXED_SESSION, "--profile", "p3"],
        )
        assert result.exit_code == 0
        assert "action=fixed_fake" in result.stderr
        assert read_bitmap(out).data == bytes([255] * 8)

    def test_missing_input_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["farble", "canvas", "--in", str(tmp_path / "missing.rgba"),
             "--out", str(tmp_path / "o.rgba"), "--origin", ORIGIN,
             "--session", FIXED_SESSION],
        )
        assert result.exit_code == 2

    def test_corrupt_input_is_domain_error(self, runner, tmp_path):
        src = tmp_path / "broken.rgba"
        src.write_bytes(struct.pack("<II", 9, 9) + b"\x00" * 3)
        result = runner.invoke(
            main,
            ["farble", "canvas", "--in", str(src), "--out", str(tmp_path / "o.rgba"),
             "--origin", ORIGIN, "--session", FIXED_SESSION],
        )
        assert result.exit_code == 1


class TestFarbleAudioCli:
    def test_deterministic(self, runner, tmp_path):
        src = tmp_path / "in.pcm"
        write_audio(src, AudioSamples(8000, [[0.0] * 16]))
        outs = []
        for name in ("x.pcm", "y.pcm"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["farble", "audio", "--in", str(src), "--out", str(out),
                 "--origin", ORIGIN, "--session", FIXED_SESSION],
            )
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_p3_silence(self, runner, tmp_path):
        src = tmp_path / "in.pcm"
        write_audio(src, AudioSamples(8000, [[0.5] * 8]))
        out = tmp_path / "out.pcm"
        result = runner.invoke(
            main,
            ["farble", "audio", "--in", str(src), "--out", str(out),
             "--origin", ORIGIN, "--session", FIXED_SESSION, "--profile", "p3"],
        )
        assert result.exit_code == 0
        assert all(s == 0.0 for s in read_audio(out).channels[0])


class TestFarbleGeo:
    def test_emits_degraded_json(self, runner):
        result = runner.invoke(
            main,
            ["farble", "geo", "--lat", "50.0755", "--lon", "14.4378",
             "--precision", "10000", "--origin", ORIGIN, "--session", FIXED_SESSION],
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["accuracy"] == 10000
        assert abs(doc["latitude"] - 50.0755) < 0.2

    def test_p3_blocks(self, runner):
        result = runner.invoke(
            main,
            ["farble", "geo", "--lat", "1", "--lon", "2", "--origin", ORIGIN,
             "--session", FIXED_SESSION, "--profile", "p3"],
        )
        assert result.exit_code == 0
        assert result.stdout.strip() == ""
        assert "action=block" in result.stderr


class TestSpoof:
    def test_gl_json_shape(self, runner):
        result = runner.invoke(
            main, ["spoof", "gl", "--origin", ORIGIN, "--session", FIXED_SESSION]
        )
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert set(doc) == {"vendor", "renderer", "unmasked_vendor", "unmasked_renderer"}

    def test_gl_deterministic(self, runner):
        args = ["spoof", "gl", "--origin", ORIGIN, "--session", FIXED_SESSION]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout

    def test_devices_line_per_id(self, runner):
        result = runner.invoke(
            main,
            ["spoof", "devices", "--count", "4", "--origin", ORIGIN,
             "--session", FIXED_SESSION],
        )
        assert result.exit_code == 0
        ids = result.stdout.split()
        assert len(ids) == 4
        assert all(len(i) == 43 for i in ids)

    def test_devices_p3_blocked_emits_marker_only(self, runner):
        result = runner.invoke(
            main,
            ["spoof", "devices", "--origin", ORIGIN, "--session", FIXED_SESSION,
             "--profile", "p3"],
        )
        assert result.exit_code == 0
        assert result.stdout.strip() == ""
        assert "action=block group=mediadevices" in result.stderr


class TestTimeShield:
    def test_plain_rounding(self, runner):
        result = runner.invoke(
            main,
            ["time", "shield", "--quantum", "10", "--no-randomize",
             "--origin", ORIGIN, "--session", FIXED_SESSION],
            input="123.456\n7\n0\n",
        )
        assert result.exit_code == 0
        assert result.stdout.split() == ["120.0", "0.0", "0.0"]

    def test_randomized_within_bucket_and_reproducible(self, runner):
        args = ["time", "shield", "--quantum", "10", "--origin", ORIGIN,
                "--session", FIXED_SESSION]
        first = runner.invoke(main, args, input="55\n")
        second = runner.invoke(main, args, input="55\n")
        value = float(first.stdout.strip())
        assert 50.0 <= value < 60.0
        assert first.stdout == second.stdout

    def test_negative_timestamp_is_domain_error(self, runner):
        result = runner.invoke(
            main,
            ["time", "shield", "--origin", ORIGIN, "--session", FIXED_SESSION],
            input="-5\n",
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("line, message", [
        ("inf", "timestamp must be finite and >= 0"),
        ("nan", "timestamp must be finite and >= 0"),
        ("1e308", "64-bit block counter"),
    ])
    def test_unshieldable_timestamp_is_domain_error(self, runner, line, message):
        result = runner.invoke(
            main,
            ["time", "shield", "--origin", ORIGIN, "--session", FIXED_SESSION],
            input=f"5\n{line}\n",
        )
        assert_clean_exit(result, 1, message)


class TestSensorsGen:
    def test_csv_rows_and_header(self, runner):
        result = runner.invoke(
            main,
            ["sensors", "gen", "--sensor", "magnetometer", "--rate", "10",
             "--duration", "2", "--origin", ORIGIN, "--session", FIXED_SESSION],
        )
        assert result.exit_code == 0, result.output
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "t_ms,x,y,z"
        assert len(lines) == 1 + 20

    def test_quaternion_columns_for_orientation(self, runner):
        result = runner.invoke(
            main,
            ["sensors", "gen", "--sensor", "orientation_abs", "--rate", "5",
             "--duration", "1", "--origin", ORIGIN, "--session", FIXED_SESSION],
        )
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "t_ms,qw,qx,qy,qz"
        assert len(lines[1].split(",")) == 5

    def test_scalar_column_for_ambient_light(self, runner):
        result = runner.invoke(
            main,
            ["sensors", "gen", "--sensor", "ambient_light", "--rate", "2",
             "--duration", "1", "--origin", ORIGIN, "--session", FIXED_SESSION],
        )
        lines = result.stdout.strip().splitlines()
        assert lines[0] == "t_ms,value"

    def test_jsonl_format(self, runner):
        result = runner.invoke(
            main,
            ["sensors", "gen", "--sensor", "gravity", "--rate", "4", "--duration", "1",
             "--format", "jsonl", "--origin", ORIGIN, "--session", FIXED_SESSION],
        )
        rows = [json.loads(line) for line in result.stdout.strip().splitlines()]
        assert len(rows) == 4
        assert all(row["kind"] == "gravity" and len(row["value"]) == 3 for row in rows)

    def test_deterministic(self, runner):
        args = ["sensors", "gen", "--sensor", "accelerometer", "--rate", "7",
                "--duration", "1", "--origin", ORIGIN, "--session", FIXED_SESSION]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout

    def test_bad_rate_is_domain_error(self, runner):
        result = runner.invoke(
            main,
            ["sensors", "gen", "--sensor", "gravity", "--rate", "0", "--duration", "1",
             "--origin", ORIGIN, "--session", FIXED_SESSION],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize("args, message", [
        (["--rate", "1", "--duration", "1", "--quantum", "0"], "quantum must be positive"),
        (["--rate", "1", "--duration", "1", "--quantum", "nan"], "quantum must be positive"),
        (["--rate", "1", "--duration", "1", "--quantum", "inf"], "quantum must be positive"),
        (["--rate", "nan", "--duration", "1"], "rate must be finite"),
        (["--rate", "inf", "--duration", "1"], "rate must be finite"),
        (["--rate", "1", "--duration", "inf"], "duration finite"),
        (["--rate", "1", "--duration", "nan"], "duration finite"),
        (["--rate", "1e200", "--duration", "1e200"], "their product finite"),
        # three samples, but the second one's time overflows to inf
        (["--rate", "3e-308", "--duration", "1e308"], "sample time must be finite"),
    ], ids=["quantum-0", "quantum-nan", "quantum-inf", "rate-nan", "rate-inf", "duration-inf",
            "duration-nan", "product-inf", "sample-time-inf"])
    def test_bad_numbers_are_domain_errors(self, runner, args, message):
        result = runner.invoke(
            main,
            ["sensors", "gen", "--sensor", "magnetometer", *args,
             "--origin", ORIGIN, "--session", FIXED_SESSION],
        )
        assert_clean_exit(result, 1, message)


class TestFpdCli:
    def test_empty_trace_reports_no_activity(self, runner, tmp_path):
        trace = tmp_path / "empty.json"
        trace.write_text(json.dumps({"page": "https://x.example", "events": []}))
        result = runner.invoke(main, ["fpd", "analyze", "--trace", str(trace)])
        assert result.exit_code == 0
        assert "no fingerprinting activity" in result.output

    def test_detection_in_block_mode_prints_directives_and_exits_zero(
        self, runner, tmp_path
    ):
        from importlib import resources

        trace_text = (
            resources.files("webshield.data")
            .joinpath("fpd_corpus/fp_canvas_audio_mix.json")
            .read_text()
        )
        trace = tmp_path / "fp.json"
        trace.write_text(trace_text)
        report_path = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["fpd", "analyze", "--trace", str(trace), "--mode", "block",
             "--report", str(report_path)],
        )
        assert result.exit_code == 0
        assert "fingerprinting detected" in result.output
        assert "directive: BlockSubsequentAsyncRequests" in result.output
        assert "directive: ClearPageStorage" in result.output
        report = json.loads(report_path.read_text())
        assert report["detected"] is True

    def test_passive_mode_emits_no_directives(self, runner, tmp_path):
        from importlib import resources

        trace = tmp_path / "fp.json"
        trace.write_text(
            resources.files("webshield.data")
            .joinpath("fpd_corpus/fp_canvas_audio_mix.json")
            .read_text()
        )
        result = runner.invoke(
            main, ["fpd", "analyze", "--trace", str(trace), "--mode", "passive"]
        )
        assert result.exit_code == 0
        assert "directive:" not in result.output

    def test_custom_config(self, runner, tmp_path):
        config = {
            "version": 1,
            "root": {"name": "r", "threshold": 1.0,
                     "children": [{"weight": 1.0, "endpoint": "X"}]},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        trace = tmp_path / "t.json"
        trace.write_text(json.dumps({"page": "p", "events": [{"t_ms": 0, "endpoint": "X"}]}))
        result = runner.invoke(
            main,
            ["fpd", "analyze", "--trace", str(trace), "--config", str(cfg_path)],
        )
        assert result.exit_code == 0
        assert "fingerprinting detected" in result.output

    @pytest.mark.parametrize("config_text, trace_text, message", [
        ('{"version": 1, "root": {"name": "r", "threshold": null, "children": []}}', None,
         "/root/threshold: expected a finite number, got null"),
        ('{"version": 1, "root": {"name": "r", "threshold": 1, "children": '
         '[{"weight": 1, "endpoint": "X", "min_calls": null}]}}', None,
         "/root/children/0/min_calls: expected an integer, got null"),
        ('{"version": 1, "root": {"name": "r", "threshold": 1, "children": '
         '[{"weight": 1, "endpoint": "X", "min_calls": 2.9}]}}', None,
         "/root/children/0/min_calls: expected an integer, got 2.9"),
        ('{"version": 1, "root": {"name": "r", "threshold": 1, "children": '
         '[{"weight": true, "endpoint": "X"}]}}', None,
         "/root/children/0/weight: expected a finite number, got true"),
        (None, '{"page": "p", "events": 5}', "'events' array"),
        (None, '{"page": "p", "events": [{"t_ms": 1, "endpoint": "A", "count": 1e400}]}',
         "invalid trace event at index 0"),
    ], ids=["threshold-null", "min_calls-null", "min_calls-2.9", "weight-bool",
            "events-int", "count-overflow"])
    def test_wrong_types_are_domain_errors(
        self, runner, tmp_path, config_text, trace_text, message
    ):
        trace = tmp_path / "t.json"
        trace.write_text(trace_text or '{"page": "p", "events": []}')
        args = ["fpd", "analyze", "--trace", str(trace)]
        if config_text:
            (tmp_path / "c.json").write_text(config_text)
            args += ["--config", str(tmp_path / "c.json")]
        assert_clean_exit(runner.invoke(main, args), 1, message)

    @pytest.mark.parametrize("config_text, trace_text, message", [
        ('{"version": 1, "root": ' + "".join(
            '{"name": "g%d", "threshold": 0, "children": [{"weight": 1, "group": ' % i
            for i in range(2000)) + '{"name": "x", "threshold": 0, "children": []}'
         + "}]}" * 2000 + "}", None, "/: config is nested too deeply"),
        ('{"version": 1, "root": {"name": null, "threshold": 1, "children": '
         '[{"weight": 1, "endpoint": "X"}]}}', None, "/root/name: expected a string, got null"),
        ('{"version": 1, "root": {"name": "r", "threshold": 1, "children": '
         '[{"weight": 1, "endpoint": 5}]}}', None,
         "/root/children/0/endpoint: expected a string, got 5"),
        ("{", None, "/: invalid JSON"),
        (None, '{"events": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "trace is nested too deeply"),
        (None, '{"events": [{"t_ms": NaN, "endpoint": "A", "count": true}]}',
         "invalid trace event at index 0: t_ms: expected a finite number, got NaN"),
        (None, '{"events": [{"t_ms": 1, "endpoint": "A", "count": true}]}',
         "invalid trace event at index 0: count: expected an integer, got true"),
        (None, '{"events": [{"t_ms": 1, "endpoint": null}]}',
         "invalid trace event at index 0: endpoint: expected a string, got null"),
    ], ids=["config-deep", "name-null", "endpoint-int", "config-not-json", "trace-deep",
            "t_ms-nan", "count-bool", "endpoint-null"])
    def test_malformed_documents_are_domain_errors(
        self, runner, tmp_path, config_text, trace_text, message
    ):
        trace = tmp_path / "t.json"
        trace.write_text(trace_text or '{"page": "p", "events": []}')
        args = ["fpd", "analyze", "--trace", str(trace)]
        if config_text:
            (tmp_path / "c.json").write_text(config_text)
            args += ["--config", str(tmp_path / "c.json")]
        result = runner.invoke(main, args)
        assert_clean_exit(result, 1, message)
        assert len(result.stderr.strip().splitlines()) == 1

    def test_invalid_config_is_domain_error(self, runner, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"version": 1, "root": {
            "name": "r", "threshold": 1.0,
            "children": [{"weight": -1.0, "endpoint": "X"}]}}))
        trace = tmp_path / "t.json"
        trace.write_text(json.dumps({"page": "p", "events": []}))
        result = runner.invoke(
            main, ["fpd", "analyze", "--trace", str(trace), "--config", str(cfg_path)]
        )
        assert result.exit_code == 1


# corpus trace -> (SHA-256 of `fpd analyze --mode block` stdout, of its --report file)
FPD_GOLDEN = {
    "benign_analytics_lite.json": (
        "a3a53fecb4da9ef4f34cf31b1ee77e1d95562c20daeee4a2fd874b07d621369b",
        "dffc487660fa320c5a7ce03fbe6d451a3624fded1178b5b860910c2c922dcd10"),
    "benign_audio_player.json": (
        "b08a9776799f4afc55b7fe7c41655f8ddf6da7edf03a70bcb4d7581ccbe79680",
        "6aa630a6c131510f96917a8df47e7d56642a21248ad5f3dc5625c6c3befd074e"),
    "benign_canvas_drawing.json": (
        "1502c9d8a9a116a1d350a9da18b2fd07e6eeda4a7d20e094c9c2a7142e08bcbe",
        "08a988b2b4b1740a6550af9bdf1182b61bcdfc657ecd4f47c9e548ad6999ab4c"),
    "benign_form_page.json": (
        "a89e22628e3ff7f49b45cfcc8486ee30068eca1a29a955e1de38eed888b83f97",
        "3f689ff8272212d9e10e7aa41e4a3c55f34dd2037ad3583b897d694aef52b9e7"),
    "benign_gamepad_game.json": (
        "562ece575b3db695d80dc0b2d5973d942c200a565108e3b87862a13d618fd14d",
        "dffdf03812df5045d8801c0cc7150ab608b46333d634b86fd2f2ed95b8a2c320"),
    "benign_maps.json": (
        "2d2a5cb61cfeef9f9b0d345b1dd55500ef3cb65f9e7e1d6fde2363b8a03b4cd1",
        "8b8160a0a1522e455c080ec9f77e1c65946110078903c6dac75f47499c5d70fa"),
    "benign_news_site.json": (
        "d221e6782e4b30c78664578b5ca06656c50191ede92586ed60577709bd8f1fb1",
        "490ab449e6bc19435ffbea3b682de2714ba275479e610c868f1269a4235993aa"),
    "benign_photo_editor.json": (
        "9d567e3f4cf2ec128b5054f1a64e884ead9b0ceaefca8a172facd7a832e5f01f",
        "42ddf1b5d5f5888196cfa6150a40e3fd9e34709ff8696079733a83a6afc4c539"),
    "benign_responsive_page.json": (
        "837ff496c33c00f9ba2d07f9349c02648d27dcdf7d7cd63f2cd8255c41081ec3",
        "5ceecddc3eace2215e766c26b9ed9e8457cd5288b1c9cef12202568e9ef95ddf"),
    "benign_tts_reader.json": (
        "beed7040903ad3da25458ce0ce319cdf8b94231de03da2a63a65b4071aa59475",
        "1f42e61562362fbc9237d57bdc8a37e77e8095a68b8c8d006a8db5b65ac7a655"),
    "benign_video_call.json": (
        "271302b30de9eba1f3390fabede895cee10f9bbef58db942261104e85ec8f237",
        "f300c546b029cf0cb3e53fd0f21fc3bc80a7c617c2a216abb5d4192d08a50e92"),
    "benign_webgl_game.json": (
        "ee300ec8cc441593ee0b7f3642af28f0f6a347a1ab34ca0c1c2db46ef11ed174",
        "bffa7ca21e266f89ee50dd49a0fac7ecc4efb0c14be45044e5a1704d1afeacf8"),
    "fp_audio_navigator.json": (
        "a713f38aba2678b98830e44bdcbfd240f4df00a6b58d31c2e974be0a90be1a2c",
        "06fbafc4d409ba27157863eb3f735ac0eeae7b7285f100b03f2168bdbb2e21b2"),
    "fp_battery_hardware.json": (
        "af8d4a70ff0021c318134da8b4fdf6cd64bc15e792e4211fe791692981dbf40d",
        "a3608d64ddfc855b6aa3f81becb629039564e8be3c144c1814cce8fed725181f"),
    "fp_bot_detector.json": (
        "16614adefe3abf2dfd288d8fd8a63831ceb3fc6032aa06b77b0c7079742a5303",
        "09a2522f0089a025359927647d87385f3d972e9642a79da7d050a033d5b8eff7"),
    "fp_canvas_audio_mix.json": (
        "3e673bc8e53325172e67c7bcf21308c358aa104284b2502475fe494e3c409ac2",
        "85f05b27c18f90febb453d042c1f1ceb6f7560013b62272ebee32fd38d063756"),
    "fp_font_enumeration.json": (
        "875bdf74a08deaaabccaaa40a4f69d01e2a873aed6feb15493830e8f1e02f740",
        "567a7759bf6f36753a71f10c76f96182d07b86a10589bbf950890e3760095519"),
    "fp_fullsuite_library.json": (
        "2d99291d3f7c9ab5ecd20bba59f2862a5df83989d7eab2c56abf89fe6651e2c7",
        "e146be66068c60804cb4f761193d0a8dcd325a78f77d8c4099e83277e976bd71"),
    "fp_locale_screen.json": (
        "571ab48f8869e2ddf079bc0266ce2b1c41658229a98db44dd242b4deb2d457b8",
        "52e4a0ace8d338ff547ddb78bedd4b9d0d3b2ad9569462effdd8b2851b45dd18"),
    "fp_panopticon_style.json": (
        "3160bf61bfe1835be102f7c7e8d91784ceeb9a152907f7e817df9fb00c83d4fe",
        "25c53161e121ad5cc4633d737c2276e749cb54fc1888fedad15cb96b795ac0ff"),
    "fp_sensor_probe.json": (
        "02db12bba502698d065f14830c41950a2402991ea903a73e9793305b00f1f49d",
        "2bc471c24d1e2ae7806a6461855ae3c7e82c54e943e7bbbf40f765014d8815f1"),
    "fp_speech_canvas.json": (
        "fff69f5b1df15393369a4a9b85c409b8895c686b9094429b6620d4bde9632737",
        "7feb97d842cbd31154bd4b274f9b9995032f0f0cf527a9c81fff96d028e4a207"),
    "fp_webgl_report.json": (
        "c115f5c6126cd6cf1b9080ab8752cb67ef5ea937400e507d69b71aa4f20e4e34",
        "2a69047c7cc26178218aef26c327718eb40f13f0ca4c1158491ce2f6b7cbe7f9"),
    "fp_webrtc_leak.json": (
        "75d62ecb45212d399656ba33680c6c1d463e92d34991bd97118f8d299240416d",
        "ec06659d8b4da96fa2d1c3bab23077aca0850bb3f1dfe759e024b33daf7f170a"),
}

# Three levels deep: "outer" stays quiet although both of its subgroups
# fire, "side" fires through its subgroup "deep", and the root's 0.1 leaf
# makes the score depend on the order of float addition.
NESTED_CONFIG = {"version": 1, "root": {"name": "r", "threshold": 7.0, "children": [
    {"weight": 1.0, "group": {"name": "outer", "threshold": 100.0, "children": [
        {"weight": 1.0, "group": {"name": "inner_a", "threshold": 2.0, "children": [
            {"weight": 2.0, "endpoint": "A1"}, {"weight": 1.0, "endpoint": "A2"}]}},
        {"weight": 1.0, "group": {"name": "inner_b", "threshold": 1.0, "children": [
            {"weight": 1.0, "endpoint": "B1"}]}},
        {"weight": 1.0, "endpoint": "O"}]}},
    {"weight": 2.0, "group": {"name": "side", "threshold": 3.0, "children": [
        {"weight": 1.0, "group": {"name": "deep", "threshold": 1.0, "children": [
            {"weight": 1.5, "endpoint": "D", "min_calls": 2}]}},
        {"weight": 2.0, "endpoint": "S"}]}},
    {"weight": 0.1, "endpoint": "R"}]}}
NESTED_TRACES = {
    "detected": [("A1", 1), ("A2", 1), ("B1", 1), ("O", 1), ("D", 3), ("S", 1),
                 ("R", 1), ("U", 4)],
    "quiet": [("A1", 1), ("A2", 1), ("D", 1)],
}
NESTED_GOLDEN = {  # trace -> (stdout, report group order, fired_groups)
    "detected": (
        "page: p\n"
        "verdict: fingerprinting detected (score 7.1, severity red)\n"
        "group inner_a [fired]\n  A1: 1\n  A2: 1\n"
        "group inner_b [fired]\n  B1: 1\n"
        "group outer [quiet]\n  O: 1\n"
        "group deep [fired]\n  D: 3\n"
        "group side [fired]\n  S: 1\n"
        "group r [fired]\n  R: 1\n"
        "unclassified endpoints:\n  U: 4\n"
        "directive: BlockSubsequentAsyncRequests\n"
        "directive: ClearPageStorage\n",
        ["inner_a", "inner_b", "outer", "deep", "side", "r"],
        ("inner_a", "inner_b", "deep", "side", "r")),
    "quiet": (
        "page: p\n"
        "verdict: not detected (score 0, severity green)\n"
        "group inner_a [fired]\n  A1: 1\n  A2: 1\n"
        "group deep [quiet]\n  D: 1\n",
        ["inner_a", "deep"],
        ("inner_a",)),
}


class TestFpdGolden:
    @pytest.mark.parametrize("name", sorted(FPD_GOLDEN))
    def test_corpus_output(self, runner, tmp_path, name):
        from importlib import resources

        trace = tmp_path / name
        trace.write_text(
            resources.files("webshield.data").joinpath(f"fpd_corpus/{name}").read_text()
        )
        report = tmp_path / "report.json"
        result = runner.invoke(main, ["fpd", "analyze", "--trace", str(trace),
                                      "--mode", "block", "--report", str(report)])
        assert result.exit_code == 0
        assert (hashlib.sha256(result.stdout.encode()).hexdigest(),
                hashlib.sha256(report.read_bytes()).hexdigest()) == FPD_GOLDEN[name]

    def test_corpus_is_pinned_whole(self):
        from importlib import resources

        corpus = resources.files("webshield.data").joinpath("fpd_corpus").iterdir()
        assert sorted(p.name for p in corpus) == sorted(FPD_GOLDEN)

    @pytest.mark.parametrize("trace_name", sorted(NESTED_TRACES))
    def test_nested_config_output(self, runner, tmp_path, trace_name):
        (tmp_path / "c.json").write_text(json.dumps(NESTED_CONFIG))
        events = [{"t_ms": float(i), "endpoint": e, "count": c}
                  for i, (e, c) in enumerate(NESTED_TRACES[trace_name])]
        (tmp_path / "t.json").write_text(json.dumps({"page": "p", "events": events}))
        report = tmp_path / "report.json"
        result = runner.invoke(main, [
            "fpd", "analyze", "--trace", str(tmp_path / "t.json"), "--config",
            str(tmp_path / "c.json"), "--mode", "block", "--report", str(report)])
        assert result.exit_code == 0
        stdout, groups, fired = NESTED_GOLDEN[trace_name]
        assert result.stdout == stdout
        assert [g["name"] for g in json.loads(report.read_text())["groups"]] == groups
        _state, verdict, _report = analyze_trace(
            {"page": "p", "events": events}, load_fpd_config(NESTED_CONFIG))
        assert verdict.fired_groups == fired


class TestNbsCli:
    def test_check_blocks_loopback_target(self, runner):
        result = runner.invoke(
            main,
            ["nbs", "check", "--origin-class", "public", "--target", "127.0.0.1:6666",
             "--resolved", "127.0.0.1", "--mode", "preresolve"],
        )
        assert result.exit_code == 0
        assert result.stdout.startswith("Block")

    def test_check_allows_public_target(self, runner):
        result = runner.invoke(
            main,
            ["nbs", "check", "--target", "site.example", "--resolved", "93.184.216.34"],
        )
        assert result.exit_code == 0
        assert result.stdout.startswith("Allow")

    def test_check_learn_mode_first_contact(self, runner):
        result = runner.invoke(
            main,
            ["nbs", "check", "--target", "new.example", "--mode", "learn"],
        )
        assert result.exit_code == 0
        assert result.stdout.startswith("AllowAndLearn")

    def test_check_resolves_when_not_given(self, runner):
        result = runner.invoke(
            main,
            ["nbs", "check", "--target", "localhost:8080", "--mode", "preresolve"],
        )
        assert result.exit_code == 0
        assert result.stdout.startswith("Block")

    def test_check_unresolvable_is_domain_error(self, runner):
        result = runner.invoke(
            main,
            ["nbs", "check", "--target", "no-such-host.invalid", "--mode", "preresolve"],
        )
        assert result.exit_code == 1

    def test_check_blocks_host_with_one_crossing_address(self, runner, mixed_resolver):
        result = runner.invoke(main, ["nbs", "check", "--target", f"{mixed_resolver}:8080"])
        assert result.exit_code == 0
        assert result.stdout == (
            "Block: request from public origin would cross the network boundary "
            f"into loopback target {mixed_resolver!r}\n"
        )

    @pytest.mark.parametrize("target", ["site.example:abc", "site.example:70000"])
    @pytest.mark.parametrize("mode", ["preresolve", "learn"])
    def test_check_bad_port_is_domain_error(self, runner, target, mode):
        result = runner.invoke(
            main, ["nbs", "check", "--target", target, "--mode", mode,
                   "--resolved", "93.184.216.34"]
        )
        assert result.exit_code == 1
        assert "bad port" in result.output

    @pytest.mark.parametrize("target,message", [
        (":80", "empty host"), ("[]:80", "empty host"), ("[::1", "malformed IPv6 authority"),
    ])
    def test_check_malformed_authority_is_domain_error(self, runner, target, message):
        result = runner.invoke(main, ["nbs", "check", "--target", target, "--mode", "learn"])
        assert result.exit_code == 1
        assert message in result.output

    @pytest.mark.parametrize("listen", ["127.0.0.1:99999", "127.0.0.1:-1", "127.0.0.1:65536"])
    def test_proxy_listen_port_out_of_range_is_usage_error(self, runner, listen):
        result = runner.invoke(main, ["nbs", "proxy", "--listen", listen])
        assert_clean_exit(result, 2, f"invalid listen address: {listen!r}")

    def test_proxy_stops_cleanly_on_sigterm_right_after_its_banner(self):
        import signal
        import subprocess
        import sys

        for _ in range(3):  # the race this pins was lost about 8 times in 10
            process = subprocess.Popen(
                [sys.executable, "-u", "-m", "webshield", "nbs", "proxy",
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            assert process.stdout.readline().startswith("listening on ")
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=10)
            assert process.returncode == 0

    def test_proxy_listens_on_bracketed_ipv6(self, ipv6_loopback):
        import http.client
        import signal
        import subprocess
        import sys

        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "webshield", "nbs", "proxy",
             "--listen", f"[{ipv6_loopback}]:0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            banner = process.stdout.readline()
            assert banner.startswith(f"listening on [{ipv6_loopback}]:"), banner
            port = int(banner.split()[2].rsplit(":", 1)[1])
            conn = http.client.HTTPConnection(ipv6_loopback, port, timeout=10)
            conn.request("GET", "http://127.0.0.1:9/probe")
            assert conn.getresponse().status == 403
            conn.close()
        finally:
            process.send_signal(signal.SIGTERM)
            process.communicate(timeout=10)
        assert process.returncode == 0

    @pytest.mark.parametrize(
        "target",
        ["[::1]:8080", "[::1]", "::1"],
    )
    def test_check_v6_loopback_target_forms(self, runner, target):
        result = runner.invoke(
            main, ["nbs", "check", "--target", target, "--mode", "learn"]
        )
        assert result.exit_code == 0
        assert result.stdout.startswith("Block")
