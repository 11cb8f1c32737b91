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

FIXED_SESSION = "00" * 32
ORIGIN = "https://a.example"


@pytest.fixture
def runner():
    return CliRunner()


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
