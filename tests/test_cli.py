import json
import random

import pytest

from agcodec import decoder
from agcodec.cli import build_parser, main, trace_lines
from agcodec.code import format_vector
from agcodec.decoder import STATUS_LOW_CONFIDENCE, decode

from conftest import FIXTURES
from support import MK_FAMILIES

CODE_ARGS = ["--code", str(FIXTURES / "hermitian_q3_u16.json")]
VECTOR = str(FIXTURES / "received_vector_q3.txt")


def drop_timing(text):
    return "\n".join(ln for ln in text.splitlines()
                     if not ln.startswith("# mean_decode_ms"))


class TestCodec:
    def test_decode_bundled_vector(self, tmp_path, capsys):
        out = tmp_path / "message.txt"
        rc = main(["decode", *CODE_ARGS, "--in", VECTOR, "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip() == ",".join(["0"] * 14)
        assert "status: ok" in capsys.readouterr().out

    def test_encode_zero_message(self, tmp_path):
        msg = tmp_path / "message.txt"
        out = tmp_path / "codeword.txt"
        msg.write_text(",".join(["0"] * 14) + "\n")
        rc = main(["encode", *CODE_ARGS, "--in", str(msg), "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip() == ",".join(["0"] * 27)

    def test_roundtrip_random_message(self, tmp_path, code_q3, capsys):
        rng = random.Random(21)
        elems = code_q3.field.elements()
        message = [elems[rng.randrange(9)] for _ in range(14)]
        msg_in = tmp_path / "m.txt"
        cw = tmp_path / "c.txt"
        msg_out = tmp_path / "m2.txt"
        msg_in.write_text(format_vector(message) + "\n")
        assert main(["encode", *CODE_ARGS, "--in", str(msg_in),
                     "--out", str(cw)]) == 0
        assert main(["decode", *CODE_ARGS, "--in", str(cw),
                     "--out", str(msg_out)]) == 0
        assert msg_out.read_text().strip() == format_vector(message)
        capsys.readouterr()

    def test_parse_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0,oops," + ",".join(["0"] * 25) + "\n")
        rc = main(["decode", *CODE_ARGS, "--in", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column 3" in err

    def test_wrong_length_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0,1,2\n")
        assert main(["decode", *CODE_ARGS, "--in", str(bad)]) == 1
        capsys.readouterr()

    def test_non_ascii_digit_exit_1(self, tmp_path, capsys):
        # an Arabic-Indic one is a Unicode digit but not a field element
        bad = tmp_path / "bad.txt"
        bad.write_text("0,\u0661," + ",".join(["0"] * 25) + "\n",
                       encoding="utf-8")
        assert main(["decode", *CODE_ARGS, "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "column 3" in err and "malformed field element token" in err

    def test_token_above_prime_exit_1(self, tmp_path, capsys):
        # GF(9) has prime subfield {0, 1, 2}: "3" is malformed, not 0
        tokens = (FIXTURES / "received_vector_q3.txt").read_text().split(",")
        bad = tmp_path / "bad.txt"
        bad.write_text(",".join(["3"] + tokens[1:]) + "\n")
        assert main(["decode", *CODE_ARGS, "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "column 1" in err \
            and "malformed field element token" in err

    def test_failed_verification_exit_2(self, tmp_path, code_q3, capsys):
        rng = random.Random(0)
        elems = code_q3.field.elements()
        v = [code_q3.field.zero] * 27
        for pos in rng.sample(range(27), 10):
            v[pos] = elems[rng.randrange(1, 9)]
        vec = tmp_path / "far.txt"
        vec.write_text(format_vector(v) + "\n")
        rc = main(["decode", *CODE_ARGS, "--in", str(vec),
                   "--out", str(tmp_path / "m.txt")])
        assert rc == 2
        assert "failed-verification" in capsys.readouterr().out

    def test_inline_hermitian_args(self, tmp_path):
        msg = tmp_path / "m.txt"
        msg.write_text(",".join(["0"] * 4) + "\n")
        out = tmp_path / "c.txt"
        rc = main(["encode", "--hermitian-q", "2", "--u", "4",
                   "--in", str(msg), "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip() == ",".join(["0"] * 8)

    def test_missing_code_exit_1(self, tmp_path, capsys):
        msg = tmp_path / "m.txt"
        msg.write_text("0\n")
        assert main(["encode", "--in", str(msg)]) == 1
        capsys.readouterr()
        # a config missing a key, or with a malformed entry, names it
        mk = {"type": "mk", "field": {"p": 7}, "a": 2, "b": 3, "d": "1",
              "u": 4}
        cases = [
            ({"type": "hermitian"}, '"q"'),
            ({"type": "hermitian", "q": 3, "u": 16, "points": [["a"]]},
             "points[0]"),
            ({**mk, "field": {"m": 1}}, '"field.p"'),
            ({"type": "hermitian", "q": None}, "q:"),
            # every integer key takes JSON integers only, never truncating
            ({"type": "hermitian", "q": 3.7, "u": 16}, "q: expected an integer"),
            ({**mk, "a": 2.0}, "a: expected an integer"),
            ({**mk, "field": {"p": "7"}}, "field.p: expected an integer"),
            ({**mk, "d": 1}, "d: malformed field element token 1"),
            # a decimal token must be below p, never read mod p
            ({**mk, "d": "8"}, "d: malformed field element token '8'"),
            ([mk], "JSON object"),
            ({**mk, "coeffs": 5}, "coeffs:"),
            ({**mk, "coeffs": [[0, 1]]}, "coeffs[0]"),
            ({**mk, "coeffs": [[0, "1", "1"]]}, "coeffs[0]"),
            ({**mk, "coeffs": [[0, 1, "b"]]}, "coeffs[0]"),
            ({**mk, "field": {"p": 7, "m": [2]}}, "field.m"),
            ({**mk, "field": {"p": 7, "modulus": 7}}, "field.modulus"),
            ({**mk, "field": {"p": 7, "m": 2, "modulus": [10, 1, 1]}},
             "lie in [0, 7), got [10, 1, 1]"),
            ({"type": "hermitian", "q": 3, "u": 16, "points": 5}, "points:"),
            # an empty point list is refused, not read as a code with n = 0
            ({"type": "hermitian", "q": 3, "u": 16, "points": []}, "points:"),
            # radius checks explicit points as the code does
            ({"type": "hermitian", "q": 2, "u": 4,
              "points": [["0", "0"], ["0", "0"]]}, "duplicate points"),
            ({"type": "hermitian", "q": 2, "u": 4, "points": [["1", "0"]]},
             "not on the curve"),
            # a huge prime is rejected by the order cap, not trial division
            ({**mk, "field": {"p": 2 ** 61 - 1}}, "exceeds cap"),
            ({"type": "hermitian", "q": 2 ** 61 - 1, "u": 4}, "exceeds cap"),
            # a repeated term would overwrite the earlier one
            ({**mk, "coeffs": [[0, 0, "1"], [0, 0, "2"]]},
             "coeffs[1]: duplicate term (0, 0)"),
            # radius checks a given u as the code does, though its table
            # does not depend on u
            ({"type": "hermitian", "q": 3, "u": "abc"},
             "u: expected an integer, got 'abc'"),
            ({"type": "hermitian", "q": 3, "u": [1]},
             "u: expected an integer, got [1]"),
            ({"type": "hermitian", "q": 3, "u": 1000},
             "u must be an integer with 0 < u < n = 27, got 1000"),
            ({**mk, "u": 0}, "u must be an integer with 0 < u < n = 6, got 0"),
        ] + [({k: v for k, v in mk.items() if k != key}, f'"{key}"')
             for key in ("a", "b", "d")]
        cfg = tmp_path / "code.json"
        for config, named in cases:
            cfg.write_text(json.dumps(config))
            for argv in (["radius"], ["encode", "--in", str(msg)]):
                assert main([*argv, "--code", str(cfg)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("agcodec: error:") and named in err

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        # a misspelled key is refused by name, never silently dropped
        mk = {"type": "mk", "field": {"p": 7}, "a": 2, "b": 3, "d": "1",
              "u": 4}
        cases = [
            ({"type": "hermitian", "q": 2, "u": 3,
              "point": [["0", "0"]]}, '"point"'),
            ({**mk, "coef": []}, '"coef"'),
            ({**mk, "field": {"p": 7, "modulos": [3, 6, 1]}},
             '"field.modulos"'),
        ]
        cfg = tmp_path / "code.json"
        for config, named in cases:
            cfg.write_text(json.dumps(config))
            assert main(["radius", "--code", str(cfg)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("agcodec: error:")
            assert f"unknown code config key {named}" in captured.err

    def test_huge_curve_weight_exit_1(self, tmp_path, capsys):
        # refused by the weight cap before a table of a entries is built
        cfg = tmp_path / "code.json"
        cfg.write_text(json.dumps({"type": "mk", "field": {"p": 5},
                                   "a": 1000000000, "b": 1, "d": "1",
                                   "u": 3}))
        assert main(["radius", "--code", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("agcodec: error:") and "exceed cap" in err

    def test_generator_step_weight_exit_1(self, tmp_path, capsys):
        # weights this large would need gigabytes in the ideal build's
        # first generator lists: refused by the cap before it starts
        cfg = tmp_path / "code.json"
        cfg.write_text(json.dumps({"type": "mk", "field": {"p": 2},
                                   "a": 1023, "b": 1024, "d": "1", "u": 1}))
        assert main(["radius", "--code", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("agcodec: error:")
        assert "exceed cap" in captured.err

    def test_deeply_nested_config_exit_1(self, tmp_path, capsys):
        # too deep for the JSON parser: a diagnostic, not a RecursionError
        cfg = tmp_path / "deep.json"
        cfg.write_text("[" * 200000 + "]" * 200000)
        assert main(["radius", "--code", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("agcodec: error:") and "nested" in err

    def test_conflicting_code_args_exit_1(self, tmp_path, capsys):
        msg = tmp_path / "m.txt"
        msg.write_text("0\n")
        rc = main(["encode", *CODE_ARGS, "--hermitian-q", "3", "--u", "16",
                   "--in", str(msg)])
        assert rc == 1
        capsys.readouterr()
        # the --code file sets u, so --u beside it is refused, not ignored
        for argv in (["encode", "--in", str(msg)], ["decode", "--in", VECTOR],
                     ["simulate", "--trials", "1", "--weight", "0"],
                     ["trace", "--in", VECTOR], ["radius"]):
            assert main([*argv, *CODE_ARGS, "--u", "3"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("agcodec: error:")
            assert "a --code file sets u" in err


class TestTrace:
    def test_header_and_key_records(self, tmp_path):
        out = tmp_path / "trace.txt"
        rc = main(["trace", *CODE_ARGS, "--in", VECTOR,
                   "--trace-out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# agcodec trace v1"
        assert lines[1] == "# code: n=27 k=14 u=16 d=11"
        by_s = {}
        for ln in lines[2:]:
            by_s[ln.split()[0]] = ln
        assert by_s["s=32"] == "s=32 G=[x^9] F=[z] W=- tallies=- w=-"
        assert "F=[a^1*x*z,a^1*y*z]" in by_s["s=31"]
        assert by_s["s=16"].endswith("W=[0,a^7] tallies=[0:2,a^7:1] w=0")
        assert "s=-1" in by_s

    def test_matches_golden_file(self, tmp_path):
        golden = FIXTURES / "trace_q3_golden.txt"
        out = tmp_path / "trace.txt"
        main(["trace", *CODE_ARGS, "--in", VECTOR, "--trace-out", str(out)])
        assert out.read_text() == golden.read_text()


    def test_failed_verification_exit_2(self, tmp_path, code_q3):
        # the decode of TestCodec.test_failed_verification_exit_2, traced:
        # the same exit code, and the trace is written in full
        rng = random.Random(0)
        elems = code_q3.field.elements()
        v = [code_q3.field.zero] * 27
        for pos in rng.sample(range(27), 10):
            v[pos] = elems[rng.randrange(1, 9)]
        vec = tmp_path / "far.txt"
        vec.write_text(format_vector(v) + "\n")
        out = tmp_path / "trace.txt"
        rc = main(["trace", *CODE_ARGS, "--in", str(vec),
                   "--trace-out", str(out)])
        assert rc == 2
        lines, _ = trace_lines(code_q3, v)
        assert out.read_text() == "\n".join(lines) + "\n"


class TestRadius:
    def test_table(self, capsys):
        rc = main(["radius", "--hermitian-q", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "# agcodec radius v1"
        rows = dict(tuple(map(int, ln.split()))
                    for ln in lines if not ln.startswith("#"))
        assert rows[16] == 11
        assert all(d >= 27 - u for u, d in rows.items())

    def test_inline_u_checked(self, capsys):
        # a valid u leaves the table as it is without one; an invalid one is
        # refused with the message encode gives
        main(["radius", "--hermitian-q", "3"])
        table = capsys.readouterr().out
        assert main(["radius", "--hermitian-q", "3", "--u", "16"]) == 0
        assert capsys.readouterr().out == table
        for u in ("-5", "0", "27"):
            assert main(["radius", "--hermitian-q", "3", "--u", u]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("agcodec: error: u must be an integer "
                                    f"with 0 < u < n = 27, got {u}\n")

    def test_nongap_note_in_header(self, capsys):
        main(["radius", "--hermitian-q", "3"])
        out = capsys.readouterr().out
        assert "nongap u" in out
        assert all(u not in (1, 2, 5)
                   for u in (int(ln.split()[0]) for ln in out.splitlines()
                             if not ln.startswith("#")))


class TestSimulate:
    def test_zero_weight_all_succeed(self, capsys):
        rc = main(["simulate", *CODE_ARGS, "--trials", "50", "--weight", "0",
                   "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "successes=50 failures=0" in out
        assert out.startswith("# agcodec simulate v1")
        assert "prng: mt19937" in out

    def test_weight_five_within_guarantee(self, capsys):
        rc = main(["simulate", *CODE_ARGS, "--trials", "200", "--weight", "5",
                   "--seed", "7"])
        assert rc == 0
        assert "successes=200 failures=0" in capsys.readouterr().out

    def test_reproducible_for_fixed_seed(self, capsys):
        args = ["simulate", *CODE_ARGS, "--trials", "4", "--weight", "5",
                "--seed", "11"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert drop_timing(first) == drop_timing(second)

    def test_mk_curve_at_full_radius(self, tmp_path, capsys):
        # y^2 + x + 3 + x^3 = 0 over GF(7) has d = 1, not -1; u = 2 gives
        # n = 9, d_2 = 7, so weight 3 is the full radius
        cfg = tmp_path / "mk.json"
        cfg.write_text(json.dumps({**MK_FAMILIES["a2-gf7"], "u": 2}))
        rc = main(["simulate", "--code", str(cfg), "--trials", "200",
                   "--weight", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "# code: n=9 k=2 u=2 d=7" in out
        assert "successes=200 failures=0" in out

    def test_invalid_weight_exit_1(self, capsys):
        rc = main(["simulate", *CODE_ARGS, "--trials", "1", "--weight", "99"])
        assert rc == 1
        capsys.readouterr()

    def test_counts_failures_beyond_the_radius(self, capsys):
        # weight 6 is past t = 5 on Hermitian q=3, u=16: most trials fail,
        # and a failed trial still exits 0
        rc = main(["simulate", "--hermitian-q", "3", "--u", "16",
                   "--trials", "40", "--weight", "6", "--seed", "7"])
        assert rc == 0
        assert "successes=3 failures=37 low_confidence=0" in \
            capsys.readouterr().out

    def test_zero_trials_exit_1(self, capsys):
        rc = main(["simulate", *CODE_ARGS, "--trials", "0", "--weight", "1"])
        assert rc == 1
        assert "trials must be >= 1" in capsys.readouterr().err


class TestLowConfidence:
    """Within the radius every vote is a strict majority, so no word there
    reaches the ``low-confidence`` status; here the vote at s = 0, which
    every decode makes, is wrapped to report a margin of 0."""

    @pytest.fixture(autouse=True)
    def tied_vote(self, monkeypatch):
        plain_vote = decoder.vote

        def vote(code, s, state):
            record = plain_vote(code, s, state)
            return record._replace(margin=0) if s == 0 else record

        monkeypatch.setattr(decoder, "vote", vote)

    def test_decode_reports_it(self, code_q3, received_q3):
        result = decode(code_q3, received_q3)
        assert result.status == STATUS_LOW_CONFIDENCE
        assert result.message == (code_q3.field.zero,) * code_q3.k
        assert result.distance == 5
        assert [r.s for r in result.votes if r.margin == 0] == [0]

    def test_cli_decode_exits_0_with_the_status(self, tmp_path, capsys):
        out = tmp_path / "message.txt"
        rc = main(["decode", *CODE_ARGS, "--in", VECTOR, "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip() == ",".join(["0"] * 14)
        assert "status: low-confidence" in capsys.readouterr().out

    def test_simulate_counts_every_trial(self, capsys):
        rc = main(["simulate", *CODE_ARGS, "--trials", "3", "--weight", "5",
                   "--seed", "7"])
        assert rc == 0
        assert "successes=3 failures=0 low_confidence=3" in \
            capsys.readouterr().out


class TestSharedParser:
    def test_calls_in_sequence_match_fresh_calls(self, tmp_path, capsys):
        # the parser is built once; a usage error between calls leaves it
        # as a freshly built one
        msg = tmp_path / "message.txt"
        msg.write_text(",".join(["1"] + ["0"] * 13) + "\n")
        calls = [["encode", *CODE_ARGS, "--in", str(msg)],
                 ["encode", *CODE_ARGS, "--bogus"],
                 ["decode", *CODE_ARGS, "--in", VECTOR],
                 ["radius", *CODE_ARGS]]

        def run(argv, fresh):
            if fresh:
                build_parser.cache_clear()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            captured = capsys.readouterr()
            return rc, captured.out, captured.err

        shared = [run(argv, False) for argv in calls]
        assert build_parser() is build_parser()
        assert shared == [run(argv, True) for argv in calls]
        assert [rc for rc, _, _ in shared] == [0, 1, 0, 0]
