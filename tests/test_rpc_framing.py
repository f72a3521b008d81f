"""Tests for the RPC wire layer: codecs, length-prefixed frames, envelopes,
retry schedules, and the fault injector's rule engine."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rpc.errors import FrameError
from repro.rpc.faults import FaultInjector, FaultRule
from repro.rpc.framing import (
    BLOB_BUDGET_BYTES,
    BLOB_FLAG,
    MAX_FRAME_BYTES,
    STAGE_BYTES,
    JsonCodec,
    available_codecs,
    decode_frame,
    default_codec_name,
    encode_frame,
    frame_parts,
    get_codec,
)
from repro.rpc.messages import Request, Response, correlation_ids
from repro.rpc.retry import RetryPolicy

from tests.conftest import Frames, parse_frames


class TestCodecs:
    def test_json_always_available(self):
        assert "json" in available_codecs()
        assert get_codec("json") is JsonCodec

    def test_default_codec_is_available(self):
        assert default_codec_name() in available_codecs()

    def test_unknown_codec_rejected(self):
        with pytest.raises(FrameError):
            get_codec("protobuf")

    @pytest.mark.parametrize("name", sorted(available_codecs()))
    def test_roundtrip(self, name):
        codec = get_codec(name)
        obj = {"kind": "req", "id": "x-1", "params": {"keys": ["a", "b"], "n": 3}}
        assert codec.decode(codec.encode(obj)) == obj


class TestFrames:
    def test_roundtrip(self):
        obj = {"hello": "world", "n": [1, 2, 3]}
        decoded, consumed = decode_frame(encode_frame(obj))
        assert decoded == obj
        assert consumed == len(encode_frame(obj))

    def test_frames_are_self_describing(self):
        # Every codec's frame decodes without knowing the codec up front.
        for name in available_codecs():
            decoded, _ = decode_frame(encode_frame({"n": 1}, get_codec(name)))
            assert decoded == {"n": 1}

    def test_truncated_frame_rejected(self):
        frame = encode_frame({"k": "v"})
        with pytest.raises(FrameError):
            decode_frame(frame[:-1])

    def test_short_header_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\x00\x00")

    def test_unknown_codec_id_rejected(self):
        frame = bytearray(encode_frame({"k": "v"}))
        frame[4] = 250  # stomp the codec byte
        with pytest.raises(FrameError):
            decode_frame(bytes(frame))

    def test_oversize_length_rejected(self):
        with pytest.raises(FrameError):
            decode_frame(b"\xff\xff\xff\xff" + b"x" * 16)

    def test_two_frames_back_to_back(self):
        buf = encode_frame({"i": 1}) + encode_frame({"i": 2})
        first, consumed = decode_frame(buf)
        second, _ = decode_frame(buf[consumed:])
        assert (first, second) == ({"i": 1}, {"i": 2})


class TestFrameReader:
    def test_reads_stream_of_frames(self):
        data = encode_frame({"i": 1}) + encode_frame({"i": 2})
        assert parse_frames(data) == [{"i": 1}, {"i": 2}]  # then a clean EOF

    def test_eof_mid_frame_is_an_error(self):
        with pytest.raises(FrameError, match="mid-frame"):
            parse_frames(encode_frame({"i": 1})[:-2])

class TestEnvelopes:
    def test_request_roundtrip(self):
        req = Request("id-1", "multi_get", {"keys": ["a"]}, src="n0", dst="n1")
        assert Request.from_wire(req.to_wire()) == req

    def test_response_roundtrip(self):
        resp = Response.success("id-1", {"entries": {}})
        assert Response.from_wire(resp.to_wire()) == resp

    def test_failure_envelope_names_the_type(self):
        resp = Response.failure("id-2", ValueError("boom"))
        assert resp.error == {"type": "ValueError", "message": "boom"}

    def test_malformed_request_rejected(self):
        with pytest.raises(FrameError):
            Request.from_wire({"kind": "resp", "id": "x"})
        with pytest.raises(FrameError):
            Request.from_wire(["not", "a", "dict"])

    def test_correlation_ids_unique_across_clients(self):
        a, b = correlation_ids(), correlation_ids()
        ids = {next(a) for _ in range(100)} | {next(b) for _ in range(100)}
        assert len(ids) == 200


class TestRetryPolicy:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(attempts=4, base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=10.0, jitter=0.0)
        assert list(policy.backoff_delays(random.Random(0))) == [0.1, 0.2, 0.4]

    def test_backoff_respects_ceiling(self):
        policy = RetryPolicy(attempts=5, base_delay_s=0.1, multiplier=10.0,
                             max_delay_s=0.3, jitter=0.0)
        assert list(policy.backoff_delays(random.Random(0))) == [0.1, 0.3, 0.3, 0.3]

    def test_jitter_stays_in_band_and_is_seeded(self):
        policy = RetryPolicy(attempts=6, base_delay_s=0.1, multiplier=1.0,
                             max_delay_s=0.1, jitter=0.5)
        delays = list(policy.backoff_delays(random.Random(42)))
        assert all(0.05 <= d <= 0.15 for d in delays)
        assert delays == list(policy.backoff_delays(random.Random(42)))

    def test_single_attempt_has_no_backoff(self):
        assert list(RetryPolicy(attempts=1).backoff_delays(random.Random(0))) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=1.0, max_delay_s=0.5)


class TestFaultInjector:
    def test_no_rules_is_a_noop(self):
        inj = FaultInjector()
        plan = inj.plan_send("a", "b")
        assert not plan.drop and not plan.duplicate and plan.delay_s == 0.0
        assert not inj.should_drop_response("a", "b")

    def test_drop_times_budget(self):
        inj = FaultInjector()
        inj.drop_requests(times=2)
        assert inj.plan_send("a", "b").drop
        assert inj.plan_send("a", "b").drop
        assert not inj.plan_send("a", "b").drop  # budget spent
        assert inj.stats.dropped_requests == 2

    def test_pair_matching(self):
        inj = FaultInjector()
        inj.drop_requests(src="a", dst="b")
        assert inj.plan_send("a", "b").drop
        assert not inj.plan_send("b", "a").drop
        assert not inj.plan_send("a", "c").drop

    def test_delay_and_duplicate_compose(self):
        inj = FaultInjector()
        inj.delay_requests(0.01)
        inj.duplicate_requests()
        plan = inj.plan_send("a", "b")
        assert plan.delay_s == pytest.approx(0.01)
        assert plan.duplicate and not plan.drop

    def test_response_drop_is_separate_from_request_drop(self):
        inj = FaultInjector()
        inj.drop_responses(times=1)
        assert not inj.plan_send("a", "b").drop
        assert inj.should_drop_response("a", "b")
        assert not inj.should_drop_response("a", "b")

    def test_partition_is_symmetric_and_heals(self):
        inj = FaultInjector()
        inj.partition("a", "b")
        assert inj.plan_send("a", "b").drop
        assert inj.plan_send("b", "a").drop
        assert inj.should_drop_response("a", "b")
        assert not inj.plan_send("a", "c").drop
        inj.heal("a", "b")
        assert not inj.plan_send("a", "b").drop

    def test_probability_is_seeded(self):
        def run(seed):
            inj = FaultInjector(seed=seed)
            inj.drop_requests(probability=0.5)
            return [inj.plan_send("a", "b").drop for _ in range(50)]

        outcomes = run(1)
        assert outcomes == run(1)
        assert any(outcomes) and not all(outcomes)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule("explode")
        with pytest.raises(ValueError):
            FaultRule("drop", probability=1.5)
        with pytest.raises(ValueError):
            FaultRule("duplicate", direction="response")  # dup is request-only
        with pytest.raises(ValueError):
            FaultRule("drop", times=0)

    def test_heal_requires_both_or_neither(self):
        inj = FaultInjector()
        with pytest.raises(ValueError):
            inj.heal("a")


# --------------------------------------------------------------------- #
# Blob frames: raw payload section behind the BLOB_FLAG bit
# --------------------------------------------------------------------- #

CODECS = sorted(available_codecs())

# Captured from the parent commit (PR 13): the index plane's wire bytes.
GOLDEN_MULTI_PUT_REQUEST = (
    b'\x00\x00\x00\x8c\x00{"kind":"req","id":"c0ffee-7","method":"multi_put",'
    b'"params":{"entries":[["fp-a","meta",3,false],["fp-b","",4,true]]},'
    b'"src":"n0","dst":"n2"}'
)
GOLDEN_DEADLINE_REQUEST = (
    b'\x00\x00\x00\x8a\x00{"kind":"req","id":"c0ffee-8","method":"multi_put",'
    b'"params":{"entries":[["fp-a","meta",3,false]]},'
    b'"src":"n0","dst":"n2","deadline_s":0.5}'
)
GOLDEN_PING_RESPONSE = (
    b'\x00\x00\x00X\x00{"kind":"resp","id":"c0ffee-9","ok":true,'
    b'"result":{"node":"n1","up":true},"error":null}'
)


def blob_frame(header: bytes, section: bytes = b"", codec_byte: int = 0x80) -> bytes:
    """A hand-built blob frame, for feeding the decoder things the
    encoder would never write."""
    body = bytes([codec_byte]) + struct.pack(">I", len(header)) + header + section
    return struct.pack(">I", len(body)) + body


def read_all(data: bytes) -> list:
    """Every message the connection reader yields from a stream holding
    ``data``, delivered whole and again a byte per read."""
    messages = parse_frames(data)
    assert parse_frames(data, cuts=range(len(data))) == messages
    return messages


class TestGoldenBytes:
    """Frames without blobs are byte-for-byte the parent commit's."""

    def test_multi_put_request(self):
        request = Request(
            "c0ffee-7", "multi_put",
            {"entries": [["fp-a", "meta", 3, False], ["fp-b", "", 4, True]]},
            src="n0", dst="n2",
        )
        assert encode_frame(request.to_wire()) == GOLDEN_MULTI_PUT_REQUEST
        assert frame_parts(request.to_wire()) == [GOLDEN_MULTI_PUT_REQUEST]
        assert Request.from_wire(decode_frame(GOLDEN_MULTI_PUT_REQUEST)[0]) == request

    def test_deadline_request(self):
        request = Request(
            "c0ffee-8", "multi_put", {"entries": [["fp-a", "meta", 3, False]]},
            src="n0", dst="n2", deadline_s=0.5,
        )
        assert encode_frame(request.to_wire()) == GOLDEN_DEADLINE_REQUEST

    def test_ping_response(self):
        response = Response.success("c0ffee-9", {"node": "n1", "up": True})
        assert encode_frame(response.to_wire()) == GOLDEN_PING_RESPONSE
        assert read_all(GOLDEN_PING_RESPONSE) == [response.to_wire()]

    def test_blobs_never_enter_the_envelope(self):
        request = Request("id-1", "put_chunks", {"fingerprints": ["a"]}, blobs=(b"x",))
        response = Response.success("id-1", {"found": ["a"]}, blobs=(b"x",))
        assert "blobs" not in request.to_wire()
        assert "blobs" not in response.to_wire()


class TestBlobFrames:
    @pytest.mark.parametrize("name", CODECS)
    @settings(max_examples=40, deadline=None)
    @given(
        blobs=st.lists(st.binary(max_size=300), max_size=6),
        params=st.dictionaries(st.text(max_size=4), st.integers(-5, 5), max_size=3),
    )
    def test_roundtrip_every_codec(self, name, blobs, params):
        codec = get_codec(name)
        message = {"kind": "req", "id": "x-1", "params": params}
        frame = encode_frame(message, codec, blobs)
        assert frame == b"".join(frame_parts(message, codec, blobs))
        decoded, consumed = decode_frame(frame + b"trailing")
        assert consumed == len(frame)
        assert decoded.pop("blobs", ()) == tuple(blobs)
        assert decoded == message
        assert bool(frame[4] & BLOB_FLAG) == bool(blobs)
        [streamed] = read_all(frame)
        assert streamed.pop("blobs", ()) == tuple(blobs)
        assert streamed == message

    @pytest.mark.parametrize("name", CODECS)
    def test_flagged_frame_with_zero_blobs_decodes(self, name):
        codec = get_codec(name)
        frame = blob_frame(codec.encode({"id": "z", "blobs": []}), b"", codec.wire_id | 0x80)
        assert decode_frame(frame) == ({"id": "z", "blobs": ()}, len(frame))
        assert read_all(frame) == [{"id": "z", "blobs": ()}]

    @pytest.mark.parametrize("name", CODECS)
    def test_blob_bytes_on_the_wire_are_the_payload_itself(self, name):
        payload = bytes(range(256)) * 3
        frame = encode_frame({"id": "s"}, get_codec(name), [payload])
        assert frame.endswith(payload) and frame.count(payload) == 1

    def test_sender_hands_blobs_over_uncopied(self):
        blobs = [b"a" * 100, b"", b"b" * 50]
        head, *rest = frame_parts({"id": "p"}, JsonCodec, blobs)
        assert all(sent is given for sent, given in zip(rest, blobs))
        assert int.from_bytes(head[:4], "big") == len(head) - 4 + 150

    def test_receiver_returns_bytes_not_views_of_the_read_buffer(self):
        decoded, _ = decode_frame(encode_frame({"id": "p"}, JsonCodec, [b"abc", b"de"]))
        assert decoded["blobs"] == (b"abc", b"de")
        assert all(type(blob) is bytes for blob in decoded["blobs"])

    def test_unknown_codec_id_behind_the_flag(self):
        with pytest.raises(FrameError, match="unknown codec id 122"):
            decode_frame(blob_frame(b'{"blobs":[]}', codec_byte=0x80 | 122))

    def test_header_length_overrunning_the_frame(self):
        good = blob_frame(b'{"blobs":[]}')
        bad = good[:5] + struct.pack(">I", 13) + good[9:]  # header is 12 bytes
        with pytest.raises(FrameError, match="overruns"):
            decode_frame(bad)
        with pytest.raises(FrameError, match="overruns"):
            read_all(bad)
        with pytest.raises(FrameError, match="too short"):
            decode_frame(struct.pack(">I", 3) + b"\x80\x00\x00")

    @pytest.mark.parametrize(
        "lengths",
        ["[-1, 4]", "[1.5, 1.5]", "[true, 2]", '["3"]', "[2]", "[4]", "[1, 1]", "null", "3", '{"0": 3}'],
    )
    def test_blob_lengths_that_do_not_add_up(self, lengths):
        frame = blob_frame(b'{"id":"q","blobs":%s}' % lengths.encode(), b"abc")
        with pytest.raises(FrameError, match="blob lengths"):
            decode_frame(frame)
        with pytest.raises(FrameError, match="blob lengths"):
            read_all(frame)

    def test_header_must_be_a_message_with_blob_lengths(self):
        for header in (b"[3]", b'"abc"', b'{"id":"q"}'):
            with pytest.raises(FrameError, match="blob lengths"):
                decode_frame(blob_frame(header, b"abc"))

    @pytest.mark.parametrize("name", CODECS)
    def test_wrong_codec_payload_is_a_frame_error(self, name):
        codec = get_codec(name)
        garbage = b"\xc1\xff{{{ not a message"
        with pytest.raises(FrameError, match="undecodable"):
            decode_frame(blob_frame(garbage, b"", codec.wire_id | 0x80))
        with pytest.raises(FrameError, match="undecodable"):
            read_all(struct.pack(">I", 1 + len(garbage)) + bytes([codec.wire_id]) + garbage)

    @pytest.mark.parametrize("name", CODECS)
    def test_truncation_at_every_byte(self, name):
        """Mid-header, mid-section, anywhere: a cut frame is a FrameError;
        only a cut exactly at a frame boundary is a clean EOF."""
        frame = encode_frame({"id": "t", "n": 1}, get_codec(name), [b"abcd", b"", b"xyz"])
        for cut in range(1, len(frame)):
            with pytest.raises(FrameError):
                decode_frame(frame[:cut])
            with pytest.raises(FrameError):
                read_all(frame[:cut])
            with pytest.raises(FrameError):
                read_all(frame + frame[:cut])
        assert read_all(b"") == []
        assert len(read_all(frame + frame)) == 2

    def test_oversize_refused_on_encode_before_any_join(self):
        # Two blobs that each fit but together do not: nothing is joined,
        # nothing near the limit is allocated (bytes(n) is lazily zeroed).
        half = bytes(MAX_FRAME_BYTES // 2)
        with pytest.raises(FrameError, match="exceeds limit"):
            frame_parts({"id": "big"}, JsonCodec, [half, half])
        with pytest.raises(FrameError, match="exceeds limit"):
            encode_frame({"id": "big"}, JsonCodec, [half, half])
        assert BLOB_BUDGET_BYTES * 2 <= MAX_FRAME_BYTES

    def test_oversize_refused_on_read_before_the_body(self):
        """The length prefix alone condemns the frame: the reader never
        asks the connection for the body, so nothing is allocated for it."""
        frames = Frames()
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(FrameError, match="bad frame body length"):
            frames.feed(header)
        assert len(frames.get_buffer(-1)) == STAGE_BYTES  # still the stage
        with pytest.raises(FrameError, match="exceeds limit"):
            decode_frame(struct.pack(">I", MAX_FRAME_BYTES + 1) + b"\x80")

    def test_envelopes_pick_the_blobs_up(self):
        wire = Request("id-1", "put_chunks", {"fingerprints": ["a", "b"]}).to_wire()
        decoded, _ = decode_frame(encode_frame(wire, JsonCodec, [b"A", b"BB"]))
        request = Request.from_wire(decoded)
        assert request.blobs == (b"A", b"BB") and request.params == {"fingerprints": ["a", "b"]}
        wire = Response.success("id-1", {"found": ["a"]}).to_wire()
        decoded, _ = decode_frame(encode_frame(wire, JsonCodec, [b"A"]))
        assert Response.from_wire(decoded) == Response.success("id-1", {"found": ["a"]}, (b"A",))
        with pytest.raises(FrameError):  # un-flagged frame smuggling a non-sequence
            Request.from_wire({**wire, "kind": "req", "method": "m", "blobs": 5})


# --------------------------------------------------------------------- #
# The connection reader: frames decoded in place from a staging buffer
# --------------------------------------------------------------------- #

# Whole-frame sizes around the stage: tiny, just under, exactly, just over
# and twice it (only JSON hits them to the byte).
FRAME_SIZES = [40, STAGE_BYTES - 1, STAGE_BYTES, STAGE_BYTES + 1, 2 * STAGE_BYTES + 3]
BLOB_SIZES = [0, 7, 1000, STAGE_BYTES - 300, STAGE_BYTES + 5]


def sized_frame(i: int, codec, size: int, blob_sizes: list) -> tuple[dict, bytes]:
    """Message ``i`` and its frame: padded to ``size`` bytes without blobs,
    else carrying blobs of ``blob_sizes``."""
    blobs = [bytes([i % 251]) * n for n in blob_sizes]
    message = {"id": f"m{i}", "pad": ""}
    if not blobs:
        message["pad"] = "x" * max(0, size - len(encode_frame(message, codec)))
    frame = encode_frame(message, codec, blobs)
    return ({**message, "blobs": tuple(blobs)} if blobs else message), frame


class TestFrameReaderSplits:
    @settings(max_examples=30, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(
                st.sampled_from(CODECS),
                st.sampled_from(FRAME_SIZES),
                st.lists(st.sampled_from(BLOB_SIZES), max_size=3),
            ),
            min_size=1,
            max_size=5,
        ),
        data=st.data(),
    )
    def test_any_split_yields_exactly_the_encoded_messages(self, specs, data):
        built = [
            sized_frame(i, get_codec(codec), size, blob_sizes)
            for i, (codec, size, blob_sizes) in enumerate(specs)
        ]
        stream = b"".join(frame for _, frame in built)
        cuts = data.draw(st.lists(st.integers(0, len(stream)), max_size=12))
        views = data.draw(st.booleans())
        assert parse_frames(stream, cuts, blob_views=views) == [m for m, _ in built]

    def test_exact_sizes_cross_the_stage_boundary(self):
        for size in FRAME_SIZES[1:4]:
            message, frame = sized_frame(0, JsonCodec, size, [])
            assert len(frame) == size
            assert parse_frames(frame + frame, cuts=[3, size - 1, size + 5]) == [message] * 2

    def test_only_a_frame_past_the_stage_hands_out_views(self):
        small = encode_frame({"id": "s"}, JsonCodec, [b"abc", b"de"])
        big_blob = bytes(range(256)) * (STAGE_BYTES // 256)
        big = encode_frame({"id": "b"}, JsonCodec, [b"abc", big_blob])
        staged, own = parse_frames(small + big, blob_views=True)
        assert all(type(blob) is bytes for blob in staged["blobs"])
        assert own["blobs"] == (b"abc", big_blob)
        assert all(type(blob) is memoryview and blob.readonly for blob in own["blobs"])
        assert own["blobs"][0].obj is own["blobs"][1].obj  # one buffer, no copies
        _, own_copied = parse_frames(small + big)
        assert all(type(blob) is bytes for blob in own_copied["blobs"])


def _hostile_frames() -> dict[str, bytes]:
    put = encode_frame({"id": "h", "method": "put_chunks"}, JsonCodec, [b"abc"])
    cases = {
        "zero length": struct.pack(">I", 0),
        "oversize length": b"\xff\xff\xff\xff" + b"x" * 16,
        "unknown codec id": encode_frame({"k": "v"})[:4] + b"\xfa" + encode_frame({"k": "v"})[5:],
        "undecodable payload": struct.pack(">I", 4) + b"\x00{{{",
        "short header": b"\x00\x00",
        "truncated": put[:-1],
        "unknown codec behind the flag": blob_frame(b'{"blobs":[]}', codec_byte=0x80 | 122),
        "blob header overruns": blob_frame(b'{"blobs":[]}')[:5] + struct.pack(">I", 13)
        + blob_frame(b'{"blobs":[]}')[9:],
        "blob frame too short": struct.pack(">I", 3) + b"\x80\x00\x00",
        "blob lengths do not add up": put.replace(b'"blobs":[3]', b'"blobs":[9]'),
        "header is not a message": blob_frame(b"[3]", b"abc"),
        "header has no lengths": blob_frame(b'{"id":"q"}', b"abc"),
        # The same violations in frames too big for the stage.
        "big lengths do not add up": blob_frame(
            b'{"blobs":[%d]}' % (STAGE_BYTES + 1), b"x" * STAGE_BYTES
        ),
        "big undecodable": struct.pack(">I", STAGE_BYTES + 1) + b"\x00" + b"{" * STAGE_BYTES,
        "big truncated": encode_frame({"id": "t"}, JsonCodec, [b"y" * STAGE_BYTES])[:-1],
    }
    for lengths in ("[-1, 4]", "[1.5, 1.5]", "[true, 2]", '["3"]', "null", '{"0": 3}'):
        cases[f"blob lengths {lengths}"] = blob_frame(
            b'{"id":"q","blobs":%s}' % lengths.encode(), b"abc"
        )
    return cases


HOSTILE = _hostile_frames()


class TestFrameReaderRefuses:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_every_hostile_frame_is_a_frame_error(self, name):
        hostile = HOSTILE[name]
        good = encode_frame({"id": "ok"})
        for cuts in ((), range(0, len(hostile) + len(good), 997), (len(good) + 2,)):
            with pytest.raises(FrameError):
                parse_frames(good + hostile, cuts)

    def test_nothing_is_parsed_after_the_error(self):
        received = []

        class Once(Frames):
            def frame_error(self, exc):
                received.append(exc)

        frames = Once()
        frames.feed(encode_frame({"i": 1}) + HOSTILE["zero length"] + encode_frame({"i": 2}))
        frames.feed(encode_frame({"i": 3}))
        frames.eof_received()
        assert frames.messages == [{"i": 1}] and len(received) == 1


class TestWriteParts:
    def test_a_socket_that_takes_part_of_a_frame_gets_the_rest_in_order(self):
        """A small send buffer and a peer that has not read yet: writev
        takes a prefix (possibly ending inside a blob), the transport queues
        the tail, and a second frame queues behind it through writelines.
        The peer then reads both frames byte for byte."""
        import asyncio
        import socket

        from repro.rpc import framing

        blobs = [bytes([i % 256]) * (1000 + 7 * i) for i in range(1500)]  # ~9 MiB, 1 501 buffers
        first = frame_parts({"id": "first"}, JsonCodec, blobs)
        second = frame_parts({"id": "second"}, JsonCodec, blobs[:3])
        expected = b"".join(first) + b"".join(second)

        async def run():
            loop = asyncio.get_running_loop()
            ours, theirs = socket.socketpair()
            ours.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 64 * 1024)
            theirs.setblocking(False)
            transport, _ = await loop.create_connection(asyncio.Protocol, sock=ours)
            try:
                framing.write_parts(transport, first)
                queued = transport.get_write_buffer_size()
                framing.write_parts(transport, second)
                received = bytearray()
                while len(received) < len(expected):
                    received += await asyncio.wait_for(loop.sock_recv(theirs, 1 << 20), 5)
                return queued, bytes(received)
            finally:
                transport.close()
                theirs.close()
                await asyncio.sleep(0)

        queued, received = asyncio.run(run())
        assert 0 < queued < len(b"".join(first))  # part went straight out, the rest queued
        assert received == expected
        frames = Frames()
        frames.feed(received)
        assert [m["id"] for m in frames.messages] == ["first", "second"]
        assert frames.messages[0]["blobs"] == tuple(blobs)
