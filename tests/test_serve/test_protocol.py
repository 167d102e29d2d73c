"""Wire-schema tests: spec round trips, result digests, request parsing."""

import json

import pytest

from repro.errors import ConfigError
from repro.perf.specs import RunSpec, cache_key
from repro.serve import protocol
from repro.serve.protocol import (
    ProtocolError,
    decode_result,
    encode_result,
    parse_submit_request,
    result_digest,
    spec_from_wire,
    spec_to_wire,
    submit_request,
)


class TestSpecWire:
    def test_round_trip_preserves_cache_key(self):
        spec = RunSpec(
            kind="transactions",
            layout="GS-DRAM",
            params={"mix": (8, 2), "num_tuples": 64, "count": 4},
            seed=7,
            obs="metrics",
        )
        wire = json.loads(json.dumps(spec_to_wire(spec)))  # through JSON
        rebuilt = spec_from_wire(wire)
        assert cache_key(rebuilt) == cache_key(spec)
        assert rebuilt.kind == "transactions"
        assert rebuilt.obs == "metrics"

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown spec field"):
            spec_from_wire({"kind": "patternscan", "bogus": 1})

    def test_missing_kind_rejected(self):
        with pytest.raises(ProtocolError, match="missing required field"):
            spec_from_wire({"layout": "GS-DRAM"})

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            spec_from_wire([1, 2, 3])

    def test_invalid_mode_still_config_error(self):
        """RunSpec's own validation fires through the wire decoder."""
        with pytest.raises(ConfigError):
            spec_from_wire({"kind": "patternscan", "mode": "warp"})
        with pytest.raises(ConfigError, match="mode='event'"):
            spec_from_wire({"kind": "pim", "mode": "fast"})


class TestResultWire:
    def test_encode_decode_round_trip(self):
        record = {"cycles": 123, "values": [1.5, (2, 3)], "blob": b"\x00\x01"}
        wire = encode_result(record)
        assert decode_result(wire) == record

    def test_digest_matches_result_digest_after_decode(self):
        """Transport digest == result_digest of both original and decoded."""
        record = {"row_hits": 15, "nested": {"row_hits": 15}}
        wire = encode_result(record)
        assert wire["digest"] == result_digest(record)
        assert result_digest(decode_result(wire)) == wire["digest"]

    def test_digest_stable_across_round_trips(self):
        import pickle

        record = {"a": [1, 2, 3], "b": "row_hits"}
        once = result_digest(record)
        reloaded = pickle.loads(pickle.dumps(record))
        assert result_digest(reloaded) == once

    def test_stage_wall_times_do_not_perturb_digest(self):
        """Two runs differing only in stage timings digest equal."""
        from repro.harness.patternscan import run_patternscan

        first = run_patternscan("scalar", 2, lines=8, mode="fast")
        second = run_patternscan("scalar", 2, lines=8, mode="fast")
        # Force visibly different wall times on one copy.
        second.result.stages = {name: seconds + 123.0
                                for name, seconds
                                in second.result.stages.items()}
        assert first.result.stages != second.result.stages
        assert result_digest(first) == result_digest(second)
        # The scrub works on a deserialized copy: the caller's record
        # keeps its timings.
        assert second.result.stages["run"] > 100.0

    def test_tampered_payload_detected(self):
        wire = encode_result({"x": 1})
        wire["digest"] = "0" * 64
        with pytest.raises(ProtocolError, match="digest mismatch"):
            decode_result(wire)

    def test_malformed_payload_detected(self):
        with pytest.raises(ProtocolError):
            decode_result({"digest": "0" * 64})


class TestSubmitRequest:
    def _spec(self):
        return RunSpec(kind="patternscan",
                       params={"variant": "scalar", "stride": 2, "lines": 8})

    def test_round_trip(self):
        body = submit_request(self._spec(), client="c1", priority=3,
                              wait=True, timeout=5.0)
        fields = parse_submit_request(json.loads(json.dumps(body)))
        assert fields["client"] == "c1"
        assert fields["priority"] == 3
        assert fields["wait"] is True
        assert fields["timeout"] == 5.0
        assert cache_key(fields["spec"]) == cache_key(self._spec())

    def test_protocol_skew_rejected(self):
        body = submit_request(self._spec())
        body["protocol"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="protocol skew"):
            parse_submit_request(body)

    def test_missing_spec_rejected(self):
        with pytest.raises(ProtocolError, match="missing 'spec'"):
            parse_submit_request({"client": "c"})

    def test_bad_priority_rejected(self):
        body = submit_request(self._spec())
        body["priority"] = "high"
        with pytest.raises(ProtocolError, match="priority"):
            parse_submit_request(body)

    def test_empty_client_rejected(self):
        body = submit_request(self._spec())
        body["client"] = ""
        with pytest.raises(ProtocolError, match="client"):
            parse_submit_request(body)

    def test_shard_key_from_an_old_client_is_ignored(self):
        # Older clients may still send a "shard" key. Unknown submit
        # keys are ignored, so they keep working with no protocol bump.
        body = json.loads(json.dumps(submit_request(self._spec())))
        body["shard"] = 3
        fields = parse_submit_request(body)
        assert "shard" not in fields
        assert cache_key(fields["spec"]) == cache_key(self._spec())

