package service

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/wire"
)

func TestEventCodecRoundTrip(t *testing.T) {
	harvest := 1.5
	alpha := 0.25
	tiny := 5e-324 // smallest subnormal: raw-bits transport must not lose it
	cases := []struct {
		name string
		ev   journalEvent
	}{
		{"report", journalEvent{op: evReport, reports: []wire.DeviceReport{
			{Device: 0, ConsumedJ: 0.001},
			{Device: 300, ConsumedJ: tiny},
			{Device: 7, ConsumedJ: math.MaxFloat64},
		}}},
		{"report_empty", journalEvent{op: evReport, reports: []wire.DeviceReport{}}},
		{"step", journalEvent{op: evStep, device: 3, value: harvest}},
		{"step_device_zero", journalEvent{op: evStep, device: 0, value: harvest}},
		{"alpha", journalEvent{op: evAlpha, device: 1 << 20, value: alpha}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload, err := encodeEvent(nil, &tc.ev)
			if err != nil {
				t.Fatalf("encode: %v", err)
			}
			got, err := decodeEvent(payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(*got, tc.ev) {
				t.Errorf("round trip changed the event:\n got %+v\nwant %+v", *got, tc.ev)
			}
		})
	}
}

func TestEventCodecRejectsInvalid(t *testing.T) {
	harvest := 1.5
	valid, err := encodeEvent(nil, &journalEvent{op: evStep, device: 3, value: harvest})
	if err != nil {
		t.Fatal(err)
	}

	bad := map[string][]byte{
		"empty":          {},
		"format_only":    {evFormat},
		"unknown_format": {99, evStep},
		"unknown_op":     {evFormat, 99},
		"truncated":      valid[:len(valid)-3],
		"trailing":       append(append([]byte{}, valid...), 0),
		// Report count larger than the bytes that follow could carry.
		"implausible_count": {evFormat, evReport, 0xff, 0xff, 0xff, 0x7f},
		// Varints encodeEvent never writes: zero padded to two bytes, and
		// a device of 2⁶³, which would decode to a negative int.
		"padded_count":    {evFormat, evReport, 0x80, 0x00},
		"padded_device":   append([]byte{evFormat, evStep, 0x80, 0x00}, valid[3:]...),
		"device_overflow": append([]byte{evFormat, evStep, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, valid[3:]...),
	}
	for name, payload := range bad {
		if ev, err := decodeEvent(payload); err == nil {
			t.Errorf("%s: decoded %+v, want error", name, ev)
		}
	}

	// Encoding refuses events that could not replay.
	for name, ev := range map[string]*journalEvent{
		"unknown_op":      {op: 99},
		"negative_device": {op: evStep, device: -1, value: harvest},
		"negative_report": {op: evReport, reports: []wire.DeviceReport{{Device: -2}}},
	} {
		if _, err := encodeEvent(nil, ev); err == nil {
			t.Errorf("encode %s: want error", name)
		}
	}
}

// FuzzDecodeEvent feeds arbitrary bytes to the event decoder: it must
// never panic, and every payload it accepts must re-encode byte for
// byte, so no journal or replication frame can mean two things.
func FuzzDecodeEvent(f *testing.F) {
	harvest, alpha := 1.5, 0.25
	for _, ev := range []*journalEvent{
		{op: evReport, reports: []wire.DeviceReport{{Device: 0, ConsumedJ: 0.001}, {Device: 300, ConsumedJ: 2}}},
		{op: evStep, device: 3, value: harvest},
		{op: evAlpha, device: 1 << 20, value: alpha},
	} {
		payload, err := encodeEvent(nil, ev)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	float := make([]byte, 8)
	f.Add(append([]byte{evFormat, evStep, 0x80, 0x00}, float...))
	f.Add(append([]byte{evFormat, evStep, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, float...))
	f.Fuzz(func(t *testing.T, payload []byte) {
		ev, err := decodeEvent(payload)
		if err != nil {
			return
		}
		again, err := encodeEvent(nil, ev)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload re-encodes differently:\n got %x\nwant %x", again, payload)
		}
	})
}
