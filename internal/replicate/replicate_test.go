package replicate

import (
	"bytes"
	"errors"
	"testing"
)

var roundTripCases = []Message{
	{Kind: KindHello, Epoch: 7, Seq: 123456, Bootstrap: true},
	{Kind: KindHello},
	{Kind: KindHeartbeat, Seq: 1<<63 + 17},
	{Kind: KindSnapshot, Seq: 42, Payload: []byte(`{"v":1}`)},
	{Kind: KindSnapshot, Seq: 0, Payload: []byte{}},
	{Kind: KindEvent, Seq: 9000, Payload: []byte{0x01, 0x00, 0xff}},
}

func TestMessageRoundTrip(t *testing.T) {
	for i, want := range roundTripCases {
		got, err := Decode(want.AppendTo(nil))
		if err != nil {
			t.Fatalf("case %d: Decode: %v", i, err)
		}
		if got.Kind != want.Kind || got.Epoch != want.Epoch || got.Seq != want.Seq ||
			got.Bootstrap != want.Bootstrap || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("case %d: round trip %+v -> %+v", i, want, got)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{frameFormat},
		{99, KindHello, 0, 0, 0},                 // unknown format
		{frameFormat, 77, 0, 0, 0},               // unknown kind
		{frameFormat, KindHello, 0x80},           // truncated epoch varint
		{frameFormat, KindHello, 0, 0x80},        // truncated seq varint
		{frameFormat, KindHello, 0, 0},           // missing flags
		{frameFormat, KindHello, 0, 0, 0, 0xAB},  // trailing bytes on hello
		{frameFormat, KindHeartbeat, 0, 0, 0, 1}, // trailing bytes on heartbeat
		// Non-canonical encodings of frames AppendTo writes differently.
		{frameFormat, KindHeartbeat, 0x80, 0x00, 0x05, 0x00}, // padded epoch varint
		{frameFormat, KindHeartbeat, 0x00, 0x85, 0x00, 0x00}, // padded seq varint
		{frameFormat, KindHeartbeat, 0x01, 0x05, 0xfe},       // flag bits beyond bit 0
	}
	for i, p := range bad {
		if _, err := Decode(p); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("case %d (% x): err = %v, want ErrBadFrame", i, p, err)
		}
	}
}

// FuzzDecodeMessage feeds arbitrary bytes to the frame decoder, which
// parses what a follower trusts off the wire: it must never panic,
// every rejection wraps ErrBadFrame, and every accepted payload
// re-encodes byte for byte, so no message has two encodings.
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range roundTripCases {
		f.Add(m.AppendTo(nil))
	}
	f.Add([]byte{frameFormat, KindHeartbeat, 0x80, 0x00, 0x05, 0x00})
	f.Add([]byte{frameFormat, KindHeartbeat, 0x01, 0x05, 0xfe})
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := Decode(p)
		if err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("% x: err %v, want ErrBadFrame", p, err)
			}
			return
		}
		if got := m.AppendTo(nil); !bytes.Equal(got, p) {
			t.Fatalf("% x decodes to %+v, which re-encodes to % x", p, m, got)
		}
	})
}

func TestEpochPersistence(t *testing.T) {
	dir := t.TempDir()
	e, err := LoadEpoch(dir)
	if err != nil || e != 1 {
		t.Fatalf("LoadEpoch fresh dir = (%d, %v), want (1, nil) — the first term", e, err)
	}
	if err := SaveEpoch(dir, 41); err != nil {
		t.Fatalf("SaveEpoch: %v", err)
	}
	if err := SaveEpoch(dir, 42); err != nil {
		t.Fatalf("SaveEpoch overwrite: %v", err)
	}
	e, err = LoadEpoch(dir)
	if err != nil || e != 42 {
		t.Fatalf("LoadEpoch = (%d, %v), want (42, nil)", e, err)
	}
}
