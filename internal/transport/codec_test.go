package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"testing"
)

// addFuzzSeeds seeds a decoder fuzz corpus with one data frame and one
// heartbeat frame in codec's wire format.
func addFuzzSeeds(f *testing.F, codec Codec) {
	for _, m := range []Message{
		{Image: 7, Volume: 3, Lo: 10, Hi: 42, Payload: integerRows(16)},
		{Image: 2, Volume: VolHeartbeat, Lo: 5},
	} {
		var buf bytes.Buffer
		if err := codec.NewEncoder(&buf).Encode(&m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
}

// checkDecode decodes every message in data and holds the decoder to its
// contract on arbitrary bytes: no panic, no payload past maxFrame, and
// every decoded message re-encodes and decodes to itself.
func checkDecode(t *testing.T, codec Codec, data []byte) {
	dec := codec.NewDecoder(bytes.NewReader(data), nil)
	for {
		var m Message
		if err := dec.Decode(&m); err != nil {
			return
		}
		if len(m.Payload) > maxFrame {
			t.Fatalf("decoded a %d-byte payload, limit %d", len(m.Payload), maxFrame)
		}
		var buf bytes.Buffer
		if err := codec.NewEncoder(&buf).Encode(&m); err != nil {
			t.Fatalf("re-encode %+v: %v", m, err)
		}
		var back Message
		if err := codec.NewDecoder(&buf, nil).Decode(&back); err != nil {
			t.Fatalf("re-decode %+v: %v", m, err)
		}
		if !sameMessage(m, back) {
			t.Fatalf("re-encoded %+v decoded as %+v", m, back)
		}
	}
}

func FuzzBinaryDecode(f *testing.F) {
	addFuzzSeeds(f, Binary())
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, Binary(), data) })
}

func FuzzDeflateDecode(f *testing.F) {
	addFuzzSeeds(f, Deflate())
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, Deflate(), data) })
}

// TestBinaryDecodeGrowsLargePayloads checks payloads past readStep: they
// decode intact, and a header claiming maxFrame bytes over a stream that
// ends early costs about readStep of allocation, not the claim.
func TestBinaryDecodeGrowsLargePayloads(t *testing.T) {
	for _, pool := range []*Pool{nil, NewPool()} {
		want := testMessage(3*readStep + 5)
		var buf bytes.Buffer
		if err := Binary().NewEncoder(&buf).Encode(&want); err != nil {
			t.Fatal(err)
		}
		var got Message
		if err := Binary().NewDecoder(&buf, pool).Decode(&got); err != nil || !sameMessage(want, got) {
			t.Fatalf("pool %v: %d-byte payload: err %v, got %d bytes", pool != nil, len(want.Payload), err, len(got.Payload))
		}
	}

	var buf bytes.Buffer
	if err := Binary().NewEncoder(&buf).Encode(&Message{Payload: make([]byte, 64)}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	binary.LittleEndian.PutUint32(frame[17:21], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var m Message
	err := Binary().NewDecoder(bytes.NewReader(frame), nil).Decode(&m)
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated maxFrame claim: %v, want unexpected EOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*readStep {
		t.Errorf("truncated maxFrame claim allocated %d bytes", grew)
	}
}
