package wire

import (
	"bytes"
	"testing"
)

// FuzzReadFrame reads frames off arbitrary byte streams: every input either
// fails or yields a frame that re-encodes to the bytes it was read from, and
// a length prefix never sizes an allocation beyond one chunk ahead of the
// bytes that arrived. Hostile seeds live in testdata/fuzz/FuzzReadFrame.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, THealth, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(append(bytes.Clone(buf.Bytes()), EncodeErr(CodeProto, "bad")...))
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for {
			before := r.Len()
			typ, payload, err := ReadFrame(r)
			if err != nil {
				return
			}
			if cap(payload) > len(payload)+frameChunk {
				t.Fatalf("payload of %d bytes has capacity %d", len(payload), cap(payload))
			}
			var out bytes.Buffer
			if err := WriteFrame(&out, typ, payload); err != nil {
				t.Fatal(err)
			}
			consumed := stream[len(stream)-before : len(stream)-r.Len()]
			if !bytes.Equal(out.Bytes(), consumed) {
				t.Fatalf("frame re-encodes to %x, read from %x", out.Bytes(), consumed)
			}
		}
	})
}

// FuzzDecodeHealth decodes arbitrary THealthInfo payloads: every input either
// fails or decodes to a report that round-trips through Encode. Hostile seeds
// live in testdata/fuzz/FuzzDecodeHealth.
func FuzzDecodeHealth(f *testing.F) {
	f.Add(Health{Role: "replica", Durable: true, Cause: "disk", Generation: 3, Connected: true, MatEnabled: true, MatHits: 9}.Encode())
	f.Add(Health{Role: "primary"}.Encode())
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := DecodeHealth(payload)
		if err != nil {
			return
		}
		again, err := DecodeHealth(h.Encode())
		if err != nil {
			t.Fatalf("re-encoded report does not decode: %v", err)
		}
		if again != h {
			t.Fatalf("round trip changed the report: %+v != %+v", again, h)
		}
	})
}
