package wire

import (
	"bytes"
	"testing"
)

// fuzzSeedRequest is a representative request frame: a shared string
// table, the default-algorithm alias, and a few grid points.
func fuzzSeedRequest() []byte {
	req := Request{
		Registry: "refit-default",
		Table:    []string{"T3D", "broadcast", "", "SP2", "alltoall", "xor"},
		Records: []Record{
			{Mach: 0, Op: 1, Alg: 2, P: 8, M: 1024},
			{Mach: 3, Op: 4, Alg: 5, P: 32, M: 65536},
			{Mach: 0, Op: 1, Alg: 2, P: 4, M: 0},
		},
	}
	return req.Append(nil)
}

// fuzzSeedResponse exercises every answer shape: plain, fallback with a
// reason, bounded, and bounded with a serving segment.
func fuzzSeedResponse() []byte {
	resp := Response{
		Registry: "refit-default", Backend: "calibrated", Provenance: "seed=3",
		Answers: []Answer{
			{Micros: 12.5},
			{Micros: 99000.25, Fallback: true, FallbackReason: "out of calibrated range"},
			{Micros: 7.75, HasBound: true, Bound: Bound{RelMedian: 0.01, RelMax: 0.05, BasisM: 1024, Points: 4}},
			{Micros: 3.5, HasBound: true, Bound: Bound{
				RelMedian: 0.02, RelMax: 0.08, BasisM: 16, Points: 8, SegmentMMin: 1, SegmentMMax: 4096}},
		},
	}
	return resp.Append(nil)
}

// FuzzWireDecode throws arbitrary bytes at both frame decoders. The
// invariants: no panic on any input, and any frame a decoder accepts
// must re-encode and re-decode to the identical canonical bytes (the
// encoder is the codec's single source of truth, so accept → encode
// must be a fixed point).
func FuzzWireDecode(f *testing.F) {
	f.Add(fuzzSeedRequest())
	f.Add(fuzzSeedResponse())
	f.Add([]byte{})
	f.Add([]byte{Magic})
	f.Add([]byte{Magic, Version})
	f.Add([]byte{Magic, Version, 0x00, 0x00, 0x00})
	// Record fields in the wider header forms, including non-canonical
	// ones such as 5 in two bytes, which the decoder reads outside its
	// one-byte fast path.
	for _, w := range []int{2, 4, 9} {
		f.Add(wideFrame(wideRequest(), func(int, int) int { return w }))
	}
	f.Add(wideFrame(wideRequest(), func(i, fld int) int { return []int{1, 2, 4, 9}[(i+fld)%4] }))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := req.Decode(data); err == nil {
			b1 := req.Append(nil)
			var req2 Request
			if err := req2.Decode(b1); err != nil {
				t.Fatalf("re-encoded request frame does not decode: %v", err)
			}
			if b2 := req2.Append(nil); !bytes.Equal(b1, b2) {
				t.Fatalf("request re-encode is not a fixed point: %d vs %d bytes", len(b1), len(b2))
			}
		}
		var resp Response
		if err := resp.Decode(data); err == nil {
			b1 := resp.Append(nil)
			var resp2 Response
			if err := resp2.Decode(b1); err != nil {
				t.Fatalf("re-encoded response frame does not decode: %v", err)
			}
			if b2 := resp2.Append(nil); !bytes.Equal(b1, b2) {
				t.Fatalf("response re-encode is not a fixed point: %d vs %d bytes", len(b1), len(b2))
			}
		}
	})
}
