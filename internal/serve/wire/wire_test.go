package wire

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
)

// TestLenRoundTrip drives AppendLen/ReadLen across the power-of-two
// size-class thresholds, checking the value, the consumed byte count,
// and that the encoder picked the shortest form.
func TestLenRoundTrip(t *testing.T) {
	cases := []struct {
		v    uint64
		size int
	}{
		{0x00, 1}, {0x01, 1}, {0x3e, 1}, {0x3f, 1},
		{0x40, 2}, {0x41, 2}, {0xfe, 2}, {0xff, 2}, {0x100, 2}, {0x101, 2},
		{0x1ffe, 2}, {0x1fff, 2}, {0x2000, 2}, {0x2001, 2}, {0x3fff, 2},
		{0x4000, 4}, {0x4001, 4},
		{0xfffe, 4}, {0xffff, 4}, {0x10000, 4}, {0x10001, 4},
		{0xffffe, 4}, {0xfffff, 4}, {0x100000, 4},
		{0x3fffffff, 4},
		{0x40000000, 9}, {0x40000001, 9},
		{1 << 40, 9}, {math.MaxUint64 - 1, 9}, {math.MaxUint64, 9},
	}
	for _, tc := range cases {
		enc := AppendLen(nil, tc.v)
		if len(enc) != tc.size {
			t.Fatalf("value %#x encoded to %d bytes, want %d", tc.v, len(enc), tc.size)
		}
		got, n, err := ReadLen(enc)
		if err != nil {
			t.Fatalf("value %#x: ReadLen error %v", tc.v, err)
		}
		if got != tc.v || n != len(enc) {
			t.Fatalf("value %#x round-tripped to %#x (consumed %d of %d)", tc.v, got, n, len(enc))
		}
		// With trailing data present the reader must consume exactly the
		// header.
		got, n, err = ReadLen(append(enc, 0xAA, 0xBB))
		if err != nil || got != tc.v || n != len(enc) {
			t.Fatalf("value %#x with trailer: got %#x, n=%d, err=%v", tc.v, got, n, err)
		}
	}
}

// TestLenTruncated: every strict prefix of an encoded header errors
// instead of misreading.
func TestLenTruncated(t *testing.T) {
	for _, v := range []uint64{0x40, 0x4000, 0x40000000, math.MaxUint64} {
		enc := AppendLen(nil, v)
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := ReadLen(enc[:cut]); err == nil {
				t.Fatalf("value %#x truncated to %d bytes decoded without error", v, cut)
			}
		}
	}
	// Reserved tag bytes (11 with any low bit set) are rejected.
	if _, _, err := ReadLen([]byte{0xC1, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("reserved tag byte decoded without error")
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"", "x", "default", strings.Repeat("m", 0x3f),
		strings.Repeat("m", 0x40), strings.Repeat("long", 1<<10)} {
		enc := AppendString(nil, s)
		got, n, err := ReadString(enc)
		if err != nil || got != s || n != len(enc) {
			t.Fatalf("string %q (len %d): got %q, n=%d of %d, err=%v", s[:min(8, len(s))], len(s), got, n, len(enc), err)
		}
	}
	if _, _, err := ReadString(AppendString(nil, "hello")[:3]); err == nil {
		t.Fatal("truncated string decoded without error")
	}
}

func TestFloatRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 3.7500000000000004, 1e-300, math.MaxFloat64,
		math.Inf(1), math.SmallestNonzeroFloat64} {
		enc := AppendFloat(nil, f)
		got, n, err := ReadFloat(enc)
		if err != nil || n != 8 || math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("float %v: got %v (bits %#x vs %#x), err=%v",
				f, got, math.Float64bits(got), math.Float64bits(f), err)
		}
	}
	// NaN round-trips bit-exactly too.
	nan := math.Float64frombits(0x7ff8000000000001)
	got, _, _ := ReadFloat(AppendFloat(nil, nan))
	if math.Float64bits(got) != math.Float64bits(nan) {
		t.Fatal("NaN payload bits not preserved")
	}
}

func sampleRequest() *Request {
	return &Request{
		Registry: "refit-default",
		Table:    []string{"T3D", "broadcast", "", "SP2", "alltoall", "pairwise"},
		Records: []Record{
			{Mach: 0, Op: 1, Alg: 2, P: 8, M: 1024},
			{Mach: 3, Op: 4, Alg: 5, P: 32, M: 0x4000}, // m crosses the 2-byte header threshold
			{Mach: 0, Op: 1, Alg: 2, P: 64, M: 1 << 20},
		},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := sampleRequest()
	enc := req.Append(nil)
	var dec Request
	if err := dec.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if dec.Registry != req.Registry || len(dec.Table) != len(req.Table) || len(dec.Records) != len(req.Records) {
		t.Fatalf("decoded %+v", dec)
	}
	for i := range req.Table {
		if dec.Table[i] != req.Table[i] {
			t.Fatalf("table[%d] = %q, want %q", i, dec.Table[i], req.Table[i])
		}
	}
	for i := range req.Records {
		if dec.Records[i] != req.Records[i] {
			t.Fatalf("record[%d] = %+v, want %+v", i, dec.Records[i], req.Records[i])
		}
	}
	// A pooled Request decodes a second frame reusing its slices.
	second := &Request{Registry: "", Table: []string{"Paragon", "scan", "linear"},
		Records: []Record{{Mach: 0, Op: 1, Alg: 2, P: 4, M: 16}}}
	if err := dec.Decode(second.Append(nil)); err != nil {
		t.Fatal(err)
	}
	if dec.Registry != "" || len(dec.Records) != 1 || dec.Table[0] != "Paragon" {
		t.Fatalf("reused decode %+v", dec)
	}
}

func TestRequestDecodeErrors(t *testing.T) {
	enc := sampleRequest().Append(nil)
	var dec Request
	// Every strict prefix fails cleanly.
	for cut := 0; cut < len(enc); cut++ {
		if err := dec.Decode(enc[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(enc))
		}
	}
	// Trailing garbage is rejected, not ignored.
	if err := dec.Decode(append(append([]byte{}, enc...), 0x00)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
	// JSON posted as binary fails on the magic check.
	if err := dec.Decode([]byte(`{"machine":"T3D"}`)); err != ErrMagic {
		t.Fatalf("JSON body error %v, want ErrMagic", err)
	}
	// A record index past the table is rejected at decode time.
	bad := &Request{Table: []string{"T3D"}, Records: []Record{{Mach: 1, Op: 0, Alg: 0, P: 8, M: 16}}}
	if err := dec.Decode(bad.Append(nil)); err == nil || !strings.Contains(err.Error(), "table entry") {
		t.Fatalf("out-of-table index error %v", err)
	}
}

func sampleResponse() *Response {
	return &Response{
		Registry: "refit-default", Backend: "calibrated", Provenance: strings.Repeat("ab", 32),
		Answers: []Answer{
			{Micros: 123.456},
			{Micros: 3.7500000000000004, HasBound: true,
				Bound: Bound{RelMedian: 0.01, RelMax: 0.05, BasisM: 1024, Points: 4}},
			{Micros: 9e5, HasBound: true,
				Bound: Bound{RelMedian: 0.002, RelMax: 0.2, BasisM: 65536, Points: 8,
					SegmentMMin: 4096, SegmentMMax: 262144}},
			{Micros: 42, Fallback: true,
				FallbackReason: "p=64 m=1 is outside the calibrated range; answered by the exact simulator"},
		},
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := sampleResponse()
	enc := resp.Append(nil)
	var dec Response
	if err := dec.Decode(enc); err != nil {
		t.Fatal(err)
	}
	if dec.Registry != resp.Registry || dec.Backend != resp.Backend || dec.Provenance != resp.Provenance {
		t.Fatalf("envelope %+v", dec)
	}
	if len(dec.Answers) != len(resp.Answers) {
		t.Fatalf("%d answers, want %d", len(dec.Answers), len(resp.Answers))
	}
	for i := range resp.Answers {
		want, got := resp.Answers[i], dec.Answers[i]
		if math.Float64bits(got.Micros) != math.Float64bits(want.Micros) {
			t.Fatalf("answer %d micros bits differ", i)
		}
		if got != want {
			t.Fatalf("answer %d = %+v, want %+v", i, got, want)
		}
	}
	// Incremental encoding (header + per-answer appends, the server's
	// path) produces the same bytes as the whole-frame Append.
	inc := AppendResponseHeader(nil, resp.Registry, resp.Backend, resp.Provenance, len(resp.Answers))
	for _, a := range resp.Answers {
		inc = AppendAnswer(inc, a)
	}
	if !bytes.Equal(inc, enc) {
		t.Fatal("incremental and whole-frame encodings differ")
	}
}

func TestResponseDecodeErrors(t *testing.T) {
	enc := sampleResponse().Append(nil)
	var dec Response
	for cut := 0; cut < len(enc); cut++ {
		if err := dec.Decode(enc[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", cut, len(enc))
		}
	}
	if err := dec.Decode(append(append([]byte{}, enc...), 0xFF)); err == nil {
		t.Fatal("trailing byte decoded without error")
	}
}

// appendLenAs encodes v in a length header of the given width — 1, 2,
// 4 or 9 bytes — whether or not that is the shortest form. Decoders
// must accept the longer forms, which the encoder never emits.
func appendLenAs(dst []byte, v uint64, width int) []byte {
	switch width {
	case 1:
		return append(dst, byte(v))
	case 2:
		return append(dst, tag2|byte(v>>8), byte(v))
	case 4:
		return append(dst, tag4|byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	default:
		return append(dst, tag8,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

// wideFrame encodes req like Append, but writes record field f of
// record i in the header width width(i, f).
func wideFrame(req *Request, width func(i, f int) int) []byte {
	dst := append([]byte{Magic, Version}, 0) // registry ""
	dst = AppendLen(dst, uint64(len(req.Table)))
	for _, s := range req.Table {
		dst = AppendString(dst, s)
	}
	dst = AppendLen(dst, uint64(len(req.Records)))
	for i, rec := range req.Records {
		for f, v := range []int{int(rec.Mach), int(rec.Op), int(rec.Alg), rec.P, rec.M} {
			dst = appendLenAs(dst, uint64(v), width(i, f))
		}
	}
	return dst
}

// wideRequest has record fields small enough for the one-byte header,
// so every wider form of them is non-canonical (5 in 2 bytes, say).
func wideRequest() *Request {
	return &Request{
		Table: []string{"T3D", "broadcast", "", "SP2", "alltoall"},
		Records: []Record{
			{Mach: 0, Op: 1, Alg: 2, P: 5, M: 16},
			{Mach: 3, Op: 4, Alg: 2, P: 32, M: 63},
			{Mach: 0, Op: 1, Alg: 2, P: 8, M: 0},
		},
	}
}

// TestRequestDecodeWideForms: record fields written in the 2-, 4- and
// 9-byte header forms, alone or mixed within a record, decode to the
// same Records as their one-byte equivalents; a wide table index is
// still checked against the table, and a wide value past the 31-bit
// cap or cut short fails as the one-byte path's errors do.
func TestRequestDecodeWideForms(t *testing.T) {
	req := wideRequest()
	var want Request
	if err := want.Decode(req.Append(nil)); err != nil {
		t.Fatal(err)
	}
	for name, width := range map[string]func(i, f int) int{
		"2-byte": func(int, int) int { return 2 },
		"4-byte": func(int, int) int { return 4 },
		"9-byte": func(int, int) int { return 9 },
		"mixed":  func(i, f int) int { return []int{1, 2, 4, 9}[(i+f)%4] },
	} {
		var got Request
		if err := got.Decode(wideFrame(req, width)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("%s: %d records, want %d", name, len(got.Records), len(want.Records))
		}
		for i := range want.Records {
			if got.Records[i] != want.Records[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", name, i, got.Records[i], want.Records[i])
			}
		}
	}

	var dec Request
	bad := &Request{Table: []string{"T3D"}, Records: []Record{{Mach: 5, P: 8, M: 16}}}
	err := dec.Decode(wideFrame(bad, func(int, int) int { return 2 }))
	if err == nil || err.Error() != "wire: record 0 names table entry 5 of 1" {
		t.Fatalf("wide out-of-table index: %v", err)
	}
	huge := wideFrame(&Request{Table: []string{"T3D"}, Records: []Record{{P: 8, M: 16}}}, func(int, int) int { return 9 })
	pAt := len(huge) - 2*9 // p's header: the tag, then eight value bytes, high first
	huge[pAt+4] = 0x01     // p becomes 2^32 + 8
	if err := dec.Decode(huge); err == nil || err.Error() != "wire: record 0 p: wire: value 4294967304 exceeds the 31-bit field cap" {
		t.Fatalf("wide value past the cap: %v", err)
	}
	cut := wideFrame(req, func(int, int) int { return 4 })
	if err := dec.Decode(cut[:len(cut)-2]); !errors.Is(err, ErrShort) || err.Error() != "wire: record 2 m: wire: truncated frame" {
		t.Fatalf("cut wide field: %v", err)
	}
}

// TestRequestDecodeReusesNames: a Request decoding the same names again
// reuses the strings it made before — decoding a warm frame allocates
// nothing — a frame with other names still decodes them exactly, and a
// Request decoded only once pays for no intern set.
func TestRequestDecodeReusesNames(t *testing.T) {
	a, b := sampleRequest().Append(nil), wideRequest().Append(nil)
	var dec Request
	if err := dec.Decode(a); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { dec.Decode(a) }); allocs != 0 {
		t.Fatalf("warm decode allocates %.0f times, want 0", allocs)
	}
	for _, frame := range [][]byte{b, a, b} {
		var fresh Request
		if err := fresh.Decode(frame); err != nil {
			t.Fatal(err)
		}
		if fresh.names != nil {
			t.Fatal("a Request decoded once built an intern set")
		}
		if err := dec.Decode(frame); err != nil {
			t.Fatal(err)
		}
		if dec.Registry != fresh.Registry || strings.Join(dec.Table, "|") != strings.Join(fresh.Table, "|") {
			t.Fatalf("reused decode: %q %q, want %q %q", dec.Registry, dec.Table, fresh.Registry, fresh.Table)
		}
	}
}
