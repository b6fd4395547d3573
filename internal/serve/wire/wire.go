// Package wire implements the estimate service's binary codec: the
// length-prefixed frame format POST /v1/estimate negotiates via
// Content-Type (see ContentType). The format exists to close the gap
// between the warm in-process estimation rate and what survives JSON
// encode/decode on the socket: scenario records are fixed-layout, name
// strings travel once per request in a string table that records index
// into, and answers are raw float64 bits — so a batched request costs
// a handful of bytes per scenario instead of a JSON object.
//
// Every variable-size quantity uses the same thresholded length header
// (AppendLen/ReadLen): small values pay one byte, and the header grows
// through 2- and 4-byte forms to a 9-byte escape for full uint64 — the
// encapsulation idiom of codecs that frame high-rate small messages.
//
// # Request frame
//
//	magic (0xE7) | version (0x01)
//	registry     string            "" = server default (or ?registry=)
//	tableLen     len               string-table entry count
//	table        tableLen strings  machine / op / algorithm names
//	recordLen    len               scenario count
//	records      recordLen × { mach len | op len | alg len | p len | m len }
//
// mach/op/alg are indexes into the string table, so each distinct name
// is resolved once per request no matter how many records use it.
//
// # Response frame
//
//	magic (0xE7) | version (0x01)
//	registry, backend, provenance   strings (the envelope / X-Estimate-*)
//	answerLen    len
//	answers      answerLen × answer
//
// One answer is:
//
//	flags  byte     1 = fallback, 2 = bound attached, 4 = bound names a segment
//	micros float64  8-byte little-endian IEEE 754 bits
//	[reason string]                      when flags&1
//	[relMedian, relMax float64,
//	 basisM, points len,
//	 [segMin, segMax len when flags&4]]  when flags&2
//
// Answers preserve request order and echo nothing: the caller already
// knows which scenario each position asked about. Micros and the bound
// statistics are the same float64 bits the JSON encoding prints, so
// binary answers are numerically identical to JSON answers — a golden
// test in the serve package pins this.
//
// Errors are not framed: a non-200 response carries the service's JSON
// error envelope regardless of the request codec, so clients check the
// HTTP status before decoding.
package wire

import (
	"errors"
	"fmt"
	"math"
)

// ContentType is the negotiated media type of both request and
// response frames.
const ContentType = "application/x-estimate-wire"

// Magic and Version open every frame; a decoder rejects anything else,
// so accidentally posting JSON with the binary Content-Type fails fast
// with a clear error instead of a garbage parse.
const (
	Magic   = 0xE7
	Version = 0x01
)

// Length-header size classes, tagged in the top two bits of the first
// byte. Encoders always emit the shortest form.
const (
	tag2 = 0x40 // 01vvvvvv + 1 byte: 14-bit value
	tag4 = 0x80 // 10vvvvvv + 3 bytes: 30-bit value
	tag8 = 0xC0 // 11000000 + 8 bytes: full uint64
)

// Frame-sanity caps: a decoder never allocates more than the remaining
// input can justify, but absurd declared counts fail early with a
// specific error instead of an EOF deep in the record loop.
const (
	maxTable  = 1 << 20 // distinct strings per request
	maxString = 1 << 20 // bytes per table entry / reason string
)

var (
	// ErrShort reports a frame that ends mid-field.
	ErrShort = errors.New("wire: truncated frame")
	// ErrMagic reports a frame that does not start with Magic+Version.
	ErrMagic = errors.New("wire: bad magic or version (not an estimate wire frame)")
)

// AppendLen appends the thresholded length header for v:
// 1 byte below 0x40, 2 below 0x4000, 4 below 0x40000000, 9 otherwise.
func AppendLen(dst []byte, v uint64) []byte {
	switch {
	case v < 1<<6:
		return append(dst, byte(v))
	case v < 1<<14:
		return append(dst, tag2|byte(v>>8), byte(v))
	case v < 1<<30:
		return append(dst, tag4|byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	default:
		return append(dst, tag8,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

// ReadLen decodes one length header from the front of src, returning
// the value and the bytes consumed.
func ReadLen(src []byte) (v uint64, n int, err error) {
	if len(src) == 0 {
		return 0, 0, ErrShort
	}
	b := src[0]
	switch b >> 6 {
	case 0:
		return uint64(b), 1, nil
	case 1:
		if len(src) < 2 {
			return 0, 0, ErrShort
		}
		return uint64(b&0x3F)<<8 | uint64(src[1]), 2, nil
	case 2:
		if len(src) < 4 {
			return 0, 0, ErrShort
		}
		return uint64(b&0x3F)<<24 | uint64(src[1])<<16 | uint64(src[2])<<8 | uint64(src[3]), 4, nil
	default:
		if b != tag8 {
			return 0, 0, fmt.Errorf("wire: reserved length tag 0x%02x", b)
		}
		if len(src) < 9 {
			return 0, 0, ErrShort
		}
		v = uint64(src[1])<<56 | uint64(src[2])<<48 | uint64(src[3])<<40 | uint64(src[4])<<32 |
			uint64(src[5])<<24 | uint64(src[6])<<16 | uint64(src[7])<<8 | uint64(src[8])
		return v, 9, nil
	}
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = AppendLen(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadString decodes one length-prefixed string (a copy, independent
// of src's lifetime).
func ReadString(src []byte) (s string, n int, err error) {
	b, n, err := readBytes(src)
	return string(b), n, err
}

// readBytes decodes one length-prefixed string in place.
func readBytes(src []byte) (b []byte, n int, err error) {
	v, n, err := ReadLen(src)
	if err != nil {
		return nil, 0, err
	}
	if v > maxString {
		return nil, 0, fmt.Errorf("wire: %d-byte string exceeds the %d cap", v, maxString)
	}
	if uint64(len(src)-n) < v {
		return nil, 0, ErrShort
	}
	return src[n : n+int(v)], n + int(v), nil
}

// AppendFloat appends f's IEEE 754 bits, little-endian.
func AppendFloat(dst []byte, f float64) []byte {
	b := math.Float64bits(f)
	return append(dst,
		byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
		byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
}

// ReadFloat decodes one little-endian float64.
func ReadFloat(src []byte) (f float64, n int, err error) {
	if len(src) < 8 {
		return 0, 0, ErrShort
	}
	b := uint64(src[0]) | uint64(src[1])<<8 | uint64(src[2])<<16 | uint64(src[3])<<24 |
		uint64(src[4])<<32 | uint64(src[5])<<40 | uint64(src[6])<<48 | uint64(src[7])<<56
	return math.Float64frombits(b), 8, nil
}

// readInt reads a length header that must fit a non-negative int.
func readInt(src []byte) (int, int, error) {
	v, n, err := ReadLen(src)
	if err != nil {
		return 0, 0, err
	}
	if v > math.MaxInt32 {
		return 0, 0, fmt.Errorf("wire: value %d exceeds the 31-bit field cap", v)
	}
	return int(v), n, nil
}

// Record is one fixed-layout scenario: string-table indexes for the
// names, plus the grid point.
type Record struct {
	Mach, Op, Alg uint32 // indexes into Request.Table
	P, M          int
}

// Request is a decoded request frame. Decode reuses the receiver's
// slices and the names it decoded before, so a pooled Request decodes
// batch after batch without allocating.
type Request struct {
	// Registry names the expression set; "" defers to ?registry= and
	// then the server default.
	Registry string
	// Table holds each distinct machine / op / algorithm name once. An
	// empty string is a valid entry (the default-algorithm alias).
	Table []string
	// Records are the scenarios, in answer order.
	Records []Record

	// names interns the registry and table strings that Decode calls
	// after the first made, so a pooled Request decoding batch after
	// batch over the same names stops allocating them; a Request
	// decoded once builds no set. Bounded by maxNames short names.
	names map[string]string
}

// Name interning bounds: at most maxNames strings of at most
// maxNameLen bytes each stay interned per Request.
const (
	maxNames   = 1024
	maxNameLen = 64
)

// readName is ReadString for the registry and table strings, through
// the Request's intern set when intern is set.
func (r *Request) readName(src []byte, intern bool) (string, int, error) {
	b, n, err := readBytes(src)
	if err != nil {
		return "", 0, err
	}
	if s, ok := r.names[string(b)]; ok {
		return s, n, nil
	}
	s := string(b)
	if intern && len(b) <= maxNameLen && len(r.names) < maxNames {
		if r.names == nil {
			r.names = make(map[string]string)
		}
		r.names[s] = s
	}
	return s, n, nil
}

// Append encodes the request frame.
func (r *Request) Append(dst []byte) []byte {
	dst = append(dst, Magic, Version)
	dst = AppendString(dst, r.Registry)
	dst = AppendLen(dst, uint64(len(r.Table)))
	for _, s := range r.Table {
		dst = AppendString(dst, s)
	}
	dst = AppendLen(dst, uint64(len(r.Records)))
	for _, rec := range r.Records {
		dst = AppendLen(dst, uint64(rec.Mach))
		dst = AppendLen(dst, uint64(rec.Op))
		dst = AppendLen(dst, uint64(rec.Alg))
		dst = AppendLen(dst, uint64(rec.P))
		dst = AppendLen(dst, uint64(rec.M))
	}
	return dst
}

// recordFields suffixes a record field's decode error: the table
// indexes share one message, p and m are named.
var recordFields = [5]string{"", "", "", " p", " m"}

// Decode parses a request frame, validating record indexes against the
// table. The receiver's Table and Records are reused.
func (r *Request) Decode(src []byte) error {
	if len(src) < 2 || src[0] != Magic || src[1] != Version {
		return ErrMagic
	}
	src = src[2:]
	var n int
	var err error
	intern := r.Table != nil // decoded before
	if r.Registry, n, err = r.readName(src, intern); err != nil {
		return fmt.Errorf("wire: registry: %w", err)
	}
	src = src[n:]

	tableLen, n, err := readInt(src)
	if err != nil {
		return fmt.Errorf("wire: table length: %w", err)
	}
	src = src[n:]
	if tableLen > maxTable {
		return fmt.Errorf("wire: %d table entries exceed the %d cap", tableLen, maxTable)
	}
	if tableLen > len(src) { // every entry needs ≥ 1 header byte
		return ErrShort
	}
	r.Table = r.Table[:0]
	for i := 0; i < tableLen; i++ {
		s, n, err := r.readName(src, intern)
		if err != nil {
			return fmt.Errorf("wire: table entry %d: %w", i, err)
		}
		src = src[n:]
		r.Table = append(r.Table, s)
	}

	recordLen, n, err := readInt(src)
	if err != nil {
		return fmt.Errorf("wire: record count: %w", err)
	}
	src = src[n:]
	if recordLen > len(src)/5+1 { // a record is ≥ 5 single-byte fields
		return ErrShort
	}
	r.Records = r.Records[:0]
	for i := 0; i < recordLen; i++ {
		// mach, op, alg, p, m. A one-byte header, the form nearly every
		// field of a batched request takes, is read inline; the other
		// forms go through readInt.
		var f [5]int
		for j := range f {
			v, n := 0, 1
			if len(src) > 0 && src[0] < tag2 {
				v = int(src[0])
			} else if v, n, err = readInt(src); err != nil {
				return fmt.Errorf("wire: record %d%s: %w", i, recordFields[j], err)
			}
			if j < 3 && v >= tableLen {
				return fmt.Errorf("wire: record %d names table entry %d of %d", i, v, tableLen)
			}
			f[j] = v
			src = src[n:]
		}
		r.Records = append(r.Records, Record{
			Mach: uint32(f[0]), Op: uint32(f[1]), Alg: uint32(f[2]), P: f[3], M: f[4],
		})
	}
	if len(src) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after the last record", len(src))
	}
	return nil
}

// Answer flag bits.
const (
	flagFallback = 1 << iota // answered by the exact simulator
	flagBound                // a validated expected-error bound follows
	flagSegment              // the bound names its serving segment
)

// Bound mirrors the JSON answer's expected_error object.
type Bound struct {
	RelMedian, RelMax        float64
	BasisM, Points           int
	SegmentMMin, SegmentMMax int // both zero unless the segment flag is set
}

// Answer is one decoded response position. The answering backend is
// implied: the response header's backend, or the simulator when
// Fallback is set.
type Answer struct {
	Micros         float64
	Fallback       bool
	FallbackReason string
	HasBound       bool
	Bound          Bound
}

// AppendResponseHeader encodes the response frame's envelope for n
// answers; append each answer with AppendAnswer.
func AppendResponseHeader(dst []byte, registry, backend, provenance string, n int) []byte {
	dst = append(dst, Magic, Version)
	dst = AppendString(dst, registry)
	dst = AppendString(dst, backend)
	dst = AppendString(dst, provenance)
	return AppendLen(dst, uint64(n))
}

// AppendAnswer encodes one answer.
func AppendAnswer(dst []byte, a Answer) []byte {
	var bound *Bound
	if a.HasBound {
		bound = &a.Bound
	}
	return AppendAnswerParts(dst, a.Micros, a.Fallback, a.FallbackReason, bound)
}

// AppendAnswerParts encodes one answer from its fields, for callers
// that hold answers in another form; a nil bound encodes none.
func AppendAnswerParts(dst []byte, micros float64, fallback bool, reason string, bound *Bound) []byte {
	var flags byte
	if fallback {
		flags |= flagFallback
	}
	if bound != nil {
		flags |= flagBound
		if bound.SegmentMMin != 0 || bound.SegmentMMax != 0 {
			flags |= flagSegment
		}
	}
	dst = append(dst, flags)
	dst = AppendFloat(dst, micros)
	if fallback {
		dst = AppendString(dst, reason)
	}
	if bound != nil {
		dst = AppendFloat(dst, bound.RelMedian)
		dst = AppendFloat(dst, bound.RelMax)
		dst = AppendLen(dst, uint64(bound.BasisM))
		dst = AppendLen(dst, uint64(bound.Points))
		if flags&flagSegment != 0 {
			dst = AppendLen(dst, uint64(bound.SegmentMMin))
			dst = AppendLen(dst, uint64(bound.SegmentMMax))
		}
	}
	return dst
}

// Response is a decoded response frame.
type Response struct {
	Registry, Backend, Provenance string
	Answers                       []Answer
}

// Append encodes the whole response frame.
func (r *Response) Append(dst []byte) []byte {
	dst = AppendResponseHeader(dst, r.Registry, r.Backend, r.Provenance, len(r.Answers))
	for _, a := range r.Answers {
		dst = AppendAnswer(dst, a)
	}
	return dst
}

// Decode parses a response frame, reusing the receiver's Answers.
func (r *Response) Decode(src []byte) error {
	if len(src) < 2 || src[0] != Magic || src[1] != Version {
		return ErrMagic
	}
	src = src[2:]
	var n int
	var err error
	for _, f := range []*string{&r.Registry, &r.Backend, &r.Provenance} {
		if *f, n, err = ReadString(src); err != nil {
			return fmt.Errorf("wire: response envelope: %w", err)
		}
		src = src[n:]
	}
	count, n, err := readInt(src)
	if err != nil {
		return fmt.Errorf("wire: answer count: %w", err)
	}
	src = src[n:]
	if count > len(src)/9+1 { // an answer is ≥ flags + 8 micros bytes
		return ErrShort
	}
	r.Answers = r.Answers[:0]
	for i := 0; i < count; i++ {
		var a Answer
		if len(src) == 0 {
			return ErrShort
		}
		flags := src[0]
		src = src[1:]
		if a.Micros, n, err = ReadFloat(src); err != nil {
			return fmt.Errorf("wire: answer %d: %w", i, err)
		}
		src = src[n:]
		if flags&flagFallback != 0 {
			a.Fallback = true
			if a.FallbackReason, n, err = ReadString(src); err != nil {
				return fmt.Errorf("wire: answer %d reason: %w", i, err)
			}
			src = src[n:]
		}
		if flags&flagBound != 0 {
			a.HasBound = true
			if a.Bound.RelMedian, n, err = ReadFloat(src); err != nil {
				return fmt.Errorf("wire: answer %d bound: %w", i, err)
			}
			src = src[n:]
			if a.Bound.RelMax, n, err = ReadFloat(src); err != nil {
				return fmt.Errorf("wire: answer %d bound: %w", i, err)
			}
			src = src[n:]
			if a.Bound.BasisM, n, err = readInt(src); err != nil {
				return fmt.Errorf("wire: answer %d bound: %w", i, err)
			}
			src = src[n:]
			if a.Bound.Points, n, err = readInt(src); err != nil {
				return fmt.Errorf("wire: answer %d bound: %w", i, err)
			}
			src = src[n:]
			if flags&flagSegment != 0 {
				if a.Bound.SegmentMMin, n, err = readInt(src); err != nil {
					return fmt.Errorf("wire: answer %d segment: %w", i, err)
				}
				src = src[n:]
				if a.Bound.SegmentMMax, n, err = readInt(src); err != nil {
					return fmt.Errorf("wire: answer %d segment: %w", i, err)
				}
				src = src[n:]
			}
		}
		r.Answers = append(r.Answers, a)
	}
	if len(src) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after the last answer", len(src))
	}
	return nil
}
