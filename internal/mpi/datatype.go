// Package mpi implements the subset of the Message Passing Interface the
// paper's experiments use, running over the machine simulator: the world
// communicator only (the paper times every collective over
// MPI_COMM_WORLD on p nodes, one process per node), blocking tagged
// point-to-point messaging whose receives name both source and tag
// exactly, wall-clock time on unsynchronized node clocks, and the seven
// collective operations of Table 1 (plus allgather, allreduce and the
// gatherv the STAP pipeline uses), with MPI_SUM over MPI_FLOAT as the
// one reduction (§2: "the data type of the message elements is always
// MPI_FLOAT").
//
// A program runs in one of two ways:
//
//   - Goroutine ranks (Run, RunCluster): each rank is a goroutine
//     process running the program's code, so it may read the clock and
//     real payloads at any point. STAP, ping-pong, the examples and the
//     tests run this way.
//   - Scripted ranks (Record, then Player): the program runs once per
//     rank with no simulated time, over an in-memory exact-match queue
//     with opaque payloads, and each rank's steps — sends, receives,
//     combines, collective entries, hardware barriers, Wtime marks — are
//     recorded with their cost class and length. A Player then replays
//     a plan of such scripts (each repeated as often as asked, with
//     clock marks between) as scripted processes of the sim kernel. The
//     collectives are deterministic in (operation, algorithm, p, m) and
//     every receive names its source and tag, so the steps do not
//     depend on timing; the replay draws the same jitters, pushes the
//     same events and reproduces the goroutine run bit for bit. The
//     measurement harness (internal/measure) runs every execution so.
//
// Both share one Comm, one collective dispatch and one copy of every
// kernel-side step: message delivery and matching, injection, the
// posted receive's and the rendezvous send's handlers, and the T3D
// hardware barrier.
package mpi

import (
	"encoding/binary"
	"math"
)

// Datatype describes the element type of a message buffer.
type Datatype struct {
	name string
	size int
}

// Name returns the MPI-style type name.
func (d Datatype) Name() string { return d.name }

// Size returns the element size in bytes.
func (d Datatype) Size() int { return d.size }

// Count returns the number of elements in a buffer of len(b) bytes.
func (d Datatype) Count(b []byte) int { return len(b) / d.size }

// Float is MPI_FLOAT, the only datatype of this study: the paper's
// experiments use single-precision floats exclusively.
var Float = Datatype{"MPI_FLOAT", 4}

// EncodeFloats packs float32 values little-endian, the wire format of
// all numeric buffers in this package.
func EncodeFloats(vals []float32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], math.Float32bits(v))
	}
	return out
}

// DecodeFloats unpacks a float32 buffer.
func DecodeFloats(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// EncodeInts packs int32 values little-endian.
func EncodeInts(vals []int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

// DecodeInts unpacks an int32 buffer.
func DecodeInts(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}
