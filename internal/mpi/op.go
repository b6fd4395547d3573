package mpi

import "repro/internal/coll"

// ReduceOp is an MPI reduction operation over a datatype. It holds one
// ready combiner per datatype, so a reduction call builds none; the
// predefined operations are initialized statically.
type ReduceOp struct {
	name     string
	f32, i32 coll.Combiner
}

// Name returns the MPI-style operation name.
func (o ReduceOp) Name() string { return o.name }

// The standard predefined reduction operations used by the benchmarks.
var (
	Sum = ReduceOp{"MPI_SUM",
		func(a, b []byte) []byte { return combineFloats(a, b, func(x, y float32) float32 { return x + y }) },
		func(a, b []byte) []byte { return combineInts(a, b, func(x, y int32) int32 { return x + y }) }}
	Prod = ReduceOp{"MPI_PROD",
		func(a, b []byte) []byte { return combineFloats(a, b, func(x, y float32) float32 { return x * y }) },
		func(a, b []byte) []byte { return combineInts(a, b, func(x, y int32) int32 { return x * y }) }}
	Max = ReduceOp{"MPI_MAX",
		func(a, b []byte) []byte {
			return combineFloats(a, b, func(x, y float32) float32 {
				if x > y {
					return x
				}
				return y
			})
		},
		func(a, b []byte) []byte {
			return combineInts(a, b, func(x, y int32) int32 {
				if x > y {
					return x
				}
				return y
			})
		}}
	Min = ReduceOp{"MPI_MIN",
		func(a, b []byte) []byte {
			return combineFloats(a, b, func(x, y float32) float32 {
				if x < y {
					return x
				}
				return y
			})
		},
		func(a, b []byte) []byte {
			return combineInts(a, b, func(x, y int32) int32 {
				if x < y {
					return x
				}
				return y
			})
		}}
)

// combineFloats applies f elementwise over two float operands.
func combineFloats(a, b []byte, f func(x, y float32) float32) []byte {
	av, bv := DecodeFloats(a), DecodeFloats(b)
	if len(av) != len(bv) {
		panic("mpi: reduce operand length mismatch")
	}
	out := make([]float32, len(av))
	for i := range out {
		out[i] = f(av[i], bv[i])
	}
	return EncodeFloats(out)
}

// combineInts applies f elementwise over two int32 operands.
func combineInts(a, b []byte, f func(x, y int32) int32) []byte {
	av, bv := DecodeInts(a), DecodeInts(b)
	if len(av) != len(bv) {
		panic("mpi: reduce operand length mismatch")
	}
	out := make([]int32, len(av))
	for i := range out {
		out[i] = f(av[i], bv[i])
	}
	return EncodeInts(out)
}

// Combiner returns the coll.Combiner applying the operation elementwise
// over buffers of the given datatype.
func (o ReduceOp) Combiner(dt Datatype) coll.Combiner {
	switch dt {
	case Float:
		return o.f32
	case Int32:
		return o.i32
	default:
		panic("mpi: no combiner for datatype " + dt.Name())
	}
}
