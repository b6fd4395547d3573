package mpi

import "repro/internal/coll"

// ReduceOp is an MPI reduction operation. It holds its ready combiner
// over MPI_FLOAT, so a reduction call builds none.
type ReduceOp struct {
	name string
	f32  coll.Combiner
}

// Name returns the MPI-style operation name.
func (o ReduceOp) Name() string { return o.name }

// Sum is MPI_SUM, the reduction the paper's reduce, scan and allreduce
// measurements use.
var Sum = ReduceOp{"MPI_SUM", func(a, b []byte) []byte {
	av, bv := DecodeFloats(a), DecodeFloats(b)
	if len(av) != len(bv) {
		panic("mpi: reduce operand length mismatch")
	}
	out := make([]float32, len(av))
	for i := range out {
		out[i] = av[i] + bv[i]
	}
	return EncodeFloats(out)
}}

// Combiner returns the coll.Combiner applying the operation elementwise
// over buffers of the given datatype.
func (o ReduceOp) Combiner(dt Datatype) coll.Combiner {
	if dt != Float {
		panic("mpi: no combiner for datatype " + dt.Name())
	}
	return o.f32
}
