package mpi

import (
	"math/rand"
	"testing"

	"repro/internal/machine"
)

// TestStressRandomCollectiveSequences runs randomized SPMD programs —
// mixed collectives and varying sizes — and checks both
// completion (no deadlock under any interleaving the schedule produces)
// and arithmetic correctness of every reduction. The op sequence is
// generated from a shared seed so all ranks agree on the program, as
// MPI requires.
func TestStressRandomCollectiveSequences(t *testing.T) {
	machines := machine.All()
	for trial := 0; trial < 12; trial++ {
		mach := machines[trial%len(machines)]
		script := rand.New(rand.NewSource(int64(trial)))
		p := []int{2, 3, 4, 6, 8, 16}[script.Intn(6)]
		steps := 5 + script.Intn(10)
		ops := make([]int, steps)
		sizes := make([]int, steps)
		for i := range ops {
			ops[i] = script.Intn(7)
			sizes[i] = []int{4, 64, 1024, 16384}[script.Intn(4)]
		}

		err := Run(mach, p, int64(trial), func(c *Comm) {
			for i := 0; i < steps; i++ {
				m := sizes[i]
				switch ops[i] {
				case 0:
					c.Barrier()
				case 1:
					var in []byte
					if c.Rank() == i%p {
						in = make([]byte, m)
					}
					got := c.Bcast(i%p, in)
					if len(got) != m {
						t.Errorf("trial %d step %d: bcast delivered %d bytes", trial, i, len(got))
					}
				case 2:
					c.Gather(i%p, make([]byte, m))
				case 3:
					var blocks [][]byte
					if c.Rank() == i%p {
						blocks = make([][]byte, p)
						for j := range blocks {
							blocks[j] = make([]byte, m)
						}
					}
					c.Scatter(i%p, blocks)
				case 4:
					blocks := make([][]byte, p)
					for j := range blocks {
						blocks[j] = make([]byte, m)
					}
					c.Alltoall(blocks)
				case 5:
					v := EncodeFloats([]float32{float32(c.Rank() + 1)})
					sum := DecodeFloats(c.Allreduce(v, Sum, Float))[0]
					if want := float32(p * (p + 1) / 2); sum != want {
						t.Errorf("trial %d step %d: allreduce %v, want %v", trial, i, sum, want)
					}
				case 6:
					v := EncodeFloats([]float32{1})
					prefix := DecodeFloats(c.Scan(v, Sum, Float))[0]
					if prefix != float32(c.Rank()+1) {
						t.Errorf("trial %d step %d: scan %v at rank %d", trial, i, prefix, c.Rank())
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("trial %d (%s, p=%d): %v", trial, mach.Name(), p, err)
		}
	}
}

// TestStressManyOutstandingMessages has every rank send many eager
// messages before receiving any, then take them with exact receives in
// the reverse of their send order, so each receive searches a long
// unexpected queue.
func TestStressManyOutstandingMessages(t *testing.T) {
	const p, nmsg = 8, 20
	err := Run(machine.SP2(), p, 3, func(c *Comm) {
		for i := 0; i < nmsg; i++ {
			dst := (c.Rank() + 1 + i%(p-1)) % p
			c.Send(dst, i, []byte{byte(i)})
		}
		for i := nmsg - 1; i >= 0; i-- {
			src := (c.Rank() - 1 - i%(p-1) + 2*p) % p
			if got := c.Recv(src, i); got[0] != byte(i) {
				t.Errorf("rank %d msg %d: payload %v", c.Rank(), i, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
