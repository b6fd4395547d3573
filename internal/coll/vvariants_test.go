package coll

import (
	"bytes"
	"testing"
)

// addCombiner byte-wise sums operands — commutative, for the algorithms
// that require commutativity.
func addCombiner(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func TestGathervVariableSizes(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 16} {
		for root := 0; root < p; root += 3 {
			res := runSPMD(p, func(tr Transport) [][]byte {
				// Rank r contributes r+1 bytes.
				return Gatherv(tr, root, payload(tr.Rank(), 0, tr.Rank()+1))
			})
			got := res[root]
			for r := 0; r < p; r++ {
				if len(got[r]) != r+1 {
					t.Fatalf("p=%d root=%d: block %d has %d bytes, want %d", p, root, r, len(got[r]), r+1)
				}
				if !bytes.Equal(got[r], payload(r, 0, r+1)) {
					t.Fatalf("p=%d root=%d: block %d corrupted", p, root, r)
				}
			}
		}
	}
}

func TestReduceScatterPowerOfTwo(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		res := runSPMD(p, func(tr Transport) []byte {
			blocks := make([][]byte, p)
			for i := range blocks {
				// blocks[i][0] = rank contribution to destination i.
				blocks[i] = []byte{byte(tr.Rank() + i)}
			}
			return ReduceScatter(tr, blocks, addCombiner)
		})
		// Destination i receives sum over ranks r of (r+i).
		sumRanks := p * (p - 1) / 2
		for i, b := range res {
			want := byte(sumRanks + p*i)
			if len(b) != 1 || b[0] != want {
				t.Fatalf("p=%d: dest %d got %v, want %d", p, i, b, want)
			}
		}
	}
}

func TestReduceScatterNonPowerOfTwoFallback(t *testing.T) {
	p := 6
	res := runSPMD(p, func(tr Transport) []byte {
		blocks := make([][]byte, p)
		for i := range blocks {
			blocks[i] = []byte{byte(tr.Rank()), byte(i)}
		}
		return ReduceScatter(tr, blocks, addCombiner)
	})
	sumRanks := byte(p * (p - 1) / 2)
	for i, b := range res {
		if b[0] != sumRanks || b[1] != byte(p*i) {
			t.Fatalf("dest %d got %v", i, b)
		}
	}
}

func TestBcastScatterAllgatherOddSizes(t *testing.T) {
	// Payload length not divisible by p: padding must round-trip.
	for _, p := range []int{2, 3, 8, 11} {
		msg := payload(0, 9, 101) // 101 bytes
		res := runSPMD(p, func(tr Transport) []byte {
			var in []byte
			if tr.Rank() == 1%p {
				in = msg
			}
			return BcastScatterAllgather(tr, 1%p, in)
		})
		for r, b := range res {
			if !bytes.Equal(b, msg) {
				t.Fatalf("p=%d: rank %d got %d bytes", p, r, len(b))
			}
		}
	}
}

func TestAllreduceRabenseifnerMatchesReduceBcast(t *testing.T) {
	for _, p := range []int{2, 4, 8, 16} {
		size := 4 * p // divisible by p
		a := runSPMD(p, func(tr Transport) []byte {
			return AllreduceRabenseifner(tr, payload(tr.Rank(), 3, size), addCombiner)
		})
		b := runSPMD(p, func(tr Transport) []byte {
			return AllreduceReduceBcast(tr, payload(tr.Rank(), 3, size), addCombiner)
		})
		for r := range a {
			if !bytes.Equal(a[r], b[r]) {
				t.Fatalf("p=%d: rabenseifner disagrees with reduce+bcast at rank %d", p, r)
			}
		}
	}
}

func TestAllreduceRabenseifnerFallbacks(t *testing.T) {
	// Non-power-of-two size and non-divisible payload both fall back.
	res := runSPMD(6, func(tr Transport) []byte {
		return AllreduceRabenseifner(tr, []byte{byte(tr.Rank())}, addCombiner)
	})
	want := byte(15)
	for r, b := range res {
		if b[0] != want {
			t.Fatalf("rank %d got %d, want %d", r, b[0], want)
		}
	}
}
