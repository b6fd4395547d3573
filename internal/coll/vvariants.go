package coll

// Gatherv relaxes the equal-block-size contract: each rank may
// contribute a different amount. The vendor implementations of the era
// were linear (tree consolidation does not pay off when block sizes are
// irregular), so it is a linear fan-in with the same cost structure as
// GatherLinear.

// Gatherv collects a variable-size block from every rank at root.
// Returns the blocks in rank order on root, nil elsewhere. Unlike MPI,
// receive counts are discovered from the messages, which is safe here
// because the transport preserves lengths.
func Gatherv(t Transport, root int, mine []byte) [][]byte {
	p := t.Size()
	rank := t.Rank()
	if rank != root {
		t.Send(root, tagGatherv, mine)
		return nil
	}
	out := make([][]byte, p)
	out[root] = mine
	for r := 0; r < p; r++ {
		if r != root {
			out[r] = t.Recv(r, tagGatherv)
		}
	}
	return out
}

// ReduceScatter reduces elementwise across ranks and scatters the result
// so rank i ends with the i-th block (MPI_Reduce_scatter_block with
// equal blocks). For power-of-two sizes it uses recursive halving —
// each round exchanges and combines half the remaining data — and falls
// back to reduce-then-scatter otherwise. The combiner must be
// commutative (as MPI requires for this algorithm): recursive halving
// interleaves source spans across rounds.
func ReduceScatter(t Transport, blocks [][]byte, f Combiner) []byte {
	p := t.Size()
	rank := t.Rank()
	if len(blocks) != p {
		panic("coll: reduce-scatter needs exactly p blocks")
	}
	checkUniform(blocks)
	if p&(p-1) != 0 {
		full := ReduceBinomial(t, 0, merge(t, blocks), f)
		var split2 [][]byte
		if rank == 0 {
			split2 = split(full, p)
		}
		return ScatterBinomial(t, 0, split2)
	}

	// Recursive halving: maintain the blocks for a shrinking span of
	// destination ranks; each round sends the half belonging to the
	// peer's side and combines the half received for mine.
	cur := make([][]byte, p)
	copy(cur, blocks)
	lo, hi := 0, p // my destination span [lo, hi)
	round := 0
	for d := p / 2; d >= 1; d /= 2 {
		peer := rank ^ d
		mid := lo + (hi-lo)/2
		var sendLo, sendHi, keepLo, keepHi int
		if rank < peer { // I keep the lower half
			sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
		} else {
			sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
		}
		t.Send(peer, tagReduce+0x200+round<<9, merge(t, cur[sendLo:sendHi]))
		in := split(t.Recv(peer, tagReduce+0x200+round<<9), keepHi-keepLo)
		for i := keepLo; i < keepHi; i++ {
			a, b := cur[i], in[i-keepLo]
			if rank < peer {
				cur[i] = t.Combine(a, b, f)
			} else {
				cur[i] = t.Combine(b, a, f)
			}
		}
		lo, hi = keepLo, keepHi
		round++
	}
	return cur[rank]
}
