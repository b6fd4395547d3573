package coll

// AlltoallLinear performs total exchange naively: every rank posts all
// p-1 sends in destination order, then drains all p-1 receives. This is
// the shape of the Paragon's NX implementation the paper calls "the
// least efficient scheme": all traffic floods the network at once and
// the unexpected-message queues absorb the burst.
func AlltoallLinear(t Transport, blocks [][]byte) [][]byte {
	p := t.Size()
	rank := t.Rank()
	if len(blocks) != p {
		panic("coll: alltoall needs exactly p blocks")
	}
	checkUniform(blocks)
	out := make([][]byte, p)
	out[rank] = blocks[rank]
	for r := 0; r < p; r++ {
		if r != rank {
			t.Send(r, tagAlltoall, blocks[r])
		}
	}
	for r := 0; r < p; r++ {
		if r != rank {
			out[r] = t.Recv(r, tagAlltoall)
		}
	}
	return out
}

// AlltoallPairwise performs total exchange in p-1 balanced rounds: in
// round r every rank sends to (rank+r) mod p and receives from
// (rank−r) mod p, so each round is a permutation and no endpoint is
// oversubscribed. This is the classic large-message algorithm; startup
// grows linearly in p (Fig. 1b) and the per-node injection rate bounds
// the aggregated bandwidth (§8).
func AlltoallPairwise(t Transport, blocks [][]byte) [][]byte {
	p := t.Size()
	rank := t.Rank()
	if len(blocks) != p {
		panic("coll: alltoall needs exactly p blocks")
	}
	checkUniform(blocks)
	out := make([][]byte, p)
	out[rank] = blocks[rank]
	for r := 1; r < p; r++ {
		dst := (rank + r) % p
		src := (rank - r + p) % p
		t.Send(dst, tagAlltoall+r<<8, blocks[dst])
		out[src] = t.Recv(src, tagAlltoall+r<<8)
	}
	return out
}

// AlltoallXOR performs total exchange in p-1 rounds pairing rank with
// rank XOR r. Requires p to be a power of two; each round is a perfect
// matching, which suits the T3D's torus (partners are mutual, so each
// pair exchanges over the same path in both directions).
func AlltoallXOR(t Transport, blocks [][]byte) [][]byte {
	p := t.Size()
	if p&(p-1) != 0 {
		return AlltoallPairwise(t, blocks) // fall back off powers of two
	}
	rank := t.Rank()
	if len(blocks) != p {
		panic("coll: alltoall needs exactly p blocks")
	}
	checkUniform(blocks)
	out := make([][]byte, p)
	out[rank] = blocks[rank]
	for r := 1; r < p; r++ {
		peer := rank ^ r
		t.Send(peer, tagAlltoall+r<<8, blocks[peer])
		out[peer] = t.Recv(peer, tagAlltoall+r<<8)
	}
	return out
}

// AlltoallBruck performs total exchange in ⌈log2 p⌉ rounds by shipping
// consolidated block bundles, trading bandwidth (each block moves up to
// log p times) for startup — the short-message algorithm of Bruck et
// al., which the CCL library the paper cites [3] popularized.
func AlltoallBruck(t Transport, blocks [][]byte) [][]byte {
	p := t.Size()
	rank := t.Rank()
	if len(blocks) != p {
		panic("coll: alltoall needs exactly p blocks")
	}
	size := checkUniform(blocks)

	// Phase 1: local rotation so that tmp[i] is the block destined for
	// rank (rank+i) mod p.
	tmp := make([][]byte, p)
	for i := 0; i < p; i++ {
		tmp[i] = blocks[(rank+i)%p]
	}

	// Phase 2: for each bit k, send every block whose offset has bit k
	// set to (rank+2^k), receive the same set from (rank−2^k).
	// idx and bundle are reused across rounds: a round selects at most
	// p/2 blocks.
	round := 0
	idx := make([]int, 0, p/2)
	bundle := make([][]byte, 0, p/2)
	for k := 1; k < p; k <<= 1 {
		idx, bundle = idx[:0], bundle[:0]
		for i := 0; i < p; i++ {
			if i&k != 0 {
				idx = append(idx, i)
				bundle = append(bundle, tmp[i])
			}
		}
		dst := (rank + k) % p
		src := (rank - k + p) % p
		t.Send(dst, tagAlltoall+round<<8, merge(t, bundle))
		in := t.Recv(src, tagAlltoall+round<<8)
		if size > 0 {
			// Cut the bundle back into its blocks in place.
			if len(in)%len(idx) != 0 {
				panic("coll: buffer not divisible into equal blocks")
			}
			sz := len(in) / len(idx)
			for j, i := range idx {
				tmp[i] = in[j*sz : (j+1)*sz : (j+1)*sz]
			}
		} else {
			for _, i := range idx {
				tmp[i] = []byte{}
			}
		}
		round++
	}

	// Phase 3: inverse rotation. After phase 2, tmp[i] holds the block
	// sent by rank (rank−i) mod p destined for me.
	out := make([][]byte, p)
	for i := 0; i < p; i++ {
		out[(rank-i+p)%p] = tmp[i]
	}
	return out
}
