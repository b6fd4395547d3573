package mpi

import (
	"sort"
)

// Split partitions the communicator into disjoint sub-communicators by
// color (MPI_Comm_split): every member calls Split; members passing the
// same color form a new communicator, ordered by key (ties broken by
// parent rank). A negative color (MPI_UNDEFINED) returns nil.
//
// Like real implementations, Split pays for its coordination with an
// actual allgather of the (color, key) pairs over the parent
// communicator, so it has a realistic, machine-dependent cost.
func (c *Comm) Split(color, key int) *Comm {
	// Exchange (color, key) with every member of the parent.
	pairs := c.Allgather(EncodeInts([]int32{int32(color), int32(key)}))

	c.sh.splitSeq++
	seq := c.sh.splitSeq
	if color < 0 {
		return nil
	}

	type member struct{ key, parentRank int }
	var members []member
	for r, raw := range pairs {
		v := DecodeInts(raw)
		if int(v[0]) == color {
			members = append(members, member{key: int(v[1]), parentRank: r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].parentRank < members[j].parentRank
	})

	group := make([]int, len(members))
	myIdx := -1
	for i, m := range members {
		group[i] = c.worldRank(m.parentRank)
		if group[i] == c.rank {
			myIdx = i
		}
	}

	child := &Comm{
		w:       c.w,
		rank:    c.rank,
		proc:    c.proc,
		opClass: c.opClass,
		cost:    c.cost,
		group:   group,
		myIdx:   myIdx,
		ctx:     childContext(c.ctx, seq, color),
		sh:      new(commShared),
	}
	return child
}

// childContext derives a context ID shared by all members of one new
// communicator (same parent context, same Split call, same color) and
// distinct across communicators with overwhelming probability.
func childContext(parent, seq, color int) int {
	h := uint32(parent)*2654435761 + uint32(seq)*40503 + uint32(color+1)*9176
	return int(h%0x7fe) + 1 // 1..2046, fits the 12-bit wireTag budget
}

// Translate returns the rank in other of this communicator's member
// rank r, or -1 if that process is not in other.
func (c *Comm) Translate(r int, other *Comm) int {
	return other.localRank(c.worldRank(r))
}
