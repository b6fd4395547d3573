package paper

import "repro/internal/machine"

// SixOps are the operations of Figs. 1, 2, 4 and 5 (barrier excluded —
// it has no message payload).
var SixOps = []machine.Op{
	machine.OpBroadcast, machine.OpAlltoall, machine.OpScatter,
	machine.OpGather, machine.OpScan, machine.OpReduce,
}

// Fig5Sizes are the three machine sizes of Fig. 5's bar groups.
var Fig5Sizes = []int{16, 32, 64}
