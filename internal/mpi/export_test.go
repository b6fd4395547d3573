package mpi

import "repro/internal/machine"

// RunOpaque is RunCluster with opaque payloads, as a recording runs:
// goroutine ranks in the measurement harness's payload mode, the
// reference the replay oracle (oracle_test.go) runs the §2 procedure
// on.
func RunOpaque(cl *machine.Cluster, algs Algorithms, body func(c *Comm)) error {
	return runCluster(cl, algs, true, body)
}
