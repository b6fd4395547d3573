package measure

import (
	"fmt"

	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Point-to-point benchmarks — the kind of measurement the paper says
// earlier MPI studies focused on (§1), included both for completeness
// and to characterize the simulated machines with the Hockney model the
// paper cites.

// PingPong measures the one-way time of an m-byte message between two
// nodes (half the round trip, averaged over cfg.K round trips), in µs.
func PingPong(mach *machine.Machine, m int, cfg Config) float64 {
	var sum float64
	for rep := 0; rep < cfg.Reps; rep++ {
		cl := machine.NewCluster(mach, 2, cfg.Seed+int64(rep))
		var oneWay float64
		err := mpi.RunCluster(cl, mpi.Algorithms{}, func(c *mpi.Comm) {
			buf := make([]byte, m)
			for w := 0; w < cfg.Warmup; w++ {
				bounce(c, buf)
			}
			start := c.Wtime()
			for i := 0; i < cfg.K; i++ {
				bounce(c, buf)
			}
			if c.Rank() == 0 {
				rt := c.Wtime().Sub(start) / sim.Duration(cfg.K)
				oneWay = rt.Micros() / 2
			}
		})
		if err != nil {
			panic(fmt.Sprintf("measure: pingpong %s m=%d: %v", mach.Name(), m, err))
		}
		sum += oneWay
	}
	return sum / float64(cfg.Reps)
}

func bounce(c *mpi.Comm, buf []byte) {
	if c.Rank() == 0 {
		c.Send(1, 0, buf)
		c.Recv(1, 1)
	} else {
		c.Recv(0, 0)
		c.Send(0, 1, buf)
	}
}

// HockneyFit characterizes a machine's point-to-point path with the
// Hockney model over the paper's message-length sweep.
func HockneyFit(mach *machine.Machine, cfg Config) fit.Hockney {
	lengths := PaperLengths()
	times := make([]float64, len(lengths))
	for i, m := range lengths {
		times[i] = PingPong(mach, m, cfg)
	}
	return fit.FitHockney(lengths, times)
}
