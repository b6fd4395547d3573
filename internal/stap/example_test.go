package stap_test

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/stap"
)

// ExampleRun runs the radar workload behind the paper's measurements —
// "The MPI performance data are obtained from the STAP benchmark
// experiments jointly performed at the USC and HKU", sponsored by MIT
// Lincoln Laboratory — as the full miniature space-time adaptive
// processing pipeline on all three simulated machines:
//
//  1. Doppler filtering — real FFTs over the pulse dimension
//  2. Corner turn       — the famous alltoall transpose of the data cube
//  3. Adaptive weights  — covariance allreduce + complex solve
//  4. Beamforming       — apply the weights
//  5. CFAR detection    — threshold + gather of detections
//
// Two synthetic targets are injected; every machine must find exactly
// them. The per-stage timing shows where each machine's communication
// character bites — the corner turn (total exchange) dominates, which is
// why the paper's alltoall expressions matter for STAP sizing.
func ExampleRun() {
	const p = 16
	prm := stap.Params{
		Ranges: 512, Pulses: 128, Channels: 8,
		CFARThreshold: 12, DiagonalLoad: 1,
	}
	targets := []stap.Target{
		{Range: 101, DopplerBin: 17, Amplitude: 14},
		{Range: 365, DopplerBin: 90, Amplitude: 14},
	}

	fmt.Printf("STAP CPI: %d gates × %d pulses × %d channels on %d nodes\n\n",
		prm.Ranges, prm.Pulses, prm.Channels, p)
	for _, mach := range machine.All() {
		res, err := stap.Run(mach, p, prm, targets, 1)
		if err != nil {
			panic(err)
		}
		ts := res.Times
		fmt.Printf("%-8s total %9v   comm %9v (%4.1f%%)\n",
			mach.Name(), ts.Total, ts.CommTime(),
			100*float64(ts.CommTime())/float64(ts.Total))
		fmt.Printf("         doppler %v | corner-turn %v | weights %v | beamform %v | cfar %v\n",
			ts.Doppler, ts.CornerTurn, ts.Weights, ts.Beamform, ts.CFAR)
		fmt.Printf("         detections:")
		for _, d := range res.Detections {
			fmt.Printf(" (bin %d, gate %d, snr %.0f)", d.DopplerBin, d.Range, d.SNR)
		}
		fmt.Println()
		fmt.Println()
	}
	fmt.Println("The corner turn's total exchange dominates communication; its cost")
	fmt.Println("ordering (T3D < Paragon < SP2 for these block sizes) follows the")
	fmt.Println("paper's Table 3, while compute time follows the nodes' MFLOP rates.")

	// Output:
	// STAP CPI: 512 gates × 128 pulses × 8 channels on 16 nodes
	//
	// SP2      total   56.65ms   comm   21.47ms (37.9%)
	//          doppler 11.47ms | corner-turn 20.59ms | weights 21.49ms | beamform 2621.44µs | cfar 473.59µs
	//          detections: (bin 17, gate 101, snr 196823) (bin 90, gate 365, snr 189113)
	//
	// T3D      total   67.93ms   comm 9286.88µs (13.7%)
	//          doppler 19.11ms | corner-turn 8891.48µs | weights 35.23ms | beamform 4369.07µs | cfar 323.54µs
	//          detections: (bin 17, gate 101, snr 196823) (bin 90, gate 365, snr 189113)
	//
	// Paragon  total  136.04ms   comm   18.76ms (13.8%)
	//          doppler 38.23ms | corner-turn 17.47ms | weights 70.49ms | beamform 8738.13µs | cfar 1120.04µs
	//          detections: (bin 17, gate 101, snr 196823) (bin 90, gate 365, snr 189113)
	//
	// The corner turn's total exchange dominates communication; its cost
	// ordering (T3D < Paragon < SP2 for these block sizes) follows the
	// paper's Table 3, while compute time follows the nodes' MFLOP rates.
}
