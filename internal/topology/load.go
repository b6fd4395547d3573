package topology

// Traffic analysis: channel load under uniform all-to-all traffic — the
// quantity that bounds total-exchange bandwidth on a topology. The load
// of a link is the number of (src, dst) routes crossing it; the maximum
// load over links is the serialization factor a total exchange suffers
// on the most contended channel.

// LoadProfile summarizes per-link route counts under uniform all-pairs
// traffic (one route per ordered pair of distinct nodes).
type LoadProfile struct {
	MaxLoad   int     // routes over the busiest link
	MeanLoad  float64 // average over links that carry ≥ 1 route
	UsedLinks int     // links carrying at least one route
}

// AllPairsLoad computes the load profile of t under uniform all-to-all
// traffic by enumerating every route.
func AllPairsLoad(t Topology) LoadProfile {
	loads := make([]int, t.Links())
	n := t.Nodes()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			for _, l := range t.AppendRoute(nil, s, d) {
				loads[l]++
			}
		}
	}
	var p LoadProfile
	total := 0
	for _, v := range loads {
		if v == 0 {
			continue
		}
		p.UsedLinks++
		total += v
		if v > p.MaxLoad {
			p.MaxLoad = v
		}
	}
	if p.UsedLinks > 0 {
		p.MeanLoad = float64(total) / float64(p.UsedLinks)
	}
	return p
}

// SaturationBandwidthMBs returns the aggregate bandwidth in MB/s a
// uniform total exchange can sustain on t when every link runs at
// linkMBs: each of the n(n−1) flows gets linkMBs/MaxLoad, so the
// aggregate is n(n−1)·linkMBs/MaxLoad.
func SaturationBandwidthMBs(t Topology, linkMBs float64) float64 {
	p := AllPairsLoad(t)
	if p.MaxLoad == 0 {
		return 0
	}
	n := float64(t.Nodes())
	return n * (n - 1) * linkMBs / float64(p.MaxLoad)
}
