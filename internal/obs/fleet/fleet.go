// Package fleet aggregates the /metrics endpoints of many serving
// processes into one fleet view. A Scraper polls each worker on an
// interval with bounded concurrency and a per-target timeout, parses
// the Prometheus text it gets back (obs.ParsePrometheus), and keeps
// the last good snapshot per instance. Merged folds those snapshots
// with obs.Merge — counters and gauges sum, histograms add bucket-wise
// exactly — and annotates the result with the scraper's own health
// series, so a dead worker shows up as fleet_instance_up 0 instead of
// silently vanishing from the totals.
//
// Staleness is marked, not dropped: a worker that stops answering
// keeps contributing its last good snapshot (its counters are
// monotonic, so the fleet totals stay truthful about work already
// done) while fleet_instance_up and fleet_instance_stale flag that the
// numbers are no longer moving.
package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Target names one worker's scrape endpoint.
type Target struct {
	// Name is the instance label stamped on the worker's series; ""
	// uses the URL.
	Name string
	// URL is the worker's full metrics endpoint, e.g.
	// "http://10.0.0.3:8080/metrics".
	URL string
}

func (t Target) name() string {
	if t.Name != "" {
		return t.Name
	}
	return t.URL
}

// Scrape rounds keep at most scrapeConcurrency scrapes in flight, and
// an instance whose last good snapshot is older than staleIntervals
// scrape periods is marked stale.
const (
	scrapeConcurrency = 8
	staleIntervals    = 3
)

// Config parameterizes a Scraper. The zero value of each knob picks a
// usable default.
type Config struct {
	Targets []Target
	// Interval is Run's scrape period and the unit of the staleness
	// window; ≤ 0 means 5s.
	Interval time.Duration
	// Timeout bounds one target's scrape (connect + read); ≤ 0 means
	// 2s.
	Timeout time.Duration
	// Client issues the scrapes; nil uses a dedicated client with
	// keep-alives (timeouts come from per-scrape contexts, not the
	// client).
	Client *http.Client
	// Logger, when non-nil, gets one debug line per failed scrape.
	Logger *obs.Logger
	// OnLiveness, when non-nil, is called after every scrape attempt
	// that changed an instance's up state (and after its first attempt,
	// whatever the outcome) — the sharding front's failover ladder feeds
	// on these transitions. Called outside the scraper's lock, from the
	// scraping goroutine; keep it cheap and non-blocking.
	OnLiveness func(instance string, up bool)
}

// instanceState is one target's scrape history. Guarded by Scraper.mu:
// scrapes of distinct targets run concurrently but publish under the
// same lock the readers (Merged, Status) take.
type instanceState struct {
	target      Target
	lastGood    *obs.ParsedMetrics
	lastGoodAt  time.Time
	lastErr     error
	lastAttempt time.Time
	scrapes     uint64
	failures    uint64
}

// Scraper polls a fixed set of workers and serves their merged view.
type Scraper struct {
	cfg    Config
	client *http.Client

	mu        sync.Mutex
	instances []*instanceState

	// now is the clock, swappable in tests to force staleness without
	// sleeping.
	now func() time.Time
}

// New builds a Scraper over cfg. Duplicate instance names are an
// error: the instance label is the per-worker identity in the merged
// view.
func New(cfg Config) (*Scraper, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("fleet: no scrape targets")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	}
	s := &Scraper{cfg: cfg, client: client, now: time.Now}
	seen := map[string]bool{}
	for _, t := range cfg.Targets {
		if t.URL == "" {
			return nil, fmt.Errorf("fleet: target %q has no URL", t.Name)
		}
		name := t.name()
		if seen[name] {
			return nil, fmt.Errorf("fleet: duplicate instance name %q", name)
		}
		seen[name] = true
		s.instances = append(s.instances, &instanceState{target: t})
	}
	return s, nil
}

// ScrapeOnce polls every target once — at most scrapeConcurrency in
// flight, each bounded by Timeout — and returns how many succeeded.
func (s *Scraper) ScrapeOnce(ctx context.Context) int {
	sem := make(chan struct{}, scrapeConcurrency)
	var wg sync.WaitGroup
	var mu sync.Mutex
	ok := 0
	for _, inst := range s.instances {
		wg.Add(1)
		go func(inst *instanceState) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				s.record(inst, nil, ctx.Err())
				return
			}
			parsed, err := s.scrape(ctx, inst.target)
			s.record(inst, parsed, err)
			if err == nil {
				mu.Lock()
				ok++
				mu.Unlock()
			}
		}(inst)
	}
	wg.Wait()
	return ok
}

// scrape fetches and parses one target's metrics.
func (s *Scraper) scrape(ctx context.Context, t Target) (*obs.ParsedMetrics, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.URL, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", t.URL, resp.StatusCode)
	}
	return obs.ParsePrometheus(body)
}

// record publishes one scrape attempt's outcome under the lock and
// feeds the liveness callback on up/down transitions.
func (s *Scraper) record(inst *instanceState, parsed *obs.ParsedMetrics, err error) {
	now := s.now()
	s.mu.Lock()
	wasUp := inst.scrapes > 0 && inst.lastErr == nil
	first := inst.scrapes == 0
	inst.lastAttempt = now
	inst.scrapes++
	if err != nil {
		inst.failures++
		inst.lastErr = err
	} else {
		inst.lastErr = nil
		inst.lastGood = parsed
		inst.lastGoodAt = now
	}
	up := inst.lastErr == nil
	s.mu.Unlock()
	if s.cfg.OnLiveness != nil && (first || up != wasUp) {
		s.cfg.OnLiveness(inst.target.name(), up)
	}
	if err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Debug("fleet scrape failed",
			obs.F("instance", inst.target.name()), obs.F("error", err.Error()))
	}
}

// Run scrapes immediately, then on every Interval tick until ctx ends.
func (s *Scraper) Run(ctx context.Context) {
	s.ScrapeOnce(ctx)
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			s.ScrapeOnce(ctx)
		}
	}
}

// InstanceStatus is one worker's scrape health.
type InstanceStatus struct {
	Name string `json:"instance"`
	URL  string `json:"url"`
	// Up reports whether the most recent scrape attempt succeeded.
	Up bool `json:"up"`
	// Stale reports whether the last good snapshot is older than
	// staleIntervals scrape periods (or was never obtained): the
	// instance's series are still merged but no longer moving.
	Stale      bool      `json:"stale"`
	LastScrape time.Time `json:"last_scrape"`
	Error      string    `json:"error,omitempty"`
	Scrapes    uint64    `json:"scrapes"`
	Failures   uint64    `json:"failures"`
}

// Up reports whether the named instance's most recent scrape attempt
// succeeded — false for unknown names and instances never scraped. The
// synchronous counterpart of the OnLiveness callback.
func (s *Scraper) Up(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, inst := range s.instances {
		if inst.target.name() == name {
			return inst.scrapes > 0 && inst.lastErr == nil
		}
	}
	return false
}

// Status reports every instance's health, sorted by name.
func (s *Scraper) Status() []InstanceStatus {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]InstanceStatus, 0, len(s.instances))
	for _, inst := range s.instances {
		st := InstanceStatus{
			Name:       inst.target.name(),
			URL:        inst.target.URL,
			Up:         inst.scrapes > 0 && inst.lastErr == nil,
			Stale:      inst.lastGood == nil || now.Sub(inst.lastGoodAt) > staleIntervals*s.cfg.Interval,
			LastScrape: inst.lastGoodAt,
			Scrapes:    inst.scrapes,
			Failures:   inst.failures,
		}
		if inst.lastErr != nil {
			st.Error = inst.lastErr.Error()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Merged folds every instance's last good snapshot into one fleet view
// (see obs.Merge for the exactness guarantees), then appends the
// scraper's own health families: fleet_instance_up and
// fleet_instance_stale per instance, fleet_scrapes_total and
// fleet_scrape_errors_total per instance, and a fleet_instances gauge.
// Instances that never answered contribute no worker series but still
// appear in the health families.
func (s *Scraper) Merged() (*obs.ParsedMetrics, error) {
	snapshots := map[string]*obs.ParsedMetrics{}
	s.mu.Lock()
	for _, inst := range s.instances {
		if inst.lastGood != nil {
			snapshots[inst.target.name()] = inst.lastGood
		}
	}
	s.mu.Unlock()
	merged, err := obs.Merge(snapshots)
	if err != nil {
		return nil, err
	}
	status := s.Status()

	up := &obs.ParsedFamily{Name: "fleet_instance_up",
		Help: "1 if the most recent scrape of this instance succeeded", Kind: "gauge"}
	stale := &obs.ParsedFamily{Name: "fleet_instance_stale",
		Help: "1 if this instance's snapshot is older than the staleness window", Kind: "gauge"}
	scrapes := &obs.ParsedFamily{Name: "fleet_scrapes_total",
		Help: "scrape attempts per instance", Kind: "counter"}
	failures := &obs.ParsedFamily{Name: "fleet_scrape_errors_total",
		Help: "failed scrape attempts per instance", Kind: "counter"}
	for _, st := range status {
		lbl := []obs.Label{{Key: obs.InstanceLabel, Value: st.Name}}
		up.Series = append(up.Series, &obs.ParsedSeries{Labels: lbl, Gauge: b2i(st.Up)})
		stale.Series = append(stale.Series, &obs.ParsedSeries{Labels: lbl, Gauge: b2i(st.Stale)})
		scrapes.Series = append(scrapes.Series, &obs.ParsedSeries{Labels: lbl, Counter: st.Scrapes})
		failures.Series = append(failures.Series, &obs.ParsedSeries{Labels: lbl, Counter: st.Failures})
	}
	count := &obs.ParsedFamily{Name: "fleet_instances",
		Help: "scrape targets configured", Kind: "gauge",
		Series: []*obs.ParsedSeries{{Gauge: int64(len(status))}}}
	merged.Families = append(merged.Families, up, stale, scrapes, failures, count)
	return merged, nil
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
