package serve

import (
	"sync"
	"sync/atomic"

	"repro/internal/machine"
)

// AnswerCache is the service's per-scenario cache of sim-fallback
// answers: repeated traffic for a fallback scenario skips the
// simulation and returns the finished Answer. Closed-form answers never
// enter it — evaluating a group's expression in place costs less than
// a hit (see answerClosed).
//
// Keys are derived the way sweep-cache keys are: the registry entry's
// epoch (backend name + provenance, which carries the calibration
// grid, methodology, fit family, and calibrationVersion) plus the
// server's fallback-sim methodology digest, the machine's calibration
// fingerprint, and the resolved scenario itself. Recalibration — a new
// provenance — therefore self-invalidates: stale answers are simply
// never found under the new epoch, and age out of the bounded space.
//
// The cache is sharded (16 ways) with single-flight misses: concurrent
// requests for one cold key simulate it once and share the result, the
// same contract estimate.SampleMemo gives simulator measurements. Capacity is bounded; eviction is a second-chance
// (CLOCK-style) sweep per shard, so sustained hot keys survive churn.
//
// A nil *AnswerCache is valid and caches nothing (every fallback is a
// "bypass").
type AnswerCache struct {
	shards   [acShards]acShard
	perShard int
}

const (
	acShardBits = 4
	acShards    = 1 << acShardBits
)

// acKey identifies one cacheable answer. Every component that could
// change the answer is in the key: the entry's epoch + config digest
// and the scenario's triple, each interned to a small id (see
// interner) so the hot hit path never hashes a string, plus the
// resolved coordinates. The triple id stands for the machine's
// calibration fingerprint (which doubles as the machine identity: it
// hashes the full parameter set, so no separate name is needed), the
// op, and the resolved algorithm name ("default" kept), so the alias
// and its eponymous variant cache separately — same behavior as the
// serving path, which resolves before answering.
type acKey struct {
	eid  uint64 // interned epoch, from epochIDs
	tid  uint64 // interned triple, from tripleIDs
	p, m int
}

// tripleIdent is a triple's answer identity, before interning.
type tripleIdent struct {
	fp  string // estimate.Fingerprint of the machine
	op  machine.Op
	alg string
}

// interner maps keys to small process-wide ids. Epoch strings (entry
// provenance + server config digest) and triple identities intern
// here, so cache keys carry 8 bytes per component instead of a few
// hundred. Equal keys intern to the same id whichever server or entry
// asks — two entries over the same calibration share answers — while a
// recalibrated backend is a new epoch string, hence a new id.
type interner[K comparable] struct {
	ids sync.Map // K → uint64
	seq atomic.Uint64
}

func (in *interner[K]) id(k K) uint64 {
	if v, ok := in.ids.Load(k); ok {
		return v.(uint64)
	}
	v, _ := in.ids.LoadOrStore(k, in.seq.Add(1))
	return v.(uint64)
}

var (
	epochIDs  interner[string]
	tripleIDs interner[tripleIdent]
)

// acEntry is one cached (or in-flight) answer; once gives cold keys
// their single flight, done marks the answer as materialized (eviction
// never removes an entry a goroutine is still computing into). err is
// the computation's failure, shared by the flight's waiters; errored
// entries are forgotten right after the flight (see Server.answerCached)
// so retries recompute.
type acEntry struct {
	once sync.Once
	done atomic.Bool
	used atomic.Bool
	ans  Answer
	err  error
}

type acShard struct {
	mu sync.RWMutex
	m  map[acKey]*acEntry
}

// NewAnswerCache returns a cache bounded at roughly size answers
// (rounded up to the shard count), or nil — caching disabled — when
// size ≤ 0.
func NewAnswerCache(size int) *AnswerCache {
	if size <= 0 {
		return nil
	}
	c := &AnswerCache{perShard: (size + acShards - 1) / acShards}
	for i := range c.shards {
		c.shards[i].m = make(map[acKey]*acEntry)
	}
	return c
}

// Len returns the number of cached (including in-flight) answers.
func (c *AnswerCache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Cap returns the configured capacity in answers (0 for nil).
func (c *AnswerCache) Cap() int {
	if c == nil {
		return 0
	}
	return c.perShard * acShards
}

// get returns the entry for k, creating an in-flight one when absent.
// created reports whether this caller inserted it — the accounting
// miss; callers that found an entry (finished or in flight) are hits.
// Either way the caller must pass its compute fn through e.once.Do and
// read e.ans after, which is what serializes the single flight.
func (c *AnswerCache) get(k acKey) (e *acEntry, created bool) {
	sh := &c.shards[c.shard(&k)]
	sh.mu.RLock()
	e, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		// The second-chance mark only needs to become true; checking
		// first keeps steady hits from dirtying the cache line.
		if !e.used.Load() {
			e.used.Store(true)
		}
		return e, false
	}
	sh.mu.Lock()
	if e, ok = sh.m[k]; ok {
		sh.mu.Unlock()
		if !e.used.Load() {
			e.used.Store(true)
		}
		return e, false
	}
	if len(sh.m) >= c.perShard {
		sh.evictLocked()
	}
	e = &acEntry{}
	sh.m[k] = e
	sh.mu.Unlock()
	return e, true
}

// forget removes k's entry if it is still e — pointer-compared, so a
// retry that already replaced the slot is left alone. Used to discard
// errored and degraded computations after their single flight.
func (c *AnswerCache) forget(k acKey, e *acEntry) {
	sh := &c.shards[c.shard(&k)]
	sh.mu.Lock()
	if sh.m[k] == e {
		delete(sh.m, k)
	}
	sh.mu.Unlock()
}

// shard picks a key's shard from the top bits of a multiplicative
// (Fibonacci) hash of the triple id and coordinates: the product's low
// bits would depend only on the inputs' low bits, which power-of-two
// message lengths leave zero. The epoch id is near-constant across a
// request stream, so it is not hashed.
func (c *AnswerCache) shard(k *acKey) uint32 {
	h := (k.tid<<48 ^ uint64(k.p)<<32 ^ uint64(k.m)) * 0x9E3779B97F4A7C15
	return uint32(h >> (64 - acShardBits))
}

// evictLocked frees one slot: a second-chance sweep in map order
// (randomized by Go) that skips in-flight entries, clears used marks
// as it passes, and removes the first finished entry not referenced
// since the last sweep — falling back to any finished entry when the
// whole shard is recently used.
func (sh *acShard) evictLocked() {
	var fallback acKey
	haveFallback := false
	for k, e := range sh.m {
		if !e.done.Load() {
			continue
		}
		if e.used.Load() {
			e.used.Store(false)
			if !haveFallback {
				fallback, haveFallback = k, true
			}
			continue
		}
		delete(sh.m, k)
		return
	}
	if haveFallback {
		delete(sh.m, fallback)
	}
	// Every entry in flight: let the shard run one over; the next
	// insert's sweep will find finished entries to reclaim.
}
