package av

import (
	"sync"
	"sync/atomic"

	"dqo/internal/core"
	"dqo/internal/logical"
)

// PlanCache is a plan-level Algorithmic View: a fully optimised plan reused
// across queries — the prepared-statement analogy of Section 3 ("how much
// time do I want to spend on DQO offline vs at query time?"). Keys are
// caller-chosen; the caller is responsible for invalidating entries (Clear)
// when base data properties change.
//
// OptimizeTemplate keys on normalized query fingerprints (sql.Fingerprint:
// literals stripped to parameter slots): a hit reuses the cached plan as a
// parameterised template, splicing the new statement's literals into a copy
// of its root-to-filter spine via core.Rebind — repeated query shapes skip
// enumeration entirely and re-plan in O(rebind). A statement without filters
// rebinds to the cached plan as it is.
type PlanCache struct {
	mu      sync.RWMutex
	entries map[string]*core.Result
	flights map[string]*flight // template keys being planned right now
	hits    atomic.Int64
	misses  atomic.Int64
}

// flight is one in-progress planning of a cold template key. Callers that
// arrive for the same key meanwhile wait on done and then rebind from the
// entry the planner stored, so a burst of first executions of one statement
// shape enumerates once.
type flight struct{ done chan struct{} }

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{entries: make(map[string]*core.Result), flights: make(map[string]*flight)}
}

// OptimizeTemplate returns the plan for n, treating the entry under key as a
// parameterised template: on a hit the cached plan structure is reused and
// only the literal parameters are rebound (zero enumeration — the returned
// Stats.Alternatives is 0). A cold key is planned by the first caller to
// ask; callers arriving while it plans wait and count as hits. A template
// the new statement cannot rebind into (the fingerprint matched but the
// plan-relevant literal shape changed, e.g. a literal outside the crackable
// key range) is replanned and replaced, counted as a miss.
func (pc *PlanCache) OptimizeTemplate(key string, n logical.Node, mode core.Mode) (*core.Result, bool, error) {
	for {
		pc.mu.RLock()
		cached, ok := pc.entries[key]
		pc.mu.RUnlock()
		if ok {
			if res, err := core.Rebind(cached, n); err == nil {
				pc.hits.Add(1)
				return res, true, nil
			}
			pc.misses.Add(1)
			res, err := core.Optimize(n, mode)
			if err != nil {
				return nil, false, err
			}
			pc.mu.Lock()
			pc.entries[key] = res
			pc.mu.Unlock()
			return res, false, nil
		}
		fl, mine := pc.join(key)
		if mine {
			return pc.plan(key, n, mode, fl)
		}
		if fl != nil {
			// A planner that failed leaves no entry: the next round makes
			// this caller the planner, which reports the error first-hand.
			<-fl.done
		}
	}
}

// join finds who plans the cold key: the flight to wait on, a new flight
// that makes the caller the planner (mine), or nil when an entry was stored
// since the caller looked.
func (pc *PlanCache) join(key string) (fl *flight, mine bool) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if _, ok := pc.entries[key]; ok {
		return nil, false
	}
	if fl, ok := pc.flights[key]; ok {
		return fl, false
	}
	fl = &flight{done: make(chan struct{})}
	pc.flights[key] = fl
	return fl, true
}

// plan optimises n as the one planner of a cold key and releases whoever
// waits on fl, whatever the outcome — a panicking optimiser included.
func (pc *PlanCache) plan(key string, n logical.Node, mode core.Mode, fl *flight) (res *core.Result, hit bool, err error) {
	pc.misses.Add(1)
	defer func() {
		pc.mu.Lock()
		if res != nil {
			pc.entries[key] = res
		}
		delete(pc.flights, key)
		pc.mu.Unlock()
		close(fl.done)
	}()
	res, err = core.Optimize(n, mode)
	return res, false, err
}

// Clear drops every entry.
func (pc *PlanCache) Clear() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.entries = make(map[string]*core.Result)
}

// Stats returns hit and miss counters.
func (pc *PlanCache) Stats() (hits, misses int) {
	return int(pc.hits.Load()), int(pc.misses.Load())
}

// ResetStats zeroes the hit and miss counters (entries are kept). A
// disabled cache resets its counters so the exported hit ratio reflects
// only periods the cache was live.
func (pc *PlanCache) ResetStats() {
	pc.hits.Store(0)
	pc.misses.Store(0)
}
