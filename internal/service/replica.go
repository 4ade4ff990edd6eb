package service

import (
	"errors"
	"sync"
	"time"

	"mobic/internal/experiment"
	"mobic/internal/obs"
)

// ReplicaStore is the receiving side of proactive WAL replication: a
// bounded, TTL-pruned in-memory map of checkpoint replicas streamed by ring
// predecessors. Every worker keeps one (the cost is a few KB per in-flight
// replicated job) so any peer can be a successor. On failover, Restore
// resumes the job after the replica's contiguous checkpoint prefix, so the
// progress a dead owner journaled is not lost.
type ReplicaStore struct {
	rec obs.Recorder

	mu   sync.Mutex
	jobs map[string]*replicaEntry
	// limit bounds the entry count; the oldest entry is evicted past it.
	limit int
}

type replicaEntry struct {
	spec    JobSpec
	key     string
	cps     []experiment.CellStats
	updated time.Time
}

// newReplicaStore builds an empty store holding at most limit entries.
func newReplicaStore(limit int, rec obs.Recorder) *ReplicaStore {
	if limit <= 0 {
		limit = 256
	}
	return &ReplicaStore{jobs: make(map[string]*replicaEntry), limit: limit, rec: rec}
}

// Apply folds one replication batch (a MOBICREPL1 full record image) into
// the store and returns how many records the resulting entry covers — the
// ack the sender advances its high-water mark by. Batches are idempotent:
// the store keeps the longest contiguous checkpoint prefix it has seen for
// the id, so a stale retransmission can never shrink a replica.
func (rs *ReplicaStore) Apply(id string, data []byte, now time.Time) (int, error) {
	recs, _ := decodeFrames(data, replMagic)
	if len(recs) == 0 {
		return 0, errors.New("replica: no valid records in batch")
	}
	var e replicaEntry
	var haveSpec bool
	for _, rec := range recs {
		switch rec.Type {
		case recSubmit:
			if rec.Spec != nil && !haveSpec {
				e.spec, e.key, haveSpec = *rec.Spec, rec.Key, true
			}
		case recCheckpoint:
			// Contiguous prefix only, same as journal replay.
			if rec.Stats != nil && rec.Cell == len(e.cps) {
				e.cps = append(e.cps, *rec.Stats)
			}
		}
	}
	if !haveSpec {
		return 0, errors.New("replica: batch carries no submit record")
	}
	e.updated = now

	rs.mu.Lock()
	defer rs.mu.Unlock()
	if prev, ok := rs.jobs[id]; ok && len(prev.cps) > len(e.cps) {
		// Out-of-order retransmission of an older image: keep the longer
		// replica, refresh its clock, ack what we hold.
		prev.updated = now
		return 1 + len(prev.cps), nil
	}
	if _, ok := rs.jobs[id]; !ok && len(rs.jobs) >= rs.limit {
		rs.evictOldestLocked()
	}
	rs.jobs[id] = &e
	rs.rec.Add(obs.ReplApplied, int64(1+len(e.cps)))
	return 1 + len(e.cps), nil
}

// evictOldestLocked drops the least recently updated entry.
func (rs *ReplicaStore) evictOldestLocked() {
	var oldest string
	var when time.Time
	for id, e := range rs.jobs {
		if oldest == "" || e.updated.Before(when) {
			oldest, when = id, e.updated
		}
	}
	if oldest != "" {
		delete(rs.jobs, oldest)
	}
}

// Lookup returns the replica held for id, if any. The checkpoint slice is a
// copy.
func (rs *ReplicaStore) Lookup(id string) (spec JobSpec, key string, cps []experiment.CellStats, ok bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	e, ok := rs.jobs[id]
	if !ok {
		return JobSpec{}, "", nil, false
	}
	cps = make([]experiment.CellStats, len(e.cps))
	copy(cps, e.cps)
	return e.spec, e.key, cps, true
}

// Len returns the number of replicas held.
func (rs *ReplicaStore) Len() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.jobs)
}

// Prune drops replicas not updated within ttl. The janitor calls it with
// the service TTL: a replica either got consumed by a failover restore long
// before then or its job finished elsewhere.
func (rs *ReplicaStore) Prune(ttl time.Duration, now time.Time) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for id, e := range rs.jobs {
		if now.Sub(e.updated) >= ttl {
			delete(rs.jobs, id)
		}
	}
}
