package server

import (
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/trace"
)

// statsLocked assembles a Stats snapshot; the executor portion requires
// the caller to have safe access to the executor (the executor
// goroutine in batched mode, s.mu in direct mode).
func (s *Service) statsLocked() api.Stats {
	mode := "direct"
	if s.batched {
		mode = "batched"
	}
	var phases []api.PhaseStats
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		if s.phases[p].Count() == 0 {
			continue
		}
		phases = append(phases, api.PhaseStats{Phase: p.String(), Latency: api.Latency(&s.phases[p])})
	}
	proc := api.ReadProcessStats()
	if !s.cfg.SnapshotTime.IsZero() {
		proc.SnapshotAgeSeconds = time.Since(s.cfg.SnapshotTime).Seconds()
	}
	var reorg *api.ReorgStats
	if s.readers > 1 {
		reorg = &api.ReorgStats{
			Epoch:          s.exec.EpochStats(),
			Backlog:        len(s.intents),
			IntentsQueued:  s.intentsQueued.Load(),
			IntentsDropped: s.intentsDropped.Load(),
			LagUs:          s.reorgLagUs.Load(),
		}
	}
	return api.Stats{
		Tables:         s.exec.Tables(),
		Structures:     s.exec.Structures(),
		Planner:        s.exec.PlanStats(),
		WorkTotal:      s.exec.Cost().Total(),
		WriteState:     s.exec.WriteStats(),
		DefaultTable:   s.cfg.DefaultTable,
		DefaultColumn:  s.cfg.DefaultColumn,
		DefaultPath:    s.defaultPath.String(),
		Mode:           mode,
		BatchWindowUs:  s.cfg.BatchWindow.Microseconds(),
		MaxBatch:       s.cfg.MaxBatch,
		Queries:        s.queries.Load(),
		Writes:         s.writes.Load(),
		Rejected:       s.rejected.Load(),
		Batches:        s.batches.Load(),
		SharedScans:    s.shared.Load(),
		MaxBatchSeen:   s.maxBatch.Load(),
		EncodeFailures: s.encodeFailures.Load(),
		InFlight:       s.inFlight.Load(),
		MaxInFlight:    s.cfg.MaxInFlight,
		Latency:        api.Latency(&s.hist),
		TracedQueries:  s.traced.Load(),
		Phases:         phases,
		Shards:         s.exec.Shards(),
		ShardStats:     s.exec.ShardStats(),
		Readers:        s.readers,
		Reorg:          reorg,
		Process:        proc,
		EventLog:       api.EventLogStats{LastSeq: s.events.LastSeq(), Capacity: s.events.Capacity()},
		UptimeSeconds:  time.Since(s.started).Seconds(),
	}
}

// Stats returns an observable snapshot of the service, its catalog,
// structures and planner state. In batched mode the snapshot is taken
// by the executor between batches, so the engine portion is consistent;
// admission is bypassed so stats stay available under overload.
func (s *Service) Stats() api.Stats {
	select {
	case <-s.closed:
		// Closed and drained: the engine is quiescent.
		<-s.drained
		return s.statsLocked()
	default:
	}
	if s.batched {
		req := &request{op: opStats, enqueued: time.Now(), resp: make(chan result, 1)}
		select {
		case s.queue <- req:
		case <-s.closed:
			<-s.drained
			return s.statsLocked()
		}
		select {
		case res := <-req.resp:
			if res.stats != nil {
				return *res.stats
			}
		case <-s.drained:
			select {
			case res := <-req.resp:
				if res.stats != nil {
					return *res.stats
				}
			default:
			}
		}
		<-s.drained
		return s.statsLocked()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}
