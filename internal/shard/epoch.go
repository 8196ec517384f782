// Epoch-pinned reads across the shard cluster.
//
// Each shard engine publishes its own epochs; the cluster lifts the
// same scatter-gather shape Run uses onto the epoch read path. A
// cluster epoch read pins the current epoch of every shard, answers
// the query against each pinned stripe concurrently, and merges the
// results exactly like Run's gather (global id = local*N + shard,
// shard-order concatenation) — but because epoch reads never touch the
// live engines, any number of cluster epoch reads may run concurrently
// with each other and with the single owner goroutine's writes,
// intents and publications.

package shard

import (
	"sync"

	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/trace"
)

// PublishEpoch publishes the next epoch on every shard, in shard
// order, and returns shard 0's epoch sequence number. Like every
// mutating call it belongs to the cluster's single owner goroutine.
func (c *Cluster) PublishEpoch() uint64 {
	var seq uint64
	for s, e := range c.shards {
		ep := e.PublishEpoch()
		if s == 0 {
			seq = ep.Seq
		}
	}
	return seq
}

// ApplyIntent applies one deferred crack intent on every shard: each
// stripe holds a slice of the predicate's value range, so every shard
// owes the same reorganisation. Runs on the owner goroutine.
func (c *Cluster) ApplyIntent(in engine.Intent) error {
	for _, e := range c.shards {
		if err := e.ApplyIntent(in); err != nil {
			return err
		}
	}
	return nil
}

// MergeDue reports whether any shard has a pending backlog due for a
// batched merge.
func (c *Cluster) MergeDue() bool {
	for _, e := range c.shards {
		if e.MergeDue() {
			return true
		}
	}
	return false
}

// MergePending drains the due (or, with all, every) pending backlog on
// every shard and returns the rows merged. Runs on the owner goroutine.
func (c *Cluster) MergePending(all bool) int {
	merged := 0
	for _, e := range c.shards {
		merged += e.MergePending(all)
	}
	return merged
}

// EpochRead answers one read-only query against every shard's pinned
// epoch concurrently and merges the per-shard results like Run's
// gather. Safe to call from any number of goroutines, concurrently
// with the owner goroutine's writes and reorganisation. The returned
// info's Release drops every shard's pin; NeedsReorg is the OR over
// shards; Seq is shard 0's.
func (c *Cluster) EpochRead(q engine.Query) (*engine.Result, engine.EpochInfo, error) {
	if len(c.shards) == 1 {
		return c.shards[0].EpochRead(q)
	}
	rec := q.Trace
	q.Trace = nil
	if rec != nil {
		rec.Begin(trace.PhaseEpochPin)
		defer rec.End(trace.Work{})
	}
	results := make([]*engine.Result, len(c.shards))
	infos := make([]engine.EpochInfo, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for s := range c.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s], infos[s], errs[s] = c.shards[s].EpochRead(q)
		}(s)
	}
	wg.Wait()
	release := func() {
		for s := range infos {
			if infos[s].Release != nil {
				infos[s].Release()
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			release()
			return nil, engine.EpochInfo{}, err
		}
	}
	info := engine.EpochInfo{Seq: infos[0].Seq, Release: release}
	for s := range infos {
		if infos[s].NeedsReorg {
			info.NeedsReorg = true
		}
	}
	parts := make([]StripeResult, len(results))
	for s, r := range results {
		parts[s] = StripeResult{Count: r.Count, Rows: r.Rows, Columns: r.Columns}
	}
	merged := MergeStriped(parts, q.Project, q.CountOnly)
	out := &engine.Result{
		Path: results[0].Path, Count: merged.Count,
		Rows: merged.Rows, Columns: merged.Columns,
	}
	return out, info, nil
}

// EpochStats sums the epoch machinery's counters over the shards;
// Seq and Pins report shard 0 (every shard publishes in lockstep, so
// shard 0 is representative).
func (c *Cluster) EpochStats() engine.EpochStats {
	var agg engine.EpochStats
	for s, e := range c.shards {
		st := e.EpochStats()
		if s == 0 {
			agg.Seq = st.Seq
			agg.Pins = st.Pins
		}
		agg.Published += st.Published
		agg.Retired += st.Retired
		agg.IntentsApplied += st.IntentsApplied
		agg.Reads += st.Reads
		agg.ReadWork += st.ReadWork
	}
	return agg
}
