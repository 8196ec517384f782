// Command crackserve is the query service daemon: it hosts a
// multi-table adaptive execution engine (internal/engine) behind an
// HTTP endpoint with shared-scan batching, a cost-driven access-path
// planner, admission control and latency histograms.
//
//	crackserve -addr :8080 -tables orders:1000000:4,events:200000:2 -snapshot /tmp/engine.snap
//	crackserve -n 1000000 -path cracking -batch-window 500us
//	crackserve -n 1000000 -shards 4
//
// With -shards N (default: one per CPU) the catalog is row-striped
// across N independent engine shards behind a scatter-gather front
// (internal/shard): every query fans out to all shards concurrently
// and the per-shard answers are merged, so each shard cracks and
// materialises ~1/N of the data. -shards 1 behaves exactly like the
// unsharded engine. The wire protocols, /stats (which gains per-shard
// breakdowns), /metrics and snapshots all work unchanged, except that
// a sharded daemon writes per-shard snapshot segments, restorable only
// at the same -shards count.
//
// With -stripe s/N the daemon serves only stripe s of the generated
// catalog (rows g with g % N == s, renumbered densely) — the building
// block of a multi-node deployment behind crackrouter, which owns the
// global row ids and fans every query across the N stripes. The
// listener answers from the first moment; until the engine is built or
// restored every request gets 503 and /healthz reports
// {"ok":true,"ready":false}, so orchestrators can tell "booting" from
// "dead".
//
// With -readers N (N > 1) reads on the auto/cracking path are answered
// by up to N concurrent workers against epoch-pinned immutable
// snapshots, never blocking on the executor; the cracking those reads
// defer is applied by a background reorganiser that publishes fresh
// epochs. Writes stay serialised. /stats reports the readers setting
// and the reorganiser's backlog and lag; /metrics exports them as
// crack_readers, crack_reorg_backlog and crack_reorg_lag_seconds.
//
// The hosted catalog is generated deterministically from -tables and
// -seed (columns c0..c{k-1} per table), so a daemon restarted with the
// same flags serves the same data. Queries name a table, a selection
// column, a range and optional projection columns; the access path
// defaults to -path ("auto": the engine's planner explores the paths
// on real queries and exploits the cheapest, re-exploring on drift).
//
// The daemon also accepts writes (POST /update): inserts and deletes
// are applied to the base tables immediately and reach the cracked
// columns through the merge policy named by -merge — "gradual" and
// "complete" buffer them and ripple-merge on the next query touching
// the affected range, "immediate" applies them on arrival. With
// -snapshot set, a graceful shutdown (SIGINT/SIGTERM) writes the
// engine's adaptive state — cracked columns, sideways maps, planner
// estimates, appended rows, tombstones and still-pending update
// buffers — through internal/persist and the next boot restores it:
// the physical design the workload paid for survives the restart
// instead of being re-learned, and unmerged writes are not lost.
//
// Observability: GET /stats is the structured snapshot, GET /metrics
// the Prometheus text exposition of the same counters, and GET
// /debug/events the reorganisation event log (crack splits, merge
// flushes, planner decisions) for cursor-based replay. Queries carrying
// "trace":true (or an X-Crack-Trace header) get their per-phase span
// tree back inline. -events sizes the event ring; -debug-addr starts a
// second listener with net/http/pprof, kept off the public address.
//
// Endpoints: POST /query, POST /update, GET /stats, GET /metrics,
// GET /debug/events, GET /healthz (see internal/server).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/shard"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/updates"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "crackserve:", err)
		os.Exit(1)
	}
}

// config is the parsed daemon configuration.
type config struct {
	addr        string
	tables      string
	n           int
	domain      int
	seed        int64
	path        string
	merge       string
	shards      int
	batchWindow time.Duration
	batchMax    int
	inFlight    int
	readers     int
	stripe      string
	stripeIdx   int
	stripeOf    int
	snapshot    string
	drainWait   time.Duration
	events      int
	debugAddr   string
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("crackserve", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.tables, "tables", "", "catalog spec name:rows:cols[,name:rows:cols...] (default: data:<n>:3)")
	fs.IntVar(&cfg.n, "n", 1_000_000, "rows of the default single-table catalog (ignored when -tables is set)")
	fs.IntVar(&cfg.domain, "domain", 0, "value domain of every generated column (default: the table's row count)")
	fs.Int64Var(&cfg.seed, "seed", 42, "data generation seed")
	fs.StringVar(&cfg.path, "path", "auto", "default access path ("+strings.Join(engine.PathNames(), ", ")+")")
	fs.StringVar(&cfg.merge, "merge", "gradual", "write merge policy ("+strings.Join(updates.PolicyNames(), ", ")+"), with optional per-table overrides: gradual,orders=immediate")
	fs.IntVar(&cfg.shards, "shards", 0, "engine shards behind the scatter-gather front (default: one per CPU; 1 disables sharding)")
	fs.DurationVar(&cfg.batchWindow, "batch-window", 500*time.Microsecond, "batch coalescing window (0 disables batching)")
	fs.IntVar(&cfg.batchMax, "batch-max", 64, "max queries per batch")
	fs.IntVar(&cfg.inFlight, "inflight", 1024, "admission limit on in-flight queries")
	fs.IntVar(&cfg.readers, "readers", 1, "concurrent epoch-pinned read workers (<=1: every query on the serialised executor)")
	fs.StringVar(&cfg.stripe, "stripe", "", "serve stripe s/N of the generated catalog (e.g. 0/2), for multi-node deployments behind crackrouter")
	fs.StringVar(&cfg.snapshot, "snapshot", "", "engine snapshot file, restored on boot and written on graceful shutdown")
	fs.DurationVar(&cfg.drainWait, "drain-wait", 5*time.Second, "graceful shutdown drain timeout")
	fs.IntVar(&cfg.events, "events", trace.DefaultLogSize, "reorganisation event ring capacity (served at /debug/events)")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "optional second listen address exposing net/http/pprof (kept off the public address)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.tables == "" {
		cfg.tables = fmt.Sprintf("data:%d:3", cfg.n)
	}
	if cfg.stripe != "" {
		if _, err := fmt.Sscanf(cfg.stripe, "%d/%d", &cfg.stripeIdx, &cfg.stripeOf); err != nil {
			return cfg, fmt.Errorf("bad -stripe %q: want s/N (e.g. 0/2)", cfg.stripe)
		}
		if cfg.stripeOf < 1 || cfg.stripeIdx < 0 || cfg.stripeIdx >= cfg.stripeOf {
			return cfg, fmt.Errorf("bad -stripe %q: want 0 <= s < N", cfg.stripe)
		}
	} else {
		cfg.stripeOf = 1
	}
	return cfg, nil
}

func run(ctx context.Context, args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	return serve(ctx, cfg, ln, out)
}

// bootGate answers every request 503 until the engine is built or
// restored: /healthz reports {"ok":true,"ready":false} so orchestrators
// (and crackrouter's health probe) can tell "booting" from "dead"
// without racing the snapshot restore, everything else gets an error
// envelope.
func bootGate() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		if r.URL.Path == "/healthz" {
			json.NewEncoder(w).Encode(api.Health{OK: true, Ready: false})
			return
		}
		json.NewEncoder(w).Encode(api.ErrorResponse{Error: "booting: engine not ready"})
	})
}

// serve hosts the service on the listener until ctx is cancelled, then
// shuts down gracefully: the HTTP server drains, the scheduler
// quiesces, and the engine state is snapshotted. The listener answers
// from the first moment — a boot-gate handler holds the fort (503,
// /healthz not-ready) while the engine builds or restores, then the
// real service handler is swapped in atomically.
func serve(ctx context.Context, cfg config, ln net.Listener, out io.Writer) error {
	var handler atomic.Pointer[http.Handler]
	gate := bootGate()
	handler.Store(&gate)
	httpSrv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fail := func(err error) error {
		httpSrv.Close()
		return err
	}

	specs, err := server.ParseTableSpecs(cfg.tables)
	if err != nil {
		return fail(err)
	}
	cat, err := server.BuildCatalog(specs, cfg.seed, cfg.domain)
	if err != nil {
		return fail(err)
	}
	if cfg.stripeOf > 1 {
		// The node keeps rows g with g % N == s, renumbered densely —
		// the same striping contract shard.Cluster applies in-process,
		// lifted across nodes. crackrouter owns the global ids.
		if cat, err = shard.Stripe(cat, cfg.stripeIdx, cfg.stripeOf); err != nil {
			return fail(err)
		}
	}
	mergeDefault, mergeTables, err := server.ParseMergeSpec(cfg.merge)
	if err != nil {
		return fail(err)
	}
	shards := cfg.shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	built, err := server.BuildExec(cat, server.EngineOptions{
		Shards:        shards,
		Seed:          cfg.seed,
		MergePolicy:   mergeDefault,
		TablePolicies: mergeTables,
		SnapshotPath:  cfg.snapshot,
	})
	if err != nil {
		return fail(err)
	}
	// A restored snapshot's age tells operators how much adaptive
	// convergence this process inherited rather than earned.
	var snapTime time.Time
	if built.Restored {
		if fi, err := os.Stat(cfg.snapshot); err == nil {
			snapTime = fi.ModTime()
		}
	}
	svc, err := server.NewService(server.Config{
		Exec:         built.Exec,
		DefaultTable: specs[0].Name,
		DefaultPath:  cfg.path,
		BatchWindow:  cfg.batchWindow,
		MaxBatch:     cfg.batchMax,
		MaxInFlight:  cfg.inFlight,
		Readers:      cfg.readers,
		EventLog:     trace.NewLog(cfg.events),
		SnapshotTime: snapTime,
	})
	if err != nil {
		return fail(err)
	}
	// The banner reads the executor's catalog, so it is rendered before
	// the handler swap lets requests (and the executor's writes) in.
	boot := "cold start"
	if built.Restored {
		boot = fmt.Sprintf("restored from %s", cfg.snapshot)
	}
	if cfg.stripeOf > 1 {
		boot += fmt.Sprintf(", stripe %d/%d", cfg.stripeIdx, cfg.stripeOf)
	}
	policies := make(map[string]string)
	for _, ti := range built.Exec.Tables() {
		policies[ti.Table] = ti.MergePolicy
	}
	var tables []string
	for _, spec := range specs {
		tables = append(tables, fmt.Sprintf("%s(%d rows, %d cols, merge=%s)",
			spec.Name, spec.Rows, spec.Cols, policies[spec.Name]))
	}
	banner := fmt.Sprintf("crackserve: %s on %s (%s)\n", svc, ln.Addr(), boot)
	catalog := fmt.Sprintf("crackserve: catalog %s\n", strings.Join(tables, ", "))
	ready := svc.Handler()
	handler.Store(&ready)

	// The profiler gets its own listener so it can stay firewalled away
	// from the query surface; it serves until the daemon exits.
	var debugSrv *http.Server
	if cfg.debugAddr != "" {
		dln, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			httpSrv.Close()
			svc.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: mux}
		go debugSrv.Serve(dln)
		fmt.Fprintf(out, "crackserve: pprof on %s\n", dln.Addr())
	}

	fmt.Fprint(out, banner)
	fmt.Fprint(out, catalog)

	select {
	case <-ctx.Done():
	case err := <-errc:
		svc.Close()
		return err
	}

	fmt.Fprintln(out, "crackserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drainWait)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(shutdownCtx)
	if errors.Is(shutdownErr, context.DeadlineExceeded) {
		httpSrv.Close()
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	svc.Close()

	if cfg.snapshot != "" {
		if err := writeSnapshot(svc, cfg.snapshot, out); err != nil {
			return err
		}
	}
	st := svc.Stats()
	fmt.Fprintf(out, "crackserve: served %d queries, %d writes (%d batches, %d shared scans, %d pending updates), p50=%dµs p99=%dµs\n",
		st.Queries, st.Writes, st.Batches, st.SharedScans,
		st.WriteState.PendingInserts+st.WriteState.PendingDeletes, st.Latency.P50Us, st.Latency.P99Us)
	return shutdownErr
}

// writeSnapshot persists the quiesced engine atomically (write to a
// temp file, then rename), so a crash mid-write never corrupts the
// previous snapshot.
func writeSnapshot(svc *server.Service, path string, out io.Writer) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = svc.SnapshotTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	fmt.Fprintf(out, "crackserve: snapshot written to %s\n", path)
	return nil
}
