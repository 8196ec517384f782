package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
	"adaptiveindex/internal/router"
	"adaptiveindex/internal/server"
	"adaptiveindex/internal/shard"
)

var projList = []string{projCol}

// httpHost is one loopback listener serving a handler until closed.
type httpHost struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

// serveHTTP listens on 127.0.0.1:0 — real TCP, as between the daemons.
func serveHTTP(h http.Handler) (*httpHost, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	host := &httpHost{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(host.done)
		_ = host.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	return host, nil
}

// close drops the listener and every connection (which also ends the
// keep-alive goroutines of the clients talking to it) and waits for the
// serve loop to return.
func (h *httpHost) close() {
	_ = h.srv.Close()
	<-h.done
}

// backend is one service as crackserve hosts it: executor, scheduler,
// HTTP surface.
type backend struct {
	svc  *server.Service
	host *httpHost
}

// stack is one workload's system under test, stood up exactly as the
// daemons do it.
type stack struct {
	sc   scale
	cat  *engine.Catalog // the full base table: the oracle's source
	exec server.Exec     // embedded workloads call this; nil when served

	backends   []*backend
	router     *router.Router
	routerHost *httpHost
	client     *api.Client // served workloads call this; nil when embedded

	// firstQueryMs and converge1kS are what the warm-up saw: query 1 on
	// the cold column and the wall time of the first ColdQueries reads.
	firstQueryMs float64
	converge1kS  float64
}

func buildCatalog(sc scale, seed int64) (*engine.Catalog, error) {
	return server.BuildCatalog([]server.TableSpec{{Name: tableName, Rows: sc.Rows, Cols: tableCols}}, seed, 0)
}

// buildExec builds the executor over cat the way crackserve does (merge
// policy gradual is its default).
func buildExec(cat *engine.Catalog, shards int, seed int64) (server.Exec, error) {
	built, err := server.BuildExec(cat, server.EngineOptions{Shards: shards, Seed: seed})
	return built.Exec, err
}

// engineQuery is one read as the embedded callers and the warm-up put it
// to an executor.
func engineQuery(o op, path engine.AccessPath) engine.Query {
	q := engine.Query{Table: tableName, Column: selCol, R: column.NewRange(o.lo, o.hi), Path: path}
	if o.kind == opCount {
		q.CountOnly = true
	} else {
		q.Project = projList
	}
	return q
}

// warm applies the warm-up reads directly to an executor and reports the
// first query's latency and the wall time of the first prefix reads.
func warm(ex server.Exec, ops []op, prefix int) (firstMs, prefixS float64, err error) {
	start := time.Now()
	for i, o := range ops {
		if _, err := ex.Run(engineQuery(o, engine.PathAuto)); err != nil {
			return 0, 0, fmt.Errorf("warm-up read %d: %w", i, err)
		}
		if i == 0 {
			firstMs = float64(time.Since(start)) / 1e6
		}
		if i == prefix-1 {
			prefixS = time.Since(start).Seconds()
		}
	}
	return firstMs, prefixS, nil
}

// newBackend hosts ex behind a service and a listener. BatchWindow stays
// 0 (direct mode, see config.go).
func newBackend(raw server.Exec, node, readers int, tr *tracer) (*backend, error) {
	svc, err := server.NewService(server.Config{
		Exec:         tr.wrapExec(node, raw),
		DefaultTable: tableName,
		DefaultPath:  "auto",
		Readers:      readers,
	})
	if err != nil {
		return nil, err
	}
	host, err := serveHTTP(tr.wrapHandler(spanServer, node, svc.Handler()))
	if err != nil {
		svc.Close()
		return nil, err
	}
	return &backend{svc: svc, host: host}, nil
}

func newClient(addr, proto string) *api.Client {
	return api.NewClient(addr, api.ClientOptions{Proto: proto, Block: wireBlock, Sessions: servedSessions})
}

// standUp generates the data, builds and warms the engines and stands
// the workload's serving layers up; everything it does is set-up time.
// On error whatever was started is torn down again.
func standUp(wl string, sc scale, seed int64, tr *tracer) (s *stack, err error) {
	s = &stack{sc: sc}
	defer func() {
		if err != nil {
			s.tearDown()
		}
	}()
	if s.cat, err = buildCatalog(sc, seed); err != nil {
		return s, err
	}
	if wl == wlColdEmbedded {
		return s, nil // every repetition builds its own fresh engine
	}
	warmOps := genReads(seed, -1, sc.WarmReads, sc.Rows).ops

	if wl == wlHotRouted {
		// Two striped single-engine nodes. Each is its own machine in a
		// deployment, so they are warmed one after the other, each with the
		// box to itself; a routed read waits for both, so the slower one is
		// what a user sees.
		const nodes = 2
		execs := make([]server.Exec, nodes)
		for n := range execs {
			part, err := shard.Stripe(s.cat, n, nodes)
			if err != nil {
				return s, err
			}
			if execs[n], err = buildExec(part, 1, seed); err != nil {
				return s, err
			}
			first, conv, err := warm(execs[n], warmOps, sc.ColdQueries)
			if err != nil {
				return s, err
			}
			s.firstQueryMs, s.converge1kS = max(s.firstQueryMs, first), max(s.converge1kS, conv)
		}
		addrs := make([]string, nodes)
		for n, ex := range execs {
			b, err := newBackend(ex, n, 1, tr)
			if err != nil {
				return s, err
			}
			s.backends = append(s.backends, b)
			addrs[n] = b.host.addr
		}
		if s.router, err = router.New(router.Config{Nodes: addrs, Proto: wireProto, Block: wireBlock}); err != nil {
			return s, err
		}
		if s.routerHost, err = serveHTTP(tr.wrapHandler(spanRouter, -1, s.router.Handler())); err != nil {
			return s, err
		}
		s.client = newClient(s.routerHost.addr, wireProto)
		return s, nil
	}

	shards, readers := 1, 1
	switch wl {
	case wlHotServed:
		shards = 2
	case wlMixedServed:
		readers = 2
	}
	ex, err := buildExec(s.cat, shards, seed)
	if err != nil {
		return s, err
	}
	if s.firstQueryMs, s.converge1kS, err = warm(ex, warmOps, sc.ColdQueries); err != nil {
		return s, err
	}
	if wl == wlHotEmbedded {
		s.exec = tr.wrapExec(0, ex)
		return s, nil
	}
	b, err := newBackend(ex, 0, readers, tr)
	if err != nil {
		return s, err
	}
	s.backends = append(s.backends, b)
	s.client = newClient(b.host.addr, wireProto)
	return s, nil
}

// tearDown stops everything standUp started, outermost first, and
// returns once every goroutine it owns has ended.
func (s *stack) tearDown() {
	if s.routerHost != nil {
		s.routerHost.close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, b := range s.backends {
		b.host.close()
		b.svc.Close()
	}
}
