package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/trace"
	"adaptiveindex/internal/wire"
)

// --- histogram edge cases -------------------------------------------
//
// The service keeps its latency in trace.Histogram and renders it
// through trace.PromWriter; these tests pin the edges /stats and
// /metrics rely on, through the histogram's exported surface.

// promDoc renders h as one histogram family named x_seconds.
func promDoc(h *trace.Histogram) string {
	var p trace.PromWriter
	p.Meta("x_seconds", "histogram", "test histogram.")
	p.Histogram("x_seconds", "", h)
	return p.String()
}

// bucketCounts returns the cumulative count of every finite bucket in
// a promDoc document, keyed by its le label.
func bucketCounts(t *testing.T, doc string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "x_seconds_bucket") {
			continue
		}
		le := line[strings.Index(line, `le="`)+4:]
		le = le[:strings.Index(le, `"`)]
		cum, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		out[le] = cum
	}
	return out
}

func TestHistogramZeroDuration(t *testing.T) {
	var h trace.Histogram
	h.Observe(0)
	if got := bucketCounts(t, promDoc(&h))["0"]; got != 1 {
		t.Fatalf("zero-duration observation not in bucket 0 (got %d)", got)
	}
	st := api.Latency(&h)
	if st.Count != 1 || st.MaxUs != 0 || st.MeanUs != 0 {
		t.Fatalf("snapshot after observe(0): %+v", st)
	}
	// The percentile resolves to bucket 0's upper bound, never to 0 or
	// a garbage value.
	if st.P50Us != 1 {
		t.Fatalf("p50 after observe(0) = %d, want 1", st.P50Us)
	}
}

func TestHistogramMaxBucketClamp(t *testing.T) {
	var h trace.Histogram
	h.Observe(time.Duration(math.MaxInt64)) // ~292 years: past every bucket
	buckets := bucketCounts(t, promDoc(&h))
	last := strconv.FormatFloat(float64(uint64(1)<<47-1)/1e6, 'g', -1, 64)
	for le, cum := range buckets {
		if le != last && le != "+Inf" && cum != 0 {
			t.Fatalf("overflow observation leaked into bucket le=%s", le)
		}
	}
	if got := buckets[last]; got != 1 {
		t.Fatalf("overflow observation not clamped to the last bucket (got %d)", got)
	}
	if p := h.Percentile(0.99); p != uint64(1)<<47 {
		t.Fatalf("p99 = %d, want the last bucket bound %d", p, uint64(1)<<47)
	}
}

// TestHistogramConcurrentObserve exercises Observe against percentile
// and snapshot readers; the -race build is the real assertion.
func TestHistogramConcurrentObserve(t *testing.T) {
	var h trace.Histogram
	const writers, perWriter = 4, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					h.Percentile(0.95)
					api.Latency(&h)
				}
			}
		}()
	}
	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	if got := h.Count(); got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
}

// --- Prometheus rendering -------------------------------------------

// TestPromHistogramMonotonic renders a histogram spanning the edge
// buckets (zero-duration and clamped-overflow observations included)
// and checks the cumulative bucket series the way promtool would.
func TestPromHistogramMonotonic(t *testing.T) {
	var h trace.Histogram
	h.Observe(0)
	h.Observe(time.Microsecond)
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i*i) * time.Microsecond)
	}
	h.Observe(time.Duration(math.MaxInt64))

	doc := promDoc(&h)
	if errs := trace.LintProm(strings.NewReader(doc)); len(errs) != 0 {
		t.Fatalf("lint errors: %v\n%s", errs, doc)
	}

	prevLe := math.Inf(-1)
	var prevCum uint64
	var infCum, count uint64
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "x_seconds_bucket"):
			le := line[strings.Index(line, `le="`)+4:]
			le = le[:strings.Index(le, `"`)]
			cum, err := strconv.ParseUint(strings.Fields(line)[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if le == "+Inf" {
				infCum = cum
				continue
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatal(err)
			}
			if bound <= prevLe {
				t.Fatalf("le bounds not ascending: %g after %g", bound, prevLe)
			}
			if cum < prevCum {
				t.Fatalf("cumulative counts not monotonic: %d after %d", cum, prevCum)
			}
			prevLe, prevCum = bound, cum
		case strings.HasPrefix(line, "x_seconds_count"):
			count, _ = strconv.ParseUint(strings.Fields(line)[1], 10, 64)
		}
	}
	if infCum != count || count != h.Count() {
		t.Fatalf("+Inf bucket %d, _count %d, observed %d: must all agree", infCum, count, h.Count())
	}
}

func TestPromBoundIsExactBucketUpperBound(t *testing.T) {
	// Bucket i holds integer microsecond values in [2^(i-1), 2^i); its
	// largest member is 2^i - 1 µs, which its le label reports in
	// seconds.
	for _, tc := range []struct {
		i    int
		want float64
	}{{0, 0}, {1, 1e-6}, {4, 15e-6}, {10, 1023e-6}} {
		var h trace.Histogram
		h.Observe(time.Duration(uint64(1)<<tc.i-1) * time.Microsecond)
		le := strconv.FormatFloat(tc.want, 'g', -1, 64)
		buckets := bucketCounts(t, promDoc(&h))
		if buckets[le] != 1 || len(buckets) != tc.i+2 {
			t.Fatalf("bucket %d: want the sample in le=%s as the last finite bucket, got %v", tc.i, le, buckets)
		}
	}
}

// --- traced queries over HTTP ---------------------------------------

func decodeTrace(t *testing.T, raw []byte) *trace.Span {
	t.Helper()
	var root trace.Span
	if err := json.Unmarshal(raw, &root); err != nil {
		t.Fatalf("trace did not decode: %v\n%s", err, raw)
	}
	return &root
}

// phaseIndex flattens a span tree into phase -> first span.
func phaseIndex(root *trace.Span) map[trace.Phase]*trace.Span {
	out := map[trace.Phase]*trace.Span{}
	var walk func(sp *trace.Span)
	walk = func(sp *trace.Span) {
		if _, ok := out[sp.Phase]; !ok {
			out[sp.Phase] = sp
		}
		for _, c := range sp.Spans {
			walk(c)
		}
	}
	walk(root)
	return out
}

func TestHTTPTracedQueryJSON(t *testing.T) {
	svc, ts, vals := newHTTPFixture(t)
	resp, body := postQuery(t, ts.URL,
		`{"op":"select","low":100,"high":2000,"project":["c1"],"path":"cracking","trace":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if want := refCount(vals, api.QueryRequest{Low: i64(100), High: i64(2000)}.Range()); qr.Count != want {
		t.Fatalf("count %d, want %d", qr.Count, want)
	}
	if len(qr.Trace) == 0 {
		t.Fatal("trace requested but absent from response")
	}
	root := decodeTrace(t, qr.Trace)
	if root.Phase != trace.PhaseQuery {
		t.Fatalf("root phase %v, want query", root.Phase)
	}
	// The top-level phases are disjoint intervals of the query's life:
	// their durations must fit inside the root total.
	if root.ChildDurUs() > root.DurUs {
		t.Fatalf("phase durations %dus exceed query total %dus", root.ChildDurUs(), root.DurUs)
	}
	idx := phaseIndex(root)
	for _, p := range []trace.Phase{trace.PhaseQueueWait, trace.PhaseCrack, trace.PhaseMaterialise, trace.PhaseEncode} {
		if idx[p] == nil {
			t.Errorf("phase %v missing from span tree %s", p, qr.Trace)
		}
	}
	if idx[trace.PhaseCrack] != nil && idx[trace.PhaseCrack].Work.Total == 0 {
		t.Error("crack span carries no work on a cold cracking query")
	}

	st := svc.Stats()
	if st.TracedQueries == 0 || len(st.Phases) == 0 {
		t.Fatalf("stats did not register the traced query: traced=%d phases=%d", st.TracedQueries, len(st.Phases))
	}
}

func TestHTTPTraceHeader(t *testing.T) {
	_, ts, _ := newHTTPFixture(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query",
		strings.NewReader(`{"op":"count","low":0,"high":500}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Crack-Trace", "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr api.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Trace) == 0 {
		t.Fatal("X-Crack-Trace header did not produce a trace")
	}
	// An untraced request stays trace-free.
	_, body := postQuery(t, ts.URL, `{"op":"count","low":0,"high":500}`)
	if strings.Contains(string(body), `"trace"`) {
		t.Fatalf("untraced response carries a trace: %s", body)
	}
}

func TestHTTPTracedBinary(t *testing.T) {
	_, ts, _ := newHTTPFixture(t)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query",
		strings.NewReader(`{"op":"select","low":100,"high":2000,"project":["c1"],"trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	res, err := wire.Decode(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) == 0 {
		t.Fatal("binary response carries no trace frame")
	}
	root := decodeTrace(t, res.Trace)
	if root.Phase != trace.PhaseQuery || len(root.Spans) == 0 {
		t.Fatalf("unexpected span tree: %s", res.Trace)
	}
	if phaseIndex(root)[trace.PhaseEncode] == nil {
		t.Fatal("binary trace lacks the wire_encode phase")
	}
}

// TestTracedWorkMatchesStatsCounters checks the acceptance invariant:
// the work attributed to a traced query's spans equals the movement of
// the engine's /stats work counter across the query.
func TestTracedWorkMatchesStatsCounters(t *testing.T) {
	eng, _ := testEngine(t, 10_000)
	svc := newTestService(t, eng, 0, "cracking") // direct mode: nothing else moves the engine
	before := svc.Stats().WorkTotal
	rec := trace.NewRecorder()
	if _, err := svc.SelectQueryTraced(Query{R: column.NewRange(100, 5000), Project: []string{"c1"}}, rec); err != nil {
		t.Fatal(err)
	}
	root := rec.Finish()
	delta := svc.Stats().WorkTotal - before
	if sum := root.SumWork().Total; sum != delta {
		t.Fatalf("span work %d != stats counter movement %d", sum, delta)
	}
	if phaseIndex(root)[trace.PhaseQueueWait] == nil {
		t.Fatal("direct-mode trace lacks the latch-wait queue_wait span")
	}
}

// TestBatchedTraceSharedExecution coalesces identical traced queries
// and checks each waiter still gets a span tree explaining its latency.
func TestBatchedTraceSharedExecution(t *testing.T) {
	eng, _ := testEngine(t, 10_000)
	svc := newTestService(t, eng, 2*time.Millisecond, "cracking")
	const clients = 8
	var wg sync.WaitGroup
	roots := make([]*trace.Span, clients)
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := trace.NewRecorder()
			_, err := svc.SelectQueryTraced(Query{R: column.NewRange(500, 700)}, rec)
			errs[c] = err
			roots[c] = rec.Finish()
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		idx := phaseIndex(roots[c])
		if idx[trace.PhaseQueueWait] == nil || idx[trace.PhaseBatchAssembly] == nil {
			t.Fatalf("client %d trace lacks scheduler phases: %+v", c, roots[c].Spans)
		}
		if idx[trace.PhaseCrack] == nil {
			t.Fatalf("client %d trace lacks the crack span (shared-execution import failed)", c)
		}
		if roots[c].ChildDurUs() > roots[c].DurUs {
			t.Fatalf("client %d phase durations exceed total", c)
		}
	}
}

// --- /metrics and method gating -------------------------------------

func TestHTTPMetricsExposition(t *testing.T) {
	_, ts, _ := newHTTPFixture(t)
	postQuery(t, ts.URL, `{"op":"select","low":100,"high":900,"trace":true}`)
	postQuery(t, ts.URL, `{"op":"count","low":0,"high":50}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	if errs := trace.LintProm(resp.Body); len(errs) != 0 {
		t.Fatalf("exposition lint errors: %v", errs)
	}
}

func TestHTTPMethodNotAllowed(t *testing.T) {
	_, ts, _ := newHTTPFixture(t)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/query", http.MethodPost},
		{http.MethodGet, "/update", http.MethodPost},
		{http.MethodPost, "/stats", http.MethodGet},
		{http.MethodPost, "/metrics", http.MethodGet},
		{http.MethodDelete, "/debug/events", http.MethodGet},
		{http.MethodPost, "/healthz", http.MethodGet},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tc.method, tc.path, resp.StatusCode)
		}
		if got := resp.Header.Get("Allow"); got != tc.allow {
			t.Errorf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}

// --- /debug/events --------------------------------------------------

// TestHTTPEventsReplayTwoClients replays the reorganisation log from
// two independent cursors with different page sizes and checks both
// see the same events in strict sequence order.
func TestHTTPEventsReplayTwoClients(t *testing.T) {
	_, ts, _ := newHTTPFixture(t)
	for i := 0; i < 30; i++ {
		lo := int64(i * 300)
		postQuery(t, ts.URL, fmt.Sprintf(`{"op":"select","low":%d,"high":%d,"path":"auto"}`, lo, lo+200))
	}

	poll := func(pageSize int) []trace.Event {
		var got []trace.Event
		var since uint64
		for {
			resp, err := http.Get(fmt.Sprintf("%s/debug/events?since=%d&max=%d", ts.URL, since, pageSize))
			if err != nil {
				t.Fatal(err)
			}
			var er eventsResponse
			err = json.NewDecoder(resp.Body).Decode(&er)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if er.Dropped != 0 {
				t.Fatalf("ring evicted %d events mid-replay", er.Dropped)
			}
			if len(er.Events) == 0 {
				return got
			}
			for _, ev := range er.Events {
				if ev.Seq <= since {
					t.Fatalf("page size %d: event %d out of order after cursor %d", pageSize, ev.Seq, since)
				}
				since = ev.Seq
				got = append(got, ev)
			}
		}
	}
	a, b := poll(3), poll(7)
	if len(a) == 0 {
		t.Fatal("no reorganisation events recorded for an auto-path workload")
	}
	if len(a) != len(b) {
		t.Fatalf("clients diverged: %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Kind != b[i].Kind {
			t.Fatalf("clients diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	kinds := map[string]bool{}
	for _, ev := range a {
		kinds[ev.Kind] = true
	}
	if !kinds["plan_exploit"] || !kinds["build"] {
		t.Fatalf("replay lacks planner/build events: %v", kinds)
	}
}

func TestHTTPEventsBadCursor(t *testing.T) {
	_, ts, _ := newHTTPFixture(t)
	for _, q := range []string{"since=banana", "max=-1"} {
		resp, err := http.Get(ts.URL + "/debug/events?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("?%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}
