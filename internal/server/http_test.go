package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/engine"
)

func newHTTPFixture(t *testing.T) (*Service, *httptest.Server, []column.Value) {
	t.Helper()
	eng, vals := testEngine(t, 20_000)
	svc := newTestService(t, eng, 200*time.Microsecond, "auto")
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts, vals
}

func postQuery(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPQueryCount(t *testing.T) {
	_, ts, vals := newHTTPFixture(t)
	resp, body := postQuery(t, ts.URL, `{"op":"count","low":100,"high":900}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	want := refCount(vals, api.QueryRequest{Low: i64(100), High: i64(900)}.Range())
	if qr.Count != want {
		t.Fatalf("count %d, want %d", qr.Count, want)
	}
	if qr.Rows != nil {
		t.Fatal("count op must not materialise rows")
	}
	if qr.Path == "" || qr.Path == "auto" {
		t.Fatalf("response must name the executed path, got %q", qr.Path)
	}
}

func TestHTTPQuerySelectProject(t *testing.T) {
	svc, ts, vals := newHTTPFixture(t)
	resp, body := postQuery(t, ts.URL,
		`{"op":"select","table":"data","column":"c0","low":5000,"high":5200,"project":["c1","c2"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Count != len(qr.Rows) {
		t.Fatalf("count %d but %d rows", qr.Count, len(qr.Rows))
	}
	r := api.QueryRequest{Low: i64(5000), High: i64(5200)}.Range()
	if want := refCount(vals, r); qr.Count != want {
		t.Fatalf("count %d, want %d", qr.Count, want)
	}
	tab, err := svc.cfg.Engine.Catalog().Table("data")
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := tab.Column("c1")
	c2, _ := tab.Column("c2")
	if len(qr.Columns["c1"]) != len(qr.Rows) || len(qr.Columns["c2"]) != len(qr.Rows) {
		t.Fatalf("projection lengths %d/%d for %d rows", len(qr.Columns["c1"]), len(qr.Columns["c2"]), len(qr.Rows))
	}
	for i, row := range qr.Rows {
		if !r.Contains(vals[row]) {
			t.Fatalf("row %d value %d outside %s", row, vals[row], r)
		}
		if qr.Columns["c1"][i] != c1[row] || qr.Columns["c2"][i] != c2[row] {
			t.Fatalf("misaligned projection for row %d", row)
		}
	}
}

func TestHTTPQueryOneSidedAndInclusive(t *testing.T) {
	_, ts, vals := newHTTPFixture(t)
	cases := []struct {
		body string
		want api.QueryRequest
	}{
		{`{"high":100}`, api.QueryRequest{High: i64(100)}},
		{`{"low":19000}`, api.QueryRequest{Low: i64(19000)}},
		{`{"low":50,"high":50,"incHigh":true}`, api.QueryRequest{Low: i64(50), High: i64(50), IncHigh: b(true)}},
		{`{}`, api.QueryRequest{}},
	}
	for _, c := range cases {
		resp, body := postQuery(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.body, resp.StatusCode, body)
		}
		var qr api.QueryResponse
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if want := refCount(vals, c.want.Range()); qr.Count != want {
			t.Fatalf("%s: count %d, want %d", c.body, qr.Count, want)
		}
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts, _ := newHTTPFixture(t)
	knownPaths := strings.Join(engine.PathNames(), ", ")
	for _, c := range []struct {
		body string
		why  string
		// mention, when set, must appear in the error body.
		mention string
	}{
		{`{"op":"drop table"}`, "unknown op", ""},
		{`{not json`, "malformed body", ""},
		{`{"table":"no-such-table","low":1}`, "unknown table", ""},
		{`{"column":"no-such-column","low":1}`, "unknown column", ""},
		{`{"path":"btree-of-lies","low":1}`, "unknown path", knownPaths},
		{`{"path":"parallel","low":1}`, "retired path", knownPaths},
		{`{"op":"count","project":["c1"]}`, "count with projection", ""},
		{`{"op":"select","project":["no-such-column"],"low":1}`, "unknown projection column", ""},
	} {
		resp, body := postQuery(t, ts.URL, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%s)", c.why, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), c.mention) {
			t.Fatalf("%s: body %s does not list %q", c.why, body, c.mention)
		}
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d, want 405", resp.StatusCode)
	}
}

func TestHTTPStatsAndHealth(t *testing.T) {
	_, ts, _ := newHTTPFixture(t)
	for i := 0; i < 5; i++ {
		postQuery(t, ts.URL, `{"low":10,"high":500}`)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats status %d", resp.StatusCode)
	}
	var st api.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Tables) != 2 || st.Tables[0].Table != "aux" || st.Tables[1].Table != "data" {
		t.Fatalf("unexpected catalog: %+v", st.Tables)
	}
	if st.Tables[1].Rows != 20_000 || len(st.Tables[1].Columns) != 3 {
		t.Fatalf("unexpected data table stats: %+v", st.Tables[1])
	}
	if st.Queries != 5 {
		t.Fatalf("queries %d, want 5", st.Queries)
	}
	if len(st.Planner) == 0 {
		t.Fatal("auto traffic must surface planner state in /stats")
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status %d", health.StatusCode)
	}
}

func i64(v int64) *int64 { return &v }
func b(v bool) *bool     { return &v }
