package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adaptiveindex/internal/api"
	"adaptiveindex/internal/column"
	"adaptiveindex/internal/wire"
)

// postBinaryQuery issues a query negotiating the binary columnar
// response and decodes it. A non-200 fails the test with the JSON
// error body.
func postBinaryQuery(t *testing.T, url string, body string, block int) *wire.Result {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.AcceptValue(block))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("binary query %s: status %d: %s", body, resp.StatusCode, buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("binary query answered with Content-Type %q", ct)
	}
	res, err := wire.Decode(resp.Body)
	if err != nil {
		t.Fatalf("binary query %s: decode: %v", body, err)
	}
	return res
}

func TestHTTPBinarySelectMatchesJSON(t *testing.T) {
	_, ts, _ := newHTTPFixture(t)
	body := `{"op":"select","table":"data","column":"c0","low":5000,"high":5600,"project":["c1","c2"]}`

	resp, raw := postQuery(t, ts.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("plain query answered with Content-Type %q", ct)
	}
	var jr api.QueryResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}

	for _, block := range []int{0, 1, 7, 1 << 16} {
		br := postBinaryQuery(t, ts.URL, body, block)
		if br.Count != jr.Count {
			t.Fatalf("block=%d: binary count %d, json count %d", block, br.Count, jr.Count)
		}
		if br.Path == "" {
			t.Fatalf("block=%d: binary header lost the access path", block)
		}
		requireSameSelection(t, jr.Rows, jr.Columns, br.Rows, br.Columns)
	}
}

func TestHTTPBinaryCountAndErrors(t *testing.T) {
	_, ts, vals := newHTTPFixture(t)
	br := postBinaryQuery(t, ts.URL, `{"op":"count","low":100,"high":900}`, 0)
	want := refCount(vals, api.QueryRequest{Low: i64(100), High: i64(900)}.Range())
	if br.Count != want || len(br.Rows) != 0 {
		t.Fatalf("binary count = %d with %d rows, want %d with none", br.Count, len(br.Rows), want)
	}

	// Failures must come back as JSON errors even when the client
	// negotiated binary.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewBufferString(`{"table":"no-such-table","low":1}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad binary query: status %d, want 400", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error response Content-Type %q, want JSON", ct)
	}
	var er api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("error body not a JSON error: %v", err)
	}
}

// requireSameSelection asserts two responses describe the same
// selection: the same row set, and for every row the same projected
// values. Row order may differ — identical selects reorder rows as
// cracking reorganises the column between them, and dense row-only
// binary results travel as a bitset — so rows compare as sets and
// projections compare via the per-response row→value alignment.
func requireSameSelection(t *testing.T, jsonRows column.IDList, jsonCols map[string][]column.Value, binRows column.IDList, binCols map[string][]column.Value) {
	t.Helper()
	if !binRows.Equal(jsonRows) {
		t.Fatalf("row sets differ: binary %d rows, json %d rows", len(binRows), len(jsonRows))
	}
	if len(binCols) != len(jsonCols) {
		t.Fatalf("projection sets differ: binary %d columns, json %d", len(binCols), len(jsonCols))
	}
	for name, jvec := range jsonCols {
		bvec, ok := binCols[name]
		if !ok {
			t.Fatalf("binary response lost projected column %q", name)
		}
		if len(jvec) != len(jsonRows) || len(bvec) != len(binRows) {
			t.Fatalf("column %q misaligned: %d/%d values for %d/%d rows", name, len(jvec), len(bvec), len(jsonRows), len(binRows))
		}
		want := make(map[column.RowID]column.Value, len(jsonRows))
		for i, row := range jsonRows {
			want[row] = jvec[i]
		}
		for i, row := range binRows {
			if bvec[i] != want[row] {
				t.Fatalf("column %q row %d: binary value %d, json value %d", name, row, bvec[i], want[row])
			}
		}
	}
}

// TestHTTPBinaryDifferentialRandom drives random catalogs with random
// queries — projections, one-sided ranges, explicit paths — and
// interleaved inserts and deletes, answering every query over both
// protocols. The two answers must always describe the same selection:
// the wire format must never change what a query returns.
func TestHTTPBinaryDifferentialRandom(t *testing.T) {
	for trial := 0; trial < 3; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(7000 + trial)))
			specs := []TableSpec{
				{Name: "t0", Rows: 500 + rng.Intn(2500), Cols: 1 + rng.Intn(3)},
				{Name: "t1", Rows: 500 + rng.Intn(1500), Cols: 1 + rng.Intn(2)},
			}
			domain := 1000 + rng.Intn(5000)
			cat, err := BuildCatalog(specs, int64(trial)*13+1, domain)
			if err != nil {
				t.Fatal(err)
			}
			built, err := BuildEngine(cat, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			svc, err := NewService(Config{Engine: built.Engine, DefaultTable: "t0", DefaultPath: "auto", BatchWindow: 100 * time.Microsecond})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()

			paths := []string{"", "scan", "cracking", "auto"}
			nextRow := make(map[string]int)
			for _, spec := range specs {
				nextRow[spec.Name] = spec.Rows
			}
			for qi := 0; qi < 60; qi++ {
				spec := specs[rng.Intn(len(specs))]
				if qi%5 == 4 {
					applyRandomWrite(t, ts.URL, rng, spec, nextRow)
				}
				q := api.QueryRequest{Op: "select", Table: spec.Name, Column: ColumnName(rng.Intn(spec.Cols)), Path: paths[rng.Intn(len(paths))]}
				if rng.Intn(4) > 0 {
					q.Low = i64(int64(rng.Intn(domain)))
				}
				if rng.Intn(4) > 0 {
					q.High = i64(int64(rng.Intn(domain)))
				}
				if rng.Intn(2) == 0 {
					q.IncHigh = b(true)
				}
				for ci := 0; ci < spec.Cols; ci++ {
					if rng.Intn(2) == 0 {
						q.Project = append(q.Project, ColumnName(ci))
					}
				}
				if len(q.Project) > 0 && spec.Cols > 1 && rng.Intn(4) == 0 {
					q.Path = "sideways"
				}
				body, err := json.Marshal(q)
				if err != nil {
					t.Fatal(err)
				}
				resp, raw := postQuery(t, ts.URL, string(body))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("json query %s: status %d: %s", body, resp.StatusCode, raw)
				}
				var jr api.QueryResponse
				if err := json.Unmarshal(raw, &jr); err != nil {
					t.Fatal(err)
				}
				br := postBinaryQuery(t, ts.URL, string(body), rng.Intn(3)*64)
				if br.Count != jr.Count {
					t.Fatalf("query %s: binary count %d, json count %d", body, br.Count, jr.Count)
				}
				requireSameSelection(t, jr.Rows, jr.Columns, br.Rows, br.Columns)
			}
		})
	}
}

// applyRandomWrite posts a random insert or delete against the table.
func applyRandomWrite(t *testing.T, url string, rng *rand.Rand, spec TableSpec, nextRow map[string]int) {
	t.Helper()
	var body string
	if rng.Intn(2) == 0 {
		rows := make([][]column.Value, 1+rng.Intn(3))
		for i := range rows {
			rows[i] = make([]column.Value, spec.Cols)
			for ci := range rows[i] {
				rows[i][ci] = column.Value(rng.Intn(10_000))
			}
		}
		raw, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		body = fmt.Sprintf(`{"op":"insert","table":%q,"rows":%s}`, spec.Name, raw)
		nextRow[spec.Name] += len(rows)
	} else {
		body = fmt.Sprintf(`{"op":"delete","table":%q,"rows":[%d]}`, spec.Name, rng.Intn(nextRow[spec.Name]))
	}
	resp, err := http.Post(url+"/update", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Deleting an already-deleted row is a legitimate 404; anything else
	// must succeed.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("update %s: status %d: %s", body, resp.StatusCode, buf.String())
	}
}

// failingWriter accepts headers but fails every body write, standing
// in for a client that hung up mid-response.
type failingWriter struct{ header http.Header }

func (f *failingWriter) Header() http.Header       { return f.header }
func (f *failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("client went away") }
func (f *failingWriter) WriteHeader(int)           {}

func TestEncodeFailuresAreCounted(t *testing.T) {
	eng, _ := testEngine(t, 1000)
	svc := newTestService(t, eng, 0, "auto")
	for _, accept := range []string{"application/json", wire.ContentType} {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"op":"select","low":1,"high":100}`))
		req.Header.Set("Accept", accept)
		svc.Handler().ServeHTTP(&failingWriter{header: make(http.Header)}, req)
	}
	if got := svc.Stats().EncodeFailures; got != 2 {
		t.Fatalf("encode_failures = %d, want 2", got)
	}
}
