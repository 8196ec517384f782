package core

import (
	"math/rand"
	"reflect"
	"testing"

	"adaptiveindex/internal/column"
	"adaptiveindex/internal/cost"
)

// randomPredicate draws any range predicate over about [0, domain):
// unbounded on either side, empty, inverted and point ranges included.
func randomPredicate(rng *rand.Rand, domain int) column.Range {
	r := column.Range{
		Low:     column.Value(rng.Intn(domain+4) - 2),
		HasLow:  rng.Intn(5) > 0,
		HasHigh: rng.Intn(5) > 0,
		IncLow:  rng.Intn(2) == 0,
		IncHigh: rng.Intn(2) == 0,
	}
	r.High = r.Low + column.Value(rng.Intn(domain/2+1)-2)
	return r
}

// refCount and refSelect are the snapshot reads as a classify-every-
// piece loop: the reference the binary-searched reads must reproduce.
func refCount(s *ColSnapshot, r column.Range, c *cost.Counters) (count int, needsReorg bool) {
	if r.Empty() {
		return 0, false
	}
	pieces := s.Pieces()
	for i := range pieces {
		p := &pieces[i]
		switch classifyPiece(p, r) {
		case 1:
			count += len(p.Pairs)
		case 0:
			needsReorg = true
			for _, pr := range p.Pairs {
				c.ValuesTouched++
				c.Comparisons++
				if r.Contains(pr.Val) {
					count++
				}
			}
		}
	}
	return count, needsReorg
}

func refSelect(s *ColSnapshot, r column.Range, c *cost.Counters) (rows column.IDList, needsReorg bool) {
	if r.Empty() {
		return nil, false
	}
	pieces := s.Pieces()
	for i := range pieces {
		p := &pieces[i]
		switch classifyPiece(p, r) {
		case 1:
			for _, pr := range p.Pairs {
				rows = append(rows, pr.Row)
			}
			c.TuplesCopied += uint64(len(p.Pairs))
		case 0:
			needsReorg = true
			for _, pr := range p.Pairs {
				c.ValuesTouched++
				c.Comparisons++
				if r.Contains(pr.Val) {
					rows = append(rows, pr.Row)
					c.TuplesCopied++
				}
			}
		}
	}
	return rows, needsReorg
}

// hasZeroLengthPiece reports whether two boundaries share a position
// strictly inside the column, which Pieces collapses into one gap.
func hasZeroLengthPiece(cc *CrackerColumn) bool {
	bs := cc.Index().Boundaries()
	for i := 1; i < len(bs); i++ {
		if bs[i].Pos == bs[i-1].Pos {
			return true
		}
	}
	return false
}

func TestSnapshotReadsMatchClassifyEveryPiece(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const domain = 60
	var zeroLength, straddled, skipped int
	for trial := 0; trial < 40; trial++ {
		n := []int{0, 1, 7, 300}[trial%4]
		// Only every third value occurs, so bounds that differ only
		// inside a gap land on one position: zero-length pieces.
		vals := make([]column.Value, n)
		for i := range vals {
			vals[i] = column.Value(3 * rng.Intn(domain/3))
		}
		opts := Options{CrackInThree: trial%2 == 0}
		cc := NewCrackerColumn(vals, opts)
		for q, queries := 0, rng.Intn(40); q < queries; q++ {
			cc.Select(randomPredicate(rng, domain))
		}
		if hasZeroLengthPiece(cc) {
			zeroLength++
		}
		snap := cc.Snapshot(nil)
		for q := 0; q < 200; q++ {
			r := randomPredicate(rng, domain)
			var gotC, wantC cost.Counters
			count, reorg := snap.Count(r, &gotC)
			wantCount, wantReorg := refCount(snap, r, &wantC)
			if count != wantCount || reorg != wantReorg || gotC != wantC {
				t.Fatalf("trial %d Count(%s): got %d/%v/%+v, want %d/%v/%+v",
					trial, r, count, reorg, gotC, wantCount, wantReorg, wantC)
			}
			gotC, wantC = cost.Counters{}, cost.Counters{}
			rows, reorg := snap.Select(r, &gotC)
			wantRows, wantReorg := refSelect(snap, r, &wantC)
			if len(rows) != len(wantRows) || (len(rows) > 0 && !reflect.DeepEqual(rows, wantRows)) ||
				reorg != wantReorg || gotC != wantC {
				t.Fatalf("trial %d Select(%s): got %v/%v/%+v, want %v/%v/%+v",
					trial, r, rows, reorg, gotC, wantRows, wantReorg, wantC)
			}
			if reorg {
				straddled++
			}
			// The span must be tight, not just sufficient: exactly the
			// pieces classifyPiece does not reject.
			if r.Empty() {
				continue
			}
			lo, hi := snap.span(r)
			pieces := snap.Pieces()
			for i := range pieces {
				if inSpan, rejected := i >= lo && i < hi, classifyPiece(&pieces[i], r) < 0; inSpan == rejected {
					t.Fatalf("trial %d %s: piece %d of %d, span [%d,%d), rejected=%v", trial, r, i, len(pieces), lo, hi, rejected)
				}
			}
			if hi-lo < len(pieces) {
				skipped++
			}
		}
	}
	if zeroLength == 0 || straddled == 0 || skipped == 0 {
		t.Fatalf("coverage: %d layouts with zero-length pieces, %d straddling reads, %d reads that skipped pieces",
			zeroLength, straddled, skipped)
	}
}

func TestRipplesKeepPieceCount(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const domain = 200
	vals := randomValues(rng, 400, domain)
	cc := NewCrackerColumn(vals, DefaultOptions())
	live := make(column.Pairs, len(vals))
	for i, v := range vals {
		live[i] = column.Pair{Val: v, Row: column.RowID(i)}
	}
	next := column.RowID(len(vals))
	check := func(step int, op string) {
		t.Helper()
		if got, want := cc.NumPieces(), len(cc.Pieces()); got != want {
			t.Fatalf("step %d after %s: NumPieces = %d, len(Pieces) = %d", step, op, got, want)
		}
	}
	for step := 0; step < 3000; step++ {
		switch k := rng.Intn(3); {
		case k == 0 || len(live) == 0:
			p := column.Pair{Val: column.Value(rng.Intn(domain)), Row: next}
			next++
			cc.RippleInsert(p)
			live = append(live, p)
			check(step, "RippleInsert")
		case k == 1:
			i := rng.Intn(len(live))
			if err := cc.RippleDelete(live[i].Row, live[i].Val); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			check(step, "RippleDelete")
		default:
			r := randomPredicate(rng, domain)
			cc.Select(r)
			check(step, "Select "+r.String())
		}
	}
	if err := cc.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNumPiecesDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	cc := NewCrackerColumn(randomValues(rng, 5000, 1000), DefaultOptions())
	for q := 0; q < 200; q++ {
		lo := column.Value(rng.Intn(1000))
		cc.Count(column.NewRange(lo, lo+20))
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = cc.NumPieces() }); allocs != 0 {
		t.Fatalf("NumPieces allocates %.0f times per call", allocs)
	}
}
