package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adaptiveindex/internal/column"
)

// intSource draws bounded integers: *rand.Rand for the seeded tests,
// byteSource for the fuzz target, so one op generator drives both.
type intSource interface{ Intn(n int) int }

// byteSource draws integers from fuzzer bytes; once they run out every
// draw is 0.
type byteSource []byte

func (s *byteSource) Intn(n int) int {
	if len(*s) == 0 {
		return 0
	}
	v := int((*s)[0])
	*s = (*s)[1:]
	return v % n
}

// twinColumns applies every operation to two cracker columns built from
// the same values: batch merges with MergeBatch, rippled with the same
// rows one ripple at a time. Cracks run on both. Because every row lands
// in the same piece either way, the two must always agree piece by
// piece. Snapshots of batch chain through prev and are compared with a
// fresh Snapshot(nil).
type twinColumns struct {
	batch, rippled *CrackerColumn
	live           map[column.RowID]column.Value
	next           column.RowID
	domain         int
	prev           *ColSnapshot

	// coverage tallies
	batches, zeroLength, sharedChunks, sharedPieces, copiedPieces int
}

func newTwin(src intSource, n, domain, cracks int) *twinColumns {
	vals := make([]column.Value, n)
	for i := range vals {
		// Only every third value occurs, so bounds that differ only
		// inside a gap land on one position: zero-length pieces.
		vals[i] = column.Value(3 * src.Intn(domain/3))
	}
	tw := &twinColumns{
		batch:   NewCrackerColumn(vals, DefaultOptions()),
		rippled: NewCrackerColumn(vals, DefaultOptions()),
		live:    make(map[column.RowID]column.Value, n),
		next:    column.RowID(n),
		domain:  domain,
	}
	for i, v := range vals {
		tw.live[column.RowID(i)] = v
	}
	for ; cracks > 0; cracks-- {
		r := column.NewRange(column.Value(src.Intn(domain)), column.Value(src.Intn(domain)))
		tw.batch.Select(r)
		tw.rippled.Select(r)
	}
	tw.prev = tw.batch.Snapshot(nil)
	return tw
}

// liveRows returns the live rows in ascending order, so draws from them
// are deterministic.
func (tw *twinColumns) liveRows() []column.RowID {
	rows := make([]column.RowID, 0, len(tw.live))
	for row := range tw.live {
		rows = append(rows, row)
	}
	slices.Sort(rows)
	return rows
}

func (tw *twinColumns) newPair(src intSource) column.Pair {
	p := column.Pair{Val: column.Value(src.Intn(tw.domain+2) - 1), Row: tw.next}
	tw.next++
	tw.live[p.Row] = p.Val
	return p
}

// step applies one random operation to both columns and describes it.
func (tw *twinColumns) step(src intSource) (string, error) {
	switch op := src.Intn(12); {
	case op < 4:
		r := column.NewRange(column.Value(src.Intn(tw.domain)), column.Value(src.Intn(tw.domain)))
		r.IncLow, r.IncHigh = src.Intn(2) == 0, src.Intn(2) == 0
		tw.batch.Select(r)
		tw.rippled.Select(r)
		return "Select " + r.String(), nil
	case op < 6:
		p := tw.newPair(src)
		tw.batch.RippleInsert(p)
		tw.rippled.RippleInsert(p)
		return fmt.Sprintf("RippleInsert(%v)", p), nil
	case op == 6:
		rows := tw.liveRows()
		if len(rows) == 0 {
			return "no-op", nil
		}
		row := rows[src.Intn(len(rows))]
		val := tw.live[row]
		delete(tw.live, row)
		if err := tw.batch.RippleDelete(row, val); err != nil {
			return "", err
		}
		return fmt.Sprintf("RippleDelete(%d, %d)", row, val), tw.rippled.RippleDelete(row, val)
	case op < 10:
		var ins, del column.Pairs
		rows := tw.liveRows()
		for k := src.Intn(16); k > 0 && len(rows) > 0; k-- {
			i := src.Intn(len(rows))
			del = append(del, column.Pair{Val: tw.live[rows[i]], Row: rows[i]})
			delete(tw.live, rows[i])
			rows = slices.Delete(rows, i, i+1)
		}
		for k := src.Intn(12); k > 0; k-- {
			ins = append(ins, tw.newPair(src))
		}
		desc := fmt.Sprintf("MergeBatch(%d ins, %d del)", len(ins), len(del))
		for _, p := range ins {
			tw.rippled.RippleInsert(p)
		}
		for _, p := range del {
			if err := tw.rippled.RippleDelete(p.Row, p.Val); err != nil {
				return desc, err
			}
		}
		if len(ins) > 0 && len(del) > 0 {
			tw.batches++
		}
		return desc, tw.batch.MergeBatch(ins, del)
	default:
		got := tw.batch.Snapshot(tw.prev)
		want := tw.batch.Snapshot(nil)
		if err := sameSnapshot(got, want); err != nil {
			return "Snapshot", err
		}
		tw.tallyReuse(got)
		tw.prev = got
		return "Snapshot", nil
	}
}

// tallyReuse counts what got shares with the previous snapshot.
func (tw *twinColumns) tallyReuse(got *ColSnapshot) {
	shared := map[*snapChunk]bool{}
	for _, sc := range tw.prev.chunks {
		shared[sc] = true
	}
	copies := map[*column.Pair]bool{}
	for _, p := range tw.prev.Pieces() {
		copies[&p.Pairs[0]] = true
	}
	for _, sc := range got.chunks {
		if shared[sc] {
			tw.sharedChunks++
			continue
		}
		for _, p := range sc.pieces {
			if copies[&p.Pairs[0]] {
				tw.sharedPieces++
			} else {
				tw.copiedPieces++
			}
		}
	}
}

// check validates both columns and their agreement with each other and
// with the live rows.
func (tw *twinColumns) check() error {
	for _, cc := range []*CrackerColumn{tw.batch, tw.rippled} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	a, b := tw.batch.Index().Boundaries(), tw.rippled.Index().Boundaries()
	if !slices.Equal(a, b) {
		return fmt.Errorf("boundaries differ:\n batch   %v\n rippled %v", a, b)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Pos == a[i-1].Pos {
			tw.zeroLength++
			break
		}
	}
	pa, pb := tw.batch.Pieces(), tw.rippled.Pieces()
	for i := range pa {
		x := sortedByRow(tw.batch.Pairs()[pa[i].Start:pa[i].End])
		y := sortedByRow(tw.rippled.Pairs()[pb[i].Start:pb[i].End])
		if !slices.Equal(x, y) {
			return fmt.Errorf("piece %d [%d,%d) differs:\n batch   %v\n rippled %v", i, pa[i].Start, pa[i].End, x, y)
		}
	}
	if tw.batch.Len() != len(tw.live) {
		return fmt.Errorf("column holds %d rows, %d are live", tw.batch.Len(), len(tw.live))
	}
	for _, p := range tw.batch.Pairs() {
		if v, ok := tw.live[p.Row]; !ok || v != p.Val {
			return fmt.Errorf("column holds %v, live value %d (%v)", p, v, ok)
		}
	}
	return nil
}

func sortedByRow(ps column.Pairs) column.Pairs {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b column.Pair) int { return int(a.Row) - int(b.Row) })
	return out
}

// sameSnapshot compares two snapshots piece by piece: bounds and tuple
// multiset.
func sameSnapshot(got, want *ColSnapshot) error {
	if got.Len != want.Len || got.Version != want.Version {
		return fmt.Errorf("len/version %d/%d, want %d/%d", got.Len, got.Version, want.Len, want.Version)
	}
	gp, wp := got.Pieces(), want.Pieces()
	if len(gp) != len(wp) {
		return fmt.Errorf("%d pieces, want %d", len(gp), len(wp))
	}
	for i := range gp {
		g, w := gp[i], wp[i]
		if g.Lower != w.Lower || g.Upper != w.Upper || g.HasLower != w.HasLower || g.HasUpper != w.HasUpper {
			return fmt.Errorf("piece %d bounds %+v, want %+v", i, g, w)
		}
		if !slices.Equal(sortedByRow(g.Pairs), sortedByRow(w.Pairs)) {
			return fmt.Errorf("piece %d (%s, %s] holds %v, want %v", i, g.Lower, g.Upper, g.Pairs, w.Pairs)
		}
	}
	return nil
}

func TestMergeBatchAndSnapshotsMatchRipplesAndFreshCopies(t *testing.T) {
	var total twinColumns
	for trial := 0; trial < 24; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		n := []int{0, 1, 40, 3000}[trial%4]
		steps, cracks := 400, 0
		if n == 3000 {
			// Start from hundreds of pieces, so the index has many chunks
			// and a split leaves most of them unchanged.
			steps, cracks = 150, 400
		}
		tw := newTwin(rng, n, 90+n/3, cracks)
		for step := 0; step < steps; step++ {
			op, err := tw.step(rng)
			if err == nil {
				err = tw.check()
			}
			if err != nil {
				t.Fatalf("trial %d (n=%d) step %d %s: %v", trial, n, step, op, err)
			}
		}
		total.batches += tw.batches
		total.zeroLength += tw.zeroLength
		total.sharedChunks += tw.sharedChunks
		total.sharedPieces += tw.sharedPieces
		total.copiedPieces += tw.copiedPieces
	}
	if total.batches == 0 || total.zeroLength == 0 || total.sharedChunks == 0 || total.sharedPieces == 0 || total.copiedPieces == 0 {
		t.Fatalf("coverage: %d mixed batches, %d layouts with zero-length pieces, %d shared chunks, %d reused and %d copied pieces",
			total.batches, total.zeroLength, total.sharedChunks, total.sharedPieces, total.copiedPieces)
	}
}

func FuzzMergeBatch(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		tw := newTwin(&src, src.Intn(49), 30, 0)
		for step := 0; len(src) > 0; step++ {
			op, err := tw.step(&src)
			if err == nil {
				err = tw.check()
			}
			if err != nil {
				t.Fatalf("step %d %s: %v", step, op, err)
			}
		}
	})
}

func TestMergeBatchRejectsUnknownDeletionUnchanged(t *testing.T) {
	cc := NewCrackerColumn([]column.Value{5, 1, 9, 4}, DefaultOptions())
	cc.Count(column.NewRange(3, 6))
	before := slices.Clone(cc.Pairs())
	bounds := cc.Index().Boundaries()
	err := cc.MergeBatch(column.Pairs{{Val: 2, Row: 10}}, column.Pairs{{Val: 5, Row: 3}})
	if err == nil {
		t.Fatal("deleting a tuple the column does not hold must fail")
	}
	if !slices.Equal(cc.Pairs(), before) || !slices.Equal(cc.Index().Boundaries(), bounds) {
		t.Fatalf("a failed MergeBatch changed the column: %v %v", cc.Pairs(), cc.Index().Boundaries())
	}
}

// crackedColumn returns a column of n rows cracked by q random ranges.
func crackedColumn(seed int64, n, q int) *CrackerColumn {
	rng := rand.New(rand.NewSource(seed))
	cc := NewCrackerColumn(randomValues(rng, n, n), DefaultOptions())
	for i := 0; i < q; i++ {
		lo := column.Value(rng.Intn(n))
		cc.Count(column.NewRange(lo, lo+column.Value(1+rng.Intn(n/100))))
	}
	return cc
}

func TestRipplesDoNotAllocate(t *testing.T) {
	cc := crackedColumn(34, 20000, 2000)
	p := column.Pair{Val: 777, Row: 1 << 30}
	allocs := testing.AllocsPerRun(200, func() {
		cc.RippleInsert(p)
		if err := cc.RippleDelete(p.Row, p.Val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a ripple insert and delete allocate %.0f times", allocs)
	}
}

// TestSnapshotAfterRippleCopiesOnePiece pins publication cost: after
// one ripple, the next snapshot shares every chunk but the receiving
// piece's and copies only that piece.
func TestSnapshotAfterRippleCopiesOnePiece(t *testing.T) {
	cc := crackedColumn(35, 20000, 2000)
	prev := cc.Snapshot(nil)
	cc.RippleInsert(column.Pair{Val: 5000, Row: 1 << 30})
	next := cc.Snapshot(prev)
	tw := &twinColumns{prev: prev}
	tw.tallyReuse(next)
	if tw.copiedPieces != 1 || tw.sharedChunks != len(next.chunks)-1 {
		t.Fatalf("after one ripple: %d pieces copied, %d of %d chunks shared", tw.copiedPieces, tw.sharedChunks, len(next.chunks))
	}
	if err := sameSnapshot(next, cc.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotAfterChunkSplitSharesOtherChunks covers republication
// after the cracker index split a chunk: chunk indices moved, so the
// unchanged chunks are matched to the previous snapshot's by identity,
// and all of them are still shared.
func TestSnapshotAfterChunkSplitSharesOtherChunks(t *testing.T) {
	cc := crackedColumn(36, 20000, 2000)
	prev := cc.Snapshot(nil)
	chunks := len(cc.Index().Chunks())
	for lo := column.Value(10000); len(cc.Index().Chunks()) == chunks; lo++ {
		cc.Count(column.NewRange(lo, lo+1))
	}
	next := cc.Snapshot(prev)
	if err := sameSnapshot(next, cc.Snapshot(nil)); err != nil {
		t.Fatal(err)
	}
	tw := &twinColumns{prev: prev}
	tw.tallyReuse(next)
	// The split chunk's two halves and its left neighbour (whose last
	// piece the first new bound may have cut) are rebuilt.
	if tw.sharedChunks < len(next.chunks)-3 {
		t.Fatalf("after a split: %d of %d chunks shared", tw.sharedChunks, len(next.chunks))
	}
}
