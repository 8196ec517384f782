package crackeridx

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adaptiveindex/internal/column"
)

func TestBoundCompare(t *testing.T) {
	cases := []struct {
		a, b Bound
		want int
	}{
		{Bound{10, false}, Bound{20, false}, -1},
		{Bound{20, false}, Bound{10, false}, 1},
		{Bound{10, false}, Bound{10, false}, 0},
		{Bound{10, true}, Bound{10, true}, 0},
		{Bound{10, false}, Bound{10, true}, -1},
		{Bound{10, true}, Bound{10, false}, 1},
	}
	for _, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("Compare(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBoundString(t *testing.T) {
	if s := (Bound{5, false}).String(); s != "<5" {
		t.Fatalf("got %q", s)
	}
	if s := (Bound{5, true}).String(); s != "<=5" {
		t.Fatalf("got %q", s)
	}
}

func TestInsertLookup(t *testing.T) {
	ix := New()
	if _, ok := ix.Lookup(Bound{5, false}); ok {
		t.Fatal("lookup on empty index must fail")
	}
	ix.Insert(Bound{5, false}, 100)
	ix.Insert(Bound{10, false}, 200)
	ix.Insert(Bound{10, true}, 250)
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}
	pos, ok := ix.Lookup(Bound{10, false})
	if !ok || pos != 200 {
		t.Fatalf("Lookup = %d,%v", pos, ok)
	}
	// Overwrite.
	ix.Insert(Bound{10, false}, 222)
	pos, _ = ix.Lookup(Bound{10, false})
	if pos != 222 {
		t.Fatalf("overwrite failed, pos = %d", pos)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len after overwrite = %d, want 3", ix.Len())
	}
	if err := ix.Validate(1000); err != nil {
		t.Fatal(err)
	}
}

func TestDelete(t *testing.T) {
	ix := New()
	for i := 0; i < 20; i++ {
		ix.Insert(Bound{Value: column.Value(i)}, i*10)
	}
	if !ix.Delete(Bound{Value: 7}) {
		t.Fatal("Delete of existing bound must return true")
	}
	if ix.Delete(Bound{Value: 7}) {
		t.Fatal("Delete of absent bound must return false")
	}
	if _, ok := ix.Lookup(Bound{Value: 7}); ok {
		t.Fatal("deleted bound still present")
	}
	if ix.Len() != 19 {
		t.Fatalf("Len = %d, want 19", ix.Len())
	}
	if err := ix.Validate(1000); err != nil {
		t.Fatal(err)
	}
	// Delete everything.
	for i := 0; i < 20; i++ {
		ix.Delete(Bound{Value: column.Value(i)})
	}
	if ix.Len() != 0 {
		t.Fatalf("Len after deleting all = %d", ix.Len())
	}
}

func TestPieceForEmptyIndex(t *testing.T) {
	ix := New()
	piece, _, exact := ix.PieceFor(Bound{Value: 50}, 1000)
	if exact {
		t.Fatal("empty index cannot have an exact boundary")
	}
	if piece.Start != 0 || piece.End != 1000 || piece.HasLower || piece.HasUpper {
		t.Fatalf("piece = %+v, want whole column", piece)
	}
}

func TestPieceForNarrowing(t *testing.T) {
	ix := New()
	ix.Insert(Bound{Value: 10}, 100)
	ix.Insert(Bound{Value: 50}, 400)
	ix.Insert(Bound{Value: 90}, 800)

	piece, _, exact := ix.PieceFor(Bound{Value: 30}, 1000)
	if exact {
		t.Fatal("bound 30 should not be exact")
	}
	if piece.Start != 100 || piece.End != 400 {
		t.Fatalf("piece = [%d,%d), want [100,400)", piece.Start, piece.End)
	}
	if !piece.HasLower || piece.Lower.Value != 10 || !piece.HasUpper || piece.Upper.Value != 50 {
		t.Fatalf("piece bounds wrong: %+v", piece)
	}

	// Exact hit: the empty region at the bound's position.
	piece, _, exact = ix.PieceFor(Bound{Value: 50}, 1000)
	if !exact || piece.Start != 400 || piece.End != 400 {
		t.Fatalf("exact lookup failed: %+v %v", piece, exact)
	}

	// Below all boundaries.
	piece, _, _ = ix.PieceFor(Bound{Value: 5}, 1000)
	if piece.Start != 0 || piece.End != 100 {
		t.Fatalf("piece = [%d,%d), want [0,100)", piece.Start, piece.End)
	}
	// Above all boundaries.
	piece, _, _ = ix.PieceFor(Bound{Value: 95}, 1000)
	if piece.Start != 800 || piece.End != 1000 {
		t.Fatalf("piece = [%d,%d), want [800,1000)", piece.Start, piece.End)
	}
}

func TestPieces(t *testing.T) {
	ix := New()
	// Empty index: one piece covering everything.
	ps := ix.Pieces(100)
	if len(ps) != 1 || ps[0].Start != 0 || ps[0].End != 100 {
		t.Fatalf("pieces of empty index = %+v", ps)
	}

	ix.Insert(Bound{Value: 10}, 30)
	ix.Insert(Bound{Value: 20}, 60)
	ps = ix.Pieces(100)
	if len(ps) != 3 {
		t.Fatalf("expected 3 pieces, got %+v", ps)
	}
	wantStarts := []int{0, 30, 60}
	wantEnds := []int{30, 60, 100}
	for i, p := range ps {
		if p.Start != wantStarts[i] || p.End != wantEnds[i] {
			t.Fatalf("piece %d = [%d,%d), want [%d,%d)", i, p.Start, p.End, wantStarts[i], wantEnds[i])
		}
	}
	if ps[0].HasLower || !ps[0].HasUpper {
		t.Fatalf("first piece bounds wrong: %+v", ps[0])
	}
	if !ps[2].HasLower || ps[2].HasUpper {
		t.Fatalf("last piece bounds wrong: %+v", ps[2])
	}

	// A boundary at position 0 and at n must not create empty pieces.
	ix2 := New()
	ix2.Insert(Bound{Value: 1}, 0)
	ix2.Insert(Bound{Value: 99}, 100)
	ps = ix2.Pieces(100)
	if len(ps) != 1 {
		t.Fatalf("expected 1 piece, got %+v", ps)
	}
}

// shiftFromPos shifts every boundary at or after position fromPos by
// delta, the way a row inserted into or removed from the middle of the
// column moves the catalog.
func shiftFromPos(ix *Index, fromPos, delta int) {
	for ci, c := range ix.Chunks() {
		for j := 0; j < c.Len(); j++ {
			if c.Pos(j) >= fromPos {
				ix.ShiftFrom(ci, j, delta)
				return
			}
		}
	}
}

// shiftFromBound shifts every boundary ordering at or after b by delta,
// the way a ripple moves the catalog behind the piece it fills.
func shiftFromBound(ix *Index, b Bound, delta int) {
	ci, j, _ := ix.locate(b)
	ix.ShiftFrom(ci, j, delta)
}

func TestShiftPositions(t *testing.T) {
	ix := New()
	ix.Insert(Bound{Value: 10}, 100)
	ix.Insert(Bound{Value: 20}, 200)
	ix.Insert(Bound{Value: 30}, 300)
	shiftFromPos(ix, 200, 5)
	if pos, _ := ix.Lookup(Bound{Value: 10}); pos != 100 {
		t.Fatalf("boundary below fromPos must not shift, got %d", pos)
	}
	if pos, _ := ix.Lookup(Bound{Value: 20}); pos != 205 {
		t.Fatalf("boundary at fromPos must shift, got %d", pos)
	}
	if pos, _ := ix.Lookup(Bound{Value: 30}); pos != 305 {
		t.Fatalf("boundary above fromPos must shift, got %d", pos)
	}
}

func TestShiftPositionsFromBound(t *testing.T) {
	ix := New()
	// Two boundaries sharing the same position (an empty piece between
	// them) plus one further out.
	ix.Insert(Bound{Value: 10}, 100)
	ix.Insert(Bound{Value: 20}, 100)
	ix.Insert(Bound{Value: 30}, 200)
	// Shifting from bound <20 must leave <10 alone even though it sits
	// at the same position.
	shiftFromBound(ix, Bound{Value: 20}, 1)
	if pos, _ := ix.Lookup(Bound{Value: 10}); pos != 100 {
		t.Fatalf("bound <10 must not move, got %d", pos)
	}
	if pos, _ := ix.Lookup(Bound{Value: 20}); pos != 101 {
		t.Fatalf("bound <20 must move, got %d", pos)
	}
	if pos, _ := ix.Lookup(Bound{Value: 30}); pos != 201 {
		t.Fatalf("bound <30 must move, got %d", pos)
	}
	if err := ix.Validate(1000); err != nil {
		t.Fatal(err)
	}
}

func TestCollapseRange(t *testing.T) {
	ix := New()
	ix.Insert(Bound{Value: 10}, 100)
	ix.Insert(Bound{Value: 20}, 150)
	ix.Insert(Bound{Value: 30}, 200)
	ix.Insert(Bound{Value: 40}, 300)
	// Remove positions [100, 200): the boundary at 150 collapses to
	// 100, the one at 200 stays logically at the cut (shifts to 100),
	// and the one at 300 shifts left by 100.
	ix.CollapseRange(100, 200)
	if pos, _ := ix.Lookup(Bound{Value: 10}); pos != 100 {
		t.Fatalf("boundary at start must not move, got %d", pos)
	}
	if pos, _ := ix.Lookup(Bound{Value: 20}); pos != 100 {
		t.Fatalf("boundary inside removed range must collapse to start, got %d", pos)
	}
	if pos, _ := ix.Lookup(Bound{Value: 30}); pos != 100 {
		t.Fatalf("boundary at end must shift to start, got %d", pos)
	}
	if pos, _ := ix.Lookup(Bound{Value: 40}); pos != 200 {
		t.Fatalf("boundary beyond removed range must shift left, got %d", pos)
	}
	if err := ix.Validate(1000); err != nil {
		t.Fatal(err)
	}
	// Degenerate collapse is a no-op.
	ix.CollapseRange(500, 500)
	if pos, _ := ix.Lookup(Bound{Value: 40}); pos != 200 {
		t.Fatalf("no-op collapse moved a boundary to %d", pos)
	}
}

func TestClear(t *testing.T) {
	ix := New()
	ix.Insert(Bound{Value: 1}, 1)
	ix.Clear()
	if ix.Len() != 0 {
		t.Fatal("Clear must empty the index")
	}
	if _, ok := ix.Lookup(Bound{Value: 1}); ok {
		t.Fatal("Clear must drop boundaries")
	}
}

func TestValidateDetectsBadPositions(t *testing.T) {
	ix := New()
	ix.Insert(Bound{Value: 10}, 500)
	ix.Insert(Bound{Value: 20}, 100) // positions decrease in bound order
	if err := ix.Validate(1000); err == nil {
		t.Fatal("Validate must flag non-monotonic positions")
	}
	ix2 := New()
	ix2.Insert(Bound{Value: 10}, 5000)
	if err := ix2.Validate(1000); err == nil {
		t.Fatal("Validate must flag out-of-range positions")
	}
}

// Random insert/delete/lookup torture test against a sorted-slice
// reference, also checking the chunk structure and the fence directory,
// with default and with tiny chunks (so splits and emptied chunks happen
// throughout). Fresh bounds go in through PieceFor's cursor or through
// Insert; PieceFor, Lookup and FirstLeftOf are compared against the
// reference after every op, Clone and Clear included.
func TestRandomizedAgainstReference(t *testing.T) {
	for _, capacity := range []int{0, 4} {
		randomizedAgainstReference(t, &Index{chunkCap: capacity})
	}
}

func randomizedAgainstReference(t *testing.T, ix *Index) {
	rng := rand.New(rand.NewSource(42))
	const n = 100000
	var ref []Boundary // sorted by bound; positions are arbitrary
	search := func(b Bound) (int, bool) {
		return slices.BinarySearchFunc(ref, b, func(e Boundary, b Bound) int { return e.Bound.Compare(b) })
	}
	for step := 0; step < 5000; step++ {
		v := column.Value(rng.Intn(200))
		b := Bound{Value: v, Inclusive: rng.Intn(2) == 0}
		k, found := search(b)
		switch op := rng.Intn(400); {
		case op < 120:
			pos := rng.Intn(n)
			ix.Insert(b, pos)
			if found {
				ref[k].Pos = pos
			} else {
				ref = slices.Insert(ref, k, Boundary{Bound: b, Pos: pos})
			}
		case op < 200:
			if _, at, exact := ix.PieceFor(b, n); !exact {
				pos := rng.Intn(n)
				ix.InsertAt(at, b, pos)
				ref = slices.Insert(ref, k, Boundary{Bound: b, Pos: pos})
			}
		case op < 320:
			if got := ix.Delete(b); got != found {
				t.Fatalf("step %d: Delete(%s) = %v, want %v", step, b, got, found)
			}
			if found {
				ref = slices.Delete(ref, k, k+1)
			}
		case op < 340:
			ix = ix.Clone()
		case op == 399:
			ix.Clear()
			ref = ref[:0]
		}
		if ix.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, ix.Len(), len(ref))
		}
		if err := ix.checkChunks(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, probe := range []Bound{b, {Value: v + 1}, {Value: column.Value(rng.Intn(202) - 1), Inclusive: true}} {
			if err := checkSearch(ix, ref, n, probe); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if !slices.Equal(ix.Boundaries(), ref) {
		t.Fatalf("Boundaries() = %v, want %v", ix.Boundaries(), ref)
	}
}

func TestSortedPositions(t *testing.T) {
	ix := New()
	ix.Insert(Bound{Value: 10}, 100)
	ix.Insert(Bound{Value: 5}, 50)
	ix.Insert(Bound{Value: 20}, 200)
	bs := ix.Boundaries()
	want := []int{50, 100, 200}
	if len(bs) != len(want) {
		t.Fatalf("got %v", bs)
	}
	for i := range want {
		if bs[i].Pos != want[i] {
			t.Fatalf("got %v want positions %v", bs, want)
		}
	}
}

// changeState renders what a snapshot consumer reads of ix's change
// record: the head mark and every chunk's size, dirty flag and marks.
func changeState(ix *Index) string {
	s := fmt.Sprintf("head %v", ix.HeadMarked())
	for ci, c := range ix.Chunks() {
		s += fmt.Sprintf(" | chunk %d len %d dirty %v marks %b", ci, c.Len(), c.Dirty(), c.marked)
	}
	return s
}

// A crack recorded at PieceFor's cursor — one bound, or the two bounds
// of a crack in three — leaves the same boundaries, piece count, chunk
// layout and change marks as recording it with Insert.
func TestInsertAtMatchesInsert(t *testing.T) {
	for _, capacity := range genCaps {
		for seed := int64(1); seed <= 10; seed++ {
			viaInsert, viaCursor := &Index{chunkCap: capacity}, &Index{chunkCap: capacity}
			genA, genB := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			pick := rand.New(rand.NewSource(-seed))
			nA, nB := 1+genA.Intn(genMaxRows), 1+genB.Intn(genMaxRows)
			for step := 0; step < 1000; step++ {
				pieceOp(viaInsert, &nA, genA)
				pieceOp(viaCursor, &nB, genB)
				if step%7 == 0 {
					viaInsert.ClearChanges()
					viaCursor.ClearChanges()
				}
				low := Bound{Value: column.Value(pick.Intn(genValues)), Inclusive: pick.Intn(2) == 0}
				high := Bound{Value: low.Value + 1, Inclusive: pick.Intn(2) == 0}
				three := pick.Intn(2) == 0
				piece, at, exact := viaCursor.PieceFor(low, nB)
				_, atHigh, exactHigh := viaCursor.PieceFor(high, nB)
				if exact || (three && (exactHigh || at != atHigh)) {
					continue
				}
				p1 := piece.Start + pick.Intn(piece.End-piece.Start+1)
				p2 := p1 + pick.Intn(piece.End-p1+1)
				next := viaCursor.InsertAt(at, low, p1)
				viaInsert.Insert(low, p1)
				if three {
					viaCursor.InsertAt(next, high, p2)
					viaInsert.Insert(high, p2)
				}
				if got, want := viaCursor.Boundaries(), viaInsert.Boundaries(); !slices.Equal(got, want) {
					t.Fatalf("capacity %d seed %d step %d: boundaries %v, want %v", capacity, seed, step, got, want)
				}
				if got, want := viaCursor.NumPieces(nB), viaInsert.NumPieces(nA); got != want {
					t.Fatalf("capacity %d seed %d step %d: NumPieces %d, want %d", capacity, seed, step, got, want)
				}
				if got, want := changeState(viaCursor), changeState(viaInsert); got != want {
					t.Fatalf("capacity %d seed %d step %d: change record\n%s\nwant\n%s", capacity, seed, step, got, want)
				}
				if err := viaCursor.Validate(nB); err != nil {
					t.Fatalf("capacity %d seed %d step %d: %v", capacity, seed, step, err)
				}
			}
		}
	}
}

// A cursor that a mutation has moved off its bound's slot is refused,
// never used to misplace the bound.
func TestInsertAtRefusesStaleCursor(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: InsertAt accepted a stale cursor", name)
			}
		}()
		f()
	}
	ix := &Index{chunkCap: 4}
	for v := 0; v < 20; v += 2 {
		ix.Insert(Bound{Value: column.Value(v)}, v)
	}
	_, at, _ := ix.PieceFor(Bound{Value: 7}, 20)
	ix.Insert(Bound{Value: 5}, 5) // takes the slot 7 was found missing at
	mustPanic("slot taken by a smaller bound", func() { ix.InsertAt(at, Bound{Value: 7}, 7) })

	_, at, _ = ix.PieceFor(Bound{Value: 9}, 20)
	ix.Insert(Bound{Value: 9}, 9)
	mustPanic("bound recorded since", func() { ix.InsertAt(at, Bound{Value: 9}, 9) })

	_, at, _ = ix.PieceFor(Bound{Value: 99}, 20)
	ix.Clear()
	mustPanic("index cleared", func() { ix.InsertAt(at, Bound{Value: 99}, 20) })
	if err := ix.Validate(20); err != nil || ix.Len() != 0 {
		t.Fatalf("refused inserts changed the index: %d boundaries, %v", ix.Len(), err)
	}
}

// BenchmarkPieceForConverged looks up bounds in an index of ~1M
// boundaries inserted in random order — the size a converged column's
// catalog reaches — half of them recorded bounds, half missing ones.
func BenchmarkPieceForConverged(b *testing.B) {
	const boundaries = 1 << 20
	rng := rand.New(rand.NewSource(1))
	ix := New()
	for _, i := range rng.Perm(boundaries) {
		ix.Insert(Bound{Value: column.Value(2 * i)}, 4*i)
	}
	probes := make([]Bound, 1<<16)
	for i := range probes {
		probes[i] = Bound{Value: column.Value(rng.Intn(2 * boundaries))}
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, _, exact := ix.PieceFor(probes[i&(len(probes)-1)], 4*boundaries); exact {
			hits++
		}
	}
	if b.N >= len(probes) && hits == 0 {
		b.Fatal("no probe hit a recorded bound")
	}
}
