package crackeridx

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"adaptiveindex/internal/column"
)

// The piece-count generator keeps columns short and values few, so
// boundaries collide often: zero-length pieces, boundaries at 0 and at
// n, overwrites and empty columns all show up within a few dozen ops.
const (
	genMaxRows = 48
	genValues  = 12
)

// genCaps are the chunk capacities the generator runs under: the
// default, and chunks of four so splits and emptied chunks happen every
// few ops.
var genCaps = []int{0, 4}

// intSource draws bounded integers. *rand.Rand satisfies it, and so
// does byteSource, so one op generator drives both the seeded test and
// the fuzz target.
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

// window returns the position of the last boundary ordering before b
// (0 when none) and of the first ordering after b, or at b when atB is
// set (n when none).
func window(ix *Index, b Bound, n int, atB bool) (lo, hi int) {
	lo = 0
	for _, bd := range ix.Boundaries() {
		switch c := bd.Bound.Compare(b); {
		case c < 0:
			lo = bd.Pos
		case c > 0 || atB:
			return lo, bd.Pos
		}
	}
	return lo, n
}

// pieceOp applies one random mutation to ix over a column of *n rows
// and returns its description and the bound it drew. Every op keeps the
// index valid — positions non-decreasing in bound order, within
// [0, *n] — the way the cracking, ripple and hybrid callers do,
// adjusting *n where the op models a row arriving or leaving.
func pieceOp(ix *Index, n *int, src intSource) (string, Bound) {
	b := Bound{Value: column.Value(src.Intn(genValues)), Inclusive: src.Intn(2) == 0}
	return applyOp(ix, n, src, b), b
}

// applyOp is pieceOp's mutation on the drawn bound b.
func applyOp(ix *Index, n *int, src intSource, b Bound) string {
	switch op := src.Intn(19); {
	case op < 3: // a restore, or an existing bound overwritten
		lo, hi := window(ix, b, *n, false)
		pos := lo + src.Intn(hi-lo+1)
		ix.Insert(b, pos)
		return fmt.Sprintf("Insert(%s, %d)", b, pos)
	case op < 6: // a crack, recorded where PieceFor found it missing
		piece, at, exact := ix.PieceFor(b, *n)
		if exact {
			return "no-op"
		}
		pos := piece.Start + src.Intn(piece.End-piece.Start+1)
		ix.InsertAt(at, b, pos)
		return fmt.Sprintf("InsertAt(%v, %s, %d)", at, b, pos)
	case op < 8:
		ix.Delete(b)
		return fmt.Sprintf("Delete(%s)", b)
	case op == 8: // a row inserted at p
		if *n < genMaxRows {
			p := src.Intn(*n + 1)
			shiftFromPos(ix, p, 1)
			*n++
			return fmt.Sprintf("shiftFromPos(%d, 1)", p)
		}
	case op == 9: // the row at p removed
		if *n > 0 {
			p := src.Intn(*n)
			shiftFromPos(ix, p+1, -1)
			*n--
			return fmt.Sprintf("shiftFromPos(%d, -1)", p+1)
		}
	case op == 10: // a ripple insert ahead of b
		if *n < genMaxRows {
			shiftFromBound(ix, b, 1)
			*n++
			return fmt.Sprintf("shiftFromBound(%s, 1)", b)
		}
	case op == 11: // the row just ahead of b's split removed
		if lo, hi := window(ix, b, *n, true); hi > lo {
			shiftFromBound(ix, b, -1)
			*n--
			return fmt.Sprintf("shiftFromBound(%s, -1)", b)
		}
	case op < 15:
		start := src.Intn(*n + 1)
		end := start + src.Intn(min(4, *n-start)+1)
		ix.CollapseRange(start, end)
		*n -= end - start
		return fmt.Sprintf("CollapseRange(%d, %d)", start, end)
	case op == 15:
		ix.Clear()
		return "Clear()"
	case op == 16:
		*ix = *ix.Clone()
		return "Clone()"
	default: // a crack in three: b and a larger bound missing from one piece
		hi := Bound{Value: b.Value + column.Value(src.Intn(2)), Inclusive: true}
		pieceLow, atLow, exactLow := ix.PieceFor(b, *n)
		_, atHigh, exactHigh := ix.PieceFor(hi, *n)
		if exactLow || exactHigh || atLow != atHigh || b == hi {
			return "no-op"
		}
		p1 := pieceLow.Start + src.Intn(pieceLow.End-pieceLow.Start+1)
		p2 := p1 + src.Intn(pieceLow.End-p1+1)
		ix.InsertAt(ix.InsertAt(atLow, b, p1), hi, p2)
		return fmt.Sprintf("InsertAt(%v, %s, %d) then %s at %d", atLow, b, p1, hi, p2)
	}
	return "no-op"
}

// rankAt returns the rank in bound order of the slot at cursor (ci, j),
// counted over the chunks themselves rather than the directory.
func rankAt(ix *Index, ci, j int) int {
	k := j
	for _, c := range ix.Chunks()[:ci] {
		k += c.Len()
	}
	return k
}

// checkSearch compares PieceFor(b), Lookup(b) and FirstLeftOf(b.Value)
// on a column of n rows against linear scans of ref, the boundaries the
// index should hold in bound order: the piece, the cursor's rank, the
// position and FirstLeftOf's cursor and rank.
func checkSearch(ix *Index, ref []Boundary, n int, b Bound) error {
	k := 0
	for k < len(ref) && ref[k].Bound.Compare(b) < 0 {
		k++
	}
	found := k < len(ref) && ref[k].Bound == b
	want := Piece{Start: 0, End: n}
	switch {
	case found:
		want = Piece{Start: ref[k].Pos, End: ref[k].Pos}
	default:
		if k > 0 {
			want.Start, want.Lower, want.HasLower = ref[k-1].Pos, ref[k-1].Bound, true
		}
		if k < len(ref) {
			want.End, want.Upper, want.HasUpper = ref[k].Pos, ref[k].Bound, true
		}
	}
	piece, at, exact := ix.PieceFor(b, n)
	if exact != found || piece != want || rankAt(ix, at.ci, at.j) != k {
		return fmt.Errorf("PieceFor(%s) = %+v at %v (rank %d), exact %v; want %+v at rank %d, exact %v",
			b, piece, at, rankAt(ix, at.ci, at.j), exact, want, k, found)
	}
	if pos, ok := ix.Lookup(b); ok != found || (found && pos != ref[k].Pos) {
		return fmt.Errorf("Lookup(%s) = %d, %v; want found %v", b, pos, ok, found)
	}
	left := 0
	for left < len(ref) && !ref[left].Bound.IsLeft(b.Value) {
		left++
	}
	if ci, j, rank := ix.FirstLeftOf(b.Value); rank != left || rankAt(ix, ci, j) != left {
		return fmt.Errorf("FirstLeftOf(%d) = cursor (%d, %d) at rank %d, rank %d; want rank %d",
			b.Value, ci, j, rankAt(ix, ci, j), rank, left)
	}
	return nil
}

// allProbes is every bound the generator can draw, and one past each
// end.
var allProbes = func() []Bound {
	var probes []Bound
	for v := column.Value(-1); v <= genValues; v++ {
		probes = append(probes, Bound{Value: v}, Bound{Value: v, Inclusive: true})
	}
	return probes
}()

// nearProbes is b, the bound on b's value of the other kind, and the
// next value's exclusive bound.
func nearProbes(b Bound) []Bound {
	return []Bound{b, {Value: b.Value, Inclusive: !b.Inclusive}, {Value: b.Value + 1}}
}

// checkPieceCount fails t unless the maintained count equals the
// materialised one, the generator kept the index valid, and each probe
// is found where a linear scan of the boundaries finds it.
func checkPieceCount(t testing.TB, ix *Index, n, step int, op string, probes []Bound) {
	t.Helper()
	if got, want := ix.NumPieces(n), len(ix.Pieces(n)); got != want {
		t.Fatalf("step %d %s (n=%d, boundaries %v): NumPieces = %d, len(Pieces) = %d",
			step, op, n, ix.Boundaries(), got, want)
	}
	if err := ix.Validate(n); err != nil {
		t.Fatalf("step %d %s (n=%d): %v", step, op, n, err)
	}
	ref := ix.Boundaries()
	for _, b := range probes {
		if err := checkSearch(ix, ref, n, b); err != nil {
			t.Fatalf("step %d %s (n=%d, boundaries %v): %v", step, op, n, ref, err)
		}
	}
}

func TestNumPiecesEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		pos  []int // positions of bounds <0, <1, ... in order
		n    int
		want int
	}{
		{"empty index, empty column", nil, 0, 1},
		{"empty index", nil, 10, 1},
		{"boundaries on an empty column", []int{0, 0}, 0, 1},
		{"all at 0", []int{0, 0, 0}, 10, 1},
		{"all at n", []int{10, 10}, 10, 1},
		{"at 0 and n", []int{0, 10}, 10, 1},
		{"interior", []int{3, 7}, 10, 3},
		{"zero-length interior", []int{3, 3, 3, 7}, 10, 3},
		{"zero-length at both ends", []int{0, 0, 5, 10, 10}, 10, 2},
	}
	for _, c := range cases {
		ix := New()
		for i, p := range c.pos {
			ix.Insert(Bound{Value: column.Value(i)}, p)
		}
		if got := ix.NumPieces(c.n); got != c.want || got != len(ix.Pieces(c.n)) {
			t.Errorf("%s: NumPieces = %d, want %d (len(Pieces) = %d)", c.name, got, c.want, len(ix.Pieces(c.n)))
		}
	}
}

func TestPieceCountMatchesPiecesUnderRandomOps(t *testing.T) {
	for _, capacity := range genCaps {
		var emptyColumn, zeroLength, multiChunk, emptied, cursorCracks, crackThree int
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ix := &Index{chunkCap: capacity}
			n := rng.Intn(4)
			for step := 0; step < 2000; step++ {
				chunks := len(ix.chunks)
				op, _ := pieceOp(ix, &n, rng)
				checkPieceCount(t, ix, n, step, op, allProbes)
				if strings.HasPrefix(op, "InsertAt") && ix.Len() > 1 {
					cursorCracks++
				}
				if strings.Contains(op, " then ") {
					crackThree++
				}
				if n == 0 && ix.Len() > 0 {
					emptyColumn++
				}
				if ix.samePos > 0 {
					zeroLength++
				}
				if len(ix.chunks) > 1 {
					multiChunk++
				}
				if len(ix.chunks) < chunks && ix.Len() > 0 {
					emptied++
				}
			}
		}
		// The generator must actually reach the edge cases it exists for.
		if emptyColumn == 0 || zeroLength == 0 || cursorCracks == 0 || crackThree == 0 ||
			(capacity > 0 && (multiChunk == 0 || emptied == 0)) {
			t.Fatalf("capacity %d, generator coverage: %d steps on an empty column with boundaries, %d with zero-length pieces, %d with several chunks, %d emptying a chunk, %d cursor cracks, %d cracks in three",
				capacity, emptyColumn, zeroLength, multiChunk, emptied, cursorCracks, crackThree)
		}
	}
}

func FuzzPieceCount(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, capacity := range genCaps {
			src := byteSource(data)
			ix := &Index{chunkCap: capacity}
			n := src.Intn(genMaxRows + 1)
			for step := 0; len(src) > 0; step++ {
				op, b := pieceOp(ix, &n, &src)
				checkPieceCount(t, ix, n, step, op, nearProbes(b))
			}
		}
	})
}
