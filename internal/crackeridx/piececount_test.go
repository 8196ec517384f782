package crackeridx

import (
	"fmt"
	"math/rand"
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
// and returns its description. Every op keeps the index valid —
// positions non-decreasing in bound order, within [0, *n] — the way
// the cracking, ripple and hybrid callers do, adjusting *n where the
// op models a row arriving or leaving.
func pieceOp(ix *Index, n *int, src intSource) string {
	b := Bound{Value: column.Value(src.Intn(genValues)), Inclusive: src.Intn(2) == 0}
	switch op := src.Intn(16); {
	case op < 6: // a crack: a new bound, or an existing one overwritten
		lo, hi := window(ix, b, *n, false)
		pos := lo + src.Intn(hi-lo+1)
		ix.Insert(b, pos)
		return fmt.Sprintf("Insert(%s, %d)", b, pos)
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
	}
	return "no-op"
}

// checkPieceCount fails t unless the maintained count equals the
// materialised one and the generator kept the index valid.
func checkPieceCount(t testing.TB, ix *Index, n, step int, op string) {
	t.Helper()
	if got, want := ix.NumPieces(n), len(ix.Pieces(n)); got != want {
		t.Fatalf("step %d %s (n=%d, boundaries %v): NumPieces = %d, len(Pieces) = %d",
			step, op, n, ix.Boundaries(), got, want)
	}
	if err := ix.Validate(n); err != nil {
		t.Fatalf("step %d %s (n=%d): %v", step, op, n, err)
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
		var emptyColumn, zeroLength, multiChunk, emptied int
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ix := &Index{chunkCap: capacity}
			n := rng.Intn(4)
			for step := 0; step < 2000; step++ {
				chunks := len(ix.chunks)
				op := pieceOp(ix, &n, rng)
				checkPieceCount(t, ix, n, step, op)
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
		if emptyColumn == 0 || zeroLength == 0 || (capacity > 0 && (multiChunk == 0 || emptied == 0)) {
			t.Fatalf("capacity %d, generator coverage: %d steps on an empty column with boundaries, %d with zero-length pieces, %d with several chunks, %d emptying a chunk",
				capacity, emptyColumn, zeroLength, multiChunk, emptied)
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
				op := pieceOp(ix, &n, &src)
				checkPieceCount(t, ix, n, step, op)
			}
		}
	})
}
