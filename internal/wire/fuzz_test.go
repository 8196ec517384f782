package wire

import (
	"bytes"
	"math"
	"testing"

	"adaptiveindex/internal/column"
)

// FuzzDecode feeds arbitrary bytes to the decoder: whatever the input,
// it must return a result or an error — never panic, never allocate
// unboundedly (the frame-size bound caps every allocation).
func FuzzDecode(f *testing.F) {
	// Seed with a few valid streams so the fuzzer starts near the
	// interesting surface.
	seed := func(h Header, rows column.IDList, cols [][]column.Value, blockRows int) {
		var buf bytes.Buffer
		if err := Encode(&buf, h, rows, cols, blockRows, 42); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(Header{Count: 0, Path: "scan"}, nil, nil, 0)
	seed(Header{Count: 3, Path: "cracking"}, column.IDList{7, 1, 9}, nil, 0)
	seed(Header{Count: 4, Path: "sideways", Columns: []string{"a", "b"}},
		column.IDList{0, 1, 2, 3},
		[][]column.Value{{1, 2, 3, 4}, {-1, -2, -3, -4}}, 2)
	dense := make(column.IDList, 512)
	for i := range dense {
		dense[i] = column.RowID(i)
	}
	seed(Header{Count: len(dense), Path: "parallel"}, dense, nil, 0)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A stream that decodes cleanly must be internally consistent.
		for name, vec := range res.Columns {
			if len(vec) != len(res.Rows) {
				t.Fatalf("column %s has %d values for %d rows", name, len(vec), len(res.Rows))
			}
		}
	})
}

// FuzzRoundTrip builds a result from fuzzer-chosen parameters, encodes
// it, and requires the bytes to equal the reference encoder's and the
// decode to reproduce the result exactly. Values step by a
// fuzzer-chosen stride with wrapping arithmetic, so a vector can span
// anything up to the full int64 range and every packing width is
// reachable; rowStride does the same for the row-id widths.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint16(5), uint8(1), uint16(64), true, int64(17), int64(1), uint32(2654435761))
	f.Add(uint16(0), uint8(0), uint16(0), false, int64(0), int64(0), uint32(0))
	f.Add(uint16(300), uint8(3), uint16(1), false, int64(-9), int64(-70001), uint32(977))
	f.Add(uint16(40), uint8(2), uint16(7), false, int64(math.MinInt64), int64(math.MaxInt64/3), uint32(1))
	f.Add(uint16(200), uint8(0), uint16(0), false, int64(3), int64(1), uint32(0))
	f.Add(uint16(300), uint8(0), uint16(100), false, int64(0), int64(1), uint32(1<<31))
	f.Fuzz(func(t *testing.T, nrows uint16, ncols uint8, blockRows uint16, dense bool, valSeed, stride int64, rowStride uint32) {
		if ncols > 8 {
			ncols = ncols % 8
		}
		rows := make(column.IDList, nrows)
		for i := range rows {
			if dense {
				rows[i] = column.RowID(i)
			} else {
				// An even stride can repeat ids (stride 0 repeats one);
				// the encoder must then keep packed rows, since a bitset
				// cannot carry a repeated id.
				rows[i] = column.RowID(uint32(valSeed)*31 + uint32(i)*rowStride)
			}
		}
		h := Header{Count: int(nrows), Path: "auto"}
		cols := make([][]column.Value, ncols)
		for ci := range cols {
			cols[ci] = make([]column.Value, nrows)
			for i := range cols[ci] {
				cols[ci][i] = valSeed + column.Value(ci)*1_000_003 + column.Value(i)*stride
			}
			h.Columns = append(h.Columns, string(rune('a'+ci)))
		}
		var buf bytes.Buffer
		if err := Encode(&buf, h, rows, cols, int(blockRows), uint64(valSeed)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), refEncode(t, h, rows, cols, int(blockRows), uint64(valSeed))) {
			t.Fatal("encoding differs from the reference encoder")
		}
		res, err := Decode(&buf)
		if err != nil {
			t.Fatalf("round trip failed to decode: %v", err)
		}
		if res.Count != int(nrows) || len(res.Rows) != int(nrows) {
			t.Fatalf("count %d rows %d, want %d", res.Count, len(res.Rows), nrows)
		}
		if ncols == 0 {
			// Row-only results may bitset-encode: compare as sets.
			if !res.Rows.Equal(rows) {
				t.Fatal("rows differ after round trip")
			}
			return
		}
		for i := range rows {
			if res.Rows[i] != rows[i] {
				t.Fatalf("rows[%d] = %d, want %d", i, res.Rows[i], rows[i])
			}
		}
		for ci, name := range h.Columns {
			vec := res.Columns[name]
			for i := range cols[ci] {
				if vec[i] != cols[ci][i] {
					t.Fatalf("%s[%d] = %d, want %d", name, i, vec[i], cols[ci][i])
				}
			}
		}
	})
}
