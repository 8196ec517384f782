package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"adaptiveindex/internal/column"
)

func TestRoundTripWithProjections(t *testing.T) {
	rows := column.IDList{5, 2, 9, 100000, 7}
	cols := [][]column.Value{
		{10, 20, 30, 40, 50},
		{-1, -2, -3, -4, -5},
	}
	h := Header{Count: len(rows), Path: "sideways", Columns: []string{"c1", "c2"}}
	for _, blockRows := range []int{0, 1, 2, 100} {
		var buf bytes.Buffer
		if err := Encode(&buf, h, rows, cols, blockRows, 123); err != nil {
			t.Fatalf("block=%d: encode: %v", blockRows, err)
		}
		res, err := Decode(&buf)
		if err != nil {
			t.Fatalf("block=%d: decode: %v", blockRows, err)
		}
		if res.Count != len(rows) || res.Path != "sideways" || res.LatencyUs != 123 {
			t.Fatalf("block=%d: header mismatch: %+v", blockRows, res.Header)
		}
		for i := range rows {
			if res.Rows[i] != rows[i] {
				t.Fatalf("block=%d: rows[%d] = %d, want %d", blockRows, i, res.Rows[i], rows[i])
			}
		}
		for ci, name := range h.Columns {
			got := res.Columns[name]
			for i := range cols[ci] {
				if got[i] != cols[ci][i] {
					t.Fatalf("block=%d: %s[%d] = %d, want %d", blockRows, name, i, got[i], cols[ci][i])
				}
			}
		}
	}
}

func TestRoundTripRowsOnlyUsesBitsetWhenDense(t *testing.T) {
	// Dense rows over a small id space: bitset must win and round-trip
	// as a set (order is not preserved by the bitset encoding).
	rows := make(column.IDList, 0, 4096)
	for i := 4095; i >= 0; i-- {
		rows = append(rows, column.RowID(i))
	}
	var buf bytes.Buffer
	h := Header{Count: len(rows), Path: "cracking"}
	if err := Encode(&buf, h, rows, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= 4*len(rows) {
		t.Fatalf("dense row-only result took %d bytes, raw would be %d — bitset not chosen", buf.Len(), 4*len(rows))
	}
	res, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rows.Equal(rows) {
		t.Fatalf("bitset round trip lost rows: got %d, want %d", len(res.Rows), len(rows))
	}
}

func TestRoundTripSparseRowsStayRaw(t *testing.T) {
	rows := column.IDList{1, 1_000_000, 500}
	var buf bytes.Buffer
	if err := Encode(&buf, Header{Count: 3, Path: "scan"}, rows, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	res, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse results keep the raw encoding, which preserves order.
	for i := range rows {
		if res.Rows[i] != rows[i] {
			t.Fatalf("rows[%d] = %d, want %d", i, res.Rows[i], rows[i])
		}
	}
}

func TestRoundTripEmptyResult(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Header{Count: 0, Path: "auto", Columns: []string{"c1"}}, nil, [][]column.Value{nil}, 0, 7); err != nil {
		t.Fatal(err)
	}
	res, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || res.Count != 0 || res.LatencyUs != 7 {
		t.Fatalf("empty result decoded as %+v", res)
	}
}

func TestTruncationAlwaysErrors(t *testing.T) {
	rows := column.IDList{1, 2, 3, 4, 5}
	cols := [][]column.Value{{9, 8, 7, 6, 5}}
	var buf bytes.Buffer
	if err := Encode(&buf, Header{Count: 5, Path: "cracking", Columns: []string{"x"}}, rows, cols, 2, 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded without error", cut, len(full))
		}
	}
}

func TestCorruptionNeverPanics(t *testing.T) {
	rows := column.IDList{10, 20, 30}
	var buf bytes.Buffer
	if err := Encode(&buf, Header{Count: 3, Path: "scan"}, rows, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		corrupt := append([]byte(nil), full...)
		for flips := 0; flips <= rng.Intn(4); flips++ {
			corrupt[rng.Intn(len(corrupt))] ^= byte(1 << rng.Intn(8))
		}
		res, err := Decode(bytes.NewReader(corrupt)) // must not panic
		if err == nil && res.Count != 3 && len(res.Rows) != 3 {
			t.Fatalf("corrupt stream decoded to inconsistent result %+v", res)
		}
	}
}

func TestFooterRowMismatchErrors(t *testing.T) {
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.WriteHeader(Header{Count: 2, Path: "scan"}); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBlock(column.IDList{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteFooter(Footer{TotalRows: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf); !errors.Is(err, ErrMalformed) {
		t.Fatalf("footer mismatch error = %v, want ErrMalformed", err)
	}
}

func TestUnsupportedVersionErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, Header{Count: 0, Path: "scan"}, nil, nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// The version byte sits after the 4-byte length, 1-byte kind and
	// 4-byte magic.
	raw[9] = Version + 1
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("future version decoded without error")
	}
}

func TestNegotiate(t *testing.T) {
	cases := []struct {
		accept string
		binary bool
		block  int
	}{
		{"", false, 0},
		{"application/json", false, 0},
		{ContentType, true, 0},
		{"application/json, " + ContentType, true, 0},
		{ContentType + ";block=4096", true, 4096},
		{ContentType + "; block=512", true, 512},
		{ContentType + ";block=-5", true, 0},
		{ContentType + ";block=junk", true, 0},
		{"text/html", false, 0},
	}
	for _, tc := range cases {
		gotBinary, gotBlock := Negotiate(tc.accept)
		if gotBinary != tc.binary || gotBlock != tc.block {
			t.Errorf("Negotiate(%q) = (%v, %d), want (%v, %d)", tc.accept, gotBinary, gotBlock, tc.binary, tc.block)
		}
	}
	if got, _ := Negotiate(AcceptValue(0)); !got {
		t.Error("AcceptValue(0) not accepted")
	}
	if got, block := Negotiate(AcceptValue(4096)); !got || block != 4096 {
		t.Errorf("AcceptValue(4096) negotiated (%v, %d)", got, block)
	}
}

// appendPacked appends v as w little-endian bytes, one byte at a time:
// the reference the word-at-a-time encoder is held to.
func appendPacked(b []byte, v uint64, w int) []byte {
	for i := 0; i < w; i++ {
		b = append(b, byte(v>>(8*i)))
	}
	return b
}

// unpack reads a w-byte little-endian unsigned value one byte at a
// time: the reference the word-at-a-time decoder is held to.
func unpack(b []byte, w int) uint64 {
	var v uint64
	for i := 0; i < w; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

// refBlockFrame is the reference encoding of one block frame, length
// prefix included, built byte by byte straight from the format
// description in the package comment.
func refBlockFrame(rows column.IDList, cols [][]column.Value) []byte {
	b := []byte{kindBlock}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rows)))
	var rowBase, rowMax column.RowID
	if len(rows) > 0 {
		rowBase, rowMax = slices.Min(rows), slices.Max(rows)
	}
	rowWidth := widthFor(uint64(rowMax-rowBase), 1, 2, 4)
	var words []uint64
	if nwords := int(rowMax)/64 + 1; len(cols) == 0 && len(rows) > 0 && 4+8*nwords < 5+rowWidth*len(rows) {
		// A bitset holds each id once: repeated ids keep packed rows.
		if bs := column.BitsetFromIDs(rows); bs.Count() == len(rows) {
			words = bs.Words()
		}
	}
	if words != nil {
		b = append(b, rowsBitset)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(words)))
		for _, w := range words {
			b = appendPacked(b, w, 8)
		}
	} else {
		b = append(b, rowsRaw, byte(rowWidth))
		b = binary.LittleEndian.AppendUint32(b, uint32(rowBase))
		for _, r := range rows {
			b = appendPacked(b, uint64(r-rowBase), rowWidth)
		}
	}
	for _, vec := range cols {
		var base, maxV column.Value
		if len(vec) > 0 {
			base, maxV = slices.Min(vec), slices.Max(vec)
		}
		w := widthFor(uint64(maxV)-uint64(base), 1, 2, 4, 8)
		b = append(b, byte(w))
		b = binary.LittleEndian.AppendUint64(b, uint64(base))
		for _, v := range vec {
			b = appendPacked(b, uint64(v)-uint64(base), w)
		}
	}
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(b))), b...)
}

// refEncode is Encode with every block frame taken from refBlockFrame;
// header and footer frames come from the real encoder.
func refEncode(t testing.TB, h Header, rows column.IDList, cols [][]column.Value, blockRows int, latencyUs uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	e := NewEncoder(&buf)
	if err := e.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	if blockRows <= 0 {
		blockRows = len(rows)
	}
	for start := 0; start < len(rows); start += blockRows {
		end := min(start+blockRows, len(rows))
		sub := make([][]column.Value, len(cols))
		for i, vec := range cols {
			sub[i] = vec[start:end]
		}
		buf.Write(refBlockFrame(rows[start:end], sub))
	}
	if err := e.WriteFooter(Footer{TotalRows: uint64(len(rows)), LatencyUs: latencyUs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refDecodeBlock is the reference decoding of a raw-row block frame
// body (kind byte onwards) for ncols projected columns.
func refDecodeBlock(body []byte, ncols int) (column.IDList, [][]column.Value) {
	n := int(binary.LittleEndian.Uint32(body[1:]))
	rw := int(body[6])
	rowBase := binary.LittleEndian.Uint32(body[7:])
	off := 11
	rows := make(column.IDList, n)
	for i := range rows {
		rows[i] = column.RowID(uint32(uint64(rowBase) + unpack(body[off:], rw)))
		off += rw
	}
	cols := make([][]column.Value, ncols)
	for ci := range cols {
		w := int(body[off])
		base := binary.LittleEndian.Uint64(body[off+1:])
		off += 9
		cols[ci] = make([]column.Value, n)
		for i := range cols[ci] {
			cols[ci][i] = column.Value(base + unpack(body[off:], w))
			off += w
		}
	}
	return rows, cols
}

// goldenReply is one canned reply of TestGoldenBytes.
type goldenReply struct {
	name      string
	h         Header
	rows      column.IDList
	cols      [][]column.Value
	blockRows int
}

// goldenReplies are canned replies whose exact encoding is pinned by
// TestGoldenBytes: every row width (1, 2, 4), every value width (1, 2,
// 4, 8), a negative base, the full int64 span in one block, a
// multi-block reply and a dense row-only bitset reply.
func goldenReplies() []goldenReply {
	dense := make(column.IDList, 200)
	for i := range dense {
		dense[i] = column.RowID(199 - i)
	}
	return []goldenReply{
		{"row1_val1", Header{Count: 3, Path: "cracking", Columns: []string{"c1"}},
			column.IDList{12, 10, 11}, [][]column.Value{{7, 5, 6}}, 0},
		{"row2_val2_negative_base", Header{Count: 3, Path: "scan", Columns: []string{"v"}},
			column.IDList{300, 0, 65535}, [][]column.Value{{-1000, 0, 1000}}, 0},
		{"row4_val4", Header{Count: 3, Path: "sideways", Columns: []string{"c1"}},
			column.IDList{4_000_000, 1, 1 << 20}, [][]column.Value{{3 << 30, 0, 1 << 24}}, 0},
		{"val8_full_int64_span", Header{Count: 3, Path: "auto", Columns: []string{"x"}},
			column.IDList{1, 2, 3}, [][]column.Value{{math.MinInt64, 0, math.MaxInt64}}, 0},
		{"multi_block", Header{Count: 5, Path: "cracking", Columns: []string{"a", "b"}},
			column.IDList{5, 2, 9, 100000, 7},
			[][]column.Value{{10, 20, 30, 40, 50}, {-1, -2, -3, -4, -70000}}, 2},
		{"dense_rows_bitset", Header{Count: len(dense), Path: "cracking"}, dense, nil, 0},
	}
}

// goldenHex is the exact stream of each golden reply, as the
// byte-at-a-time encoder wrote it before the word-at-a-time rewrite.
var goldenHex = map[string]string{
	"row1_val1":               "1d0000000143524b3101030000000000000008637261636b696e670100020063311a000000020300000000010a000000020001010500000000000000020001110000000303000000000000006300000000000000",
	"row2_val2_negative_base": "180000000143524b31010300000000000000047363616e01000100762000000002030000000002000000002c010000ffff0218fcffffffffffff0000e803d007110000000303000000000000006300000000000000",
	"row4_val4":               "1d0000000143524b310103000000000000000873696465776179730100020063312c0000000203000000000401000000ff083d0000000000ffff0f00040000000000000000000000c00000000000000001110000000303000000000000006300000000000000",
	"val8_full_int64_span":    "180000000143524b31010300000000000000046175746f01000100782f000000020300000000010100000000010208000000000000008000000000000000000000000000000080ffffffffffffffff110000000303000000000000006300000000000000",
	"multi_block":             "1f0000000143524b3101050000000000000008637261636b696e6702000100610100622300000002020000000001020000000300010a00000000000000000a01feffffffffffffff01002900000002020000000004090000000000000097860100011e00000000000000000a01fcffffffffffffff010020000000020100000000010700000000013200000000000000000190eefeffffffffff00110000000305000000000000006300000000000000",
	"dense_rows_bitset":       "190000000143524b3101c80000000000000008637261636b696e6700002a00000002c80000000104000000ffffffffffffffffffffffffffffffffffffffffffffffffff000000000000001100000003c8000000000000006300000000000000",
}

func TestGoldenBytes(t *testing.T) {
	for _, g := range goldenReplies() {
		var buf bytes.Buffer
		if err := Encode(&buf, g.h, g.rows, g.cols, g.blockRows, 99); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		got := hex.EncodeToString(buf.Bytes())
		if ref := hex.EncodeToString(refEncode(t, g.h, g.rows, g.cols, g.blockRows, 99)); ref != got {
			t.Errorf("%s: encoder differs from the reference\n got %s\n ref %s", g.name, got, ref)
		}
		if want := goldenHex[g.name]; got != want {
			t.Errorf("%s: encoding changed\n got %s\nwant %s", g.name, got, want)
		}
	}
}

// randomReply draws a reply whose row and value vectors land on every
// packing width, with negative bases and the int64 extremes mixed in.
func randomReply(rng *rand.Rand) (Header, column.IDList, [][]column.Value, int) {
	rowSpan := []uint32{1 << 8, 1 << 16, 1 << 31}[rng.Intn(3)]
	n := min(rng.Intn(600), int(rowSpan))
	// A zero base lets dense row-only replies take the bitset.
	rowBase := []uint32{0, rng.Uint32()}[rng.Intn(2)]
	// Row ids are distinct, as a result's are.
	rows := make(column.IDList, 0, n)
	seen := make(map[column.RowID]bool, n)
	for len(rows) < n {
		if r := rowBase + rng.Uint32()%rowSpan; !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	h := Header{Count: n, Path: "auto"}
	cols := make([][]column.Value, rng.Intn(4))
	for ci := range cols {
		span := []uint64{1 << 8, 1 << 16, 1 << 32, math.MaxUint64}[rng.Intn(4)]
		base := rng.Int63() - rng.Int63()
		cols[ci] = make([]column.Value, n)
		for i := range cols[ci] {
			switch rng.Intn(50) {
			case 0:
				cols[ci][i] = math.MinInt64
			case 1:
				cols[ci][i] = math.MaxInt64
			default:
				cols[ci][i] = column.Value(uint64(base) + rng.Uint64()%span)
			}
		}
		h.Columns = append(h.Columns, fmt.Sprintf("c%d", ci))
	}
	return h, rows, cols, rng.Intn(3) * rng.Intn(300)
}

// TestCodecMatchesReference holds the word-at-a-time codec to the
// byte-at-a-time reference over random replies: the encoded bytes
// must be identical, every block must decode to what the reference
// decoder reads from it, and the whole stream must round-trip.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 3000; trial++ {
		h, rows, cols, blockRows := randomReply(rng)
		var buf bytes.Buffer
		if err := Encode(&buf, h, rows, cols, blockRows, 5); err != nil {
			t.Fatal(err)
		}
		if ref := refEncode(t, h, rows, cols, blockRows, 5); !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("trial %d: encoding differs from the reference", trial)
		}
		d := NewDecoder(bytes.NewReader(buf.Bytes()))
		if _, err := d.ReadHeader(); err != nil {
			t.Fatal(err)
		}
		for _, body := range blockBodies(buf.Bytes()) {
			blk, ok, err := d.Next()
			if err != nil || !ok {
				t.Fatalf("trial %d: block missing: ok=%v err=%v", trial, ok, err)
			}
			if body[5] != rowsRaw {
				continue
			}
			refRows, refCols := refDecodeBlock(body, len(h.Columns))
			if !slices.Equal(blk.Rows, refRows) {
				t.Fatalf("trial %d: block rows differ from the reference decoder", trial)
			}
			for ci := range refCols {
				if !slices.Equal(blk.Columns[ci], refCols[ci]) {
					t.Fatalf("trial %d: block column %d differs from the reference decoder", trial, ci)
				}
			}
		}
		res, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if len(cols) > 0 && !slices.Equal(res.Rows, rows) || len(cols) == 0 && !res.Rows.Equal(rows) {
			t.Fatalf("trial %d: rows do not round-trip", trial)
		}
		for ci, name := range h.Columns {
			if !slices.Equal(res.Columns[name], cols[ci]) {
				t.Fatalf("trial %d: column %s does not round-trip", trial, name)
			}
		}
	}
}

// blockBodies splits a well-formed stream into frames and returns the
// bodies of its block frames, in order.
func blockBodies(stream []byte) [][]byte {
	var out [][]byte
	for len(stream) > 0 {
		n := int(binary.LittleEndian.Uint32(stream))
		if body := stream[4 : 4+n]; body[0] == kindBlock {
			out = append(out, body)
		}
		stream = stream[4+n:]
	}
	return out
}

// projectedReply is the shape of a converged hot_served select: n rows
// with row ids and one projected column spread over a 4M-row domain.
func projectedReply(n int) (Header, column.IDList, [][]column.Value) {
	rng := rand.New(rand.NewSource(int64(n)))
	rows := make(column.IDList, n)
	vals := make([]column.Value, n)
	for i := range rows {
		rows[i] = column.RowID(rng.Intn(4_000_000))
		vals[i] = column.Value(rng.Intn(4_000_000))
	}
	return Header{Count: n, Path: "cracking", Columns: []string{"c1"}}, rows, [][]column.Value{vals}
}

func TestWriteBlockDoesNotAllocate(t *testing.T) {
	h, rows, cols := projectedReply(2000)
	e := NewEncoder(io.Discard)
	if err := e.WriteHeader(h); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBlock(rows, cols); err != nil { // sizes the buffer
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() { _ = e.WriteBlock(rows, cols) }); allocs != 0 {
		t.Fatalf("WriteBlock on a sized encoder allocates %.1f times, want 0", allocs)
	}
}

func TestDecodeAllocationsDoNotGrowWithRows(t *testing.T) {
	allocs := func(n int) float64 {
		h, rows, cols := projectedReply(n)
		var buf bytes.Buffer
		if err := Encode(&buf, h, rows, cols, 0, 0); err != nil {
			t.Fatal(err)
		}
		stream := buf.Bytes()
		return testing.AllocsPerRun(50, func() {
			if _, err := Decode(bytes.NewReader(stream)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(100), allocs(4000); small != large {
		t.Fatalf("Decode allocates %.1f times at 100 rows but %.1f at 4000", small, large)
	}
}

const benchRows = 2000

func BenchmarkEncode(b *testing.B) {
	h, rows, cols := projectedReply(benchRows)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Encode(&buf, h, rows, cols, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}

func BenchmarkDecode(b *testing.B) {
	h, rows, cols := projectedReply(benchRows)
	var buf bytes.Buffer
	if err := Encode(&buf, h, rows, cols, 0, 0); err != nil {
		b.Fatal(err)
	}
	stream := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(stream)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRows, "ns/row")
}
