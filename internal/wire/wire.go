// Package wire is the binary columnar wire format of the query
// service: a length-prefixed frame stream carrying a query result as
// typed column vectors instead of per-row JSON.
//
// A response is a header frame, zero or more block frames, and a
// footer frame. Each frame is self-delimiting — a 4-byte little-endian
// length followed by that many bytes of body — so a client can decode
// incrementally as frames arrive (streaming responses flush after
// every block) and a reader never needs to buffer more than one frame.
//
//	frame  := u32le bodyLen | u8 kind | payload[bodyLen-1]
//	stream := header block* footer
//
// Header payload (kind 0x01):
//
//	u32le magic "CRK1" | u8 version | u64le count |
//	u8 pathLen | path | u16le ncols | (u16le nameLen | name)*
//
// Block payload (kind 0x02): nrows row identifiers and, for each
// projected column of the header, nrows values aligned with them.
//
//	u32le nrows | u8 rowsEnc | rows | (i64le value)*nrows per column
//	rowsEnc 0: raw    — u32le row id * nrows, result order preserved
//	rowsEnc 1: bitset — u32le nwords | u64le word * nwords; row r is
//	           bit r%64 of word r/64, materialised in ascending order.
//	           Only emitted for projection-free results (a bitset loses
//	           result order, which projected vectors align on) and only
//	           when it is the smaller encoding.
//
// Trace payload (kind 0x04, optional, between the blocks and the
// footer): the query's phase-span tree as UTF-8 JSON (the same shape
// the JSON protocol's "trace" field carries). Emitted only when the
// request asked for tracing; decoders that do not care skip it.
//
//	json bytes
//
// Footer payload (kind 0x03):
//
//	u64le totalRows | u64le latencyUs
//
// totalRows must equal the sum of the block sizes; the decoder treats a
// mismatch, like every other malformed input, as an error — never a
// panic. The version byte guards evolution: a decoder rejects versions
// it does not know.
//
// Content negotiation: a client asks for this format with
// "Accept: application/x-crack-columnar" (optionally with a
// ";block=N" parameter to stream N-row blocks); anything else — or an
// explicit "Accept: application/json" — keeps the JSON path, which
// stays wired for debugging and existing tooling.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"mime"
	"slices"
	"strconv"
	"strings"

	"adaptiveindex/internal/column"
)

// ContentType is the media type of the binary columnar format.
const ContentType = "application/x-crack-columnar"

// Version is the format version this package encodes and decodes.
const Version = 1

// magic opens every header frame.
const magic uint32 = 0x314b5243 // "CRK1" little-endian

// Frame kinds.
const (
	kindHeader = 0x01
	kindBlock  = 0x02
	kindFooter = 0x03
	kindTrace  = 0x04
)

// Row encodings inside a block.
const (
	rowsRaw    = 0x00
	rowsBitset = 0x01
)

// maxFrame bounds a single frame body, so a corrupt length prefix can
// never drive a multi-gigabyte allocation. The encoder splits blocks
// that would exceed it.
const maxFrame = 1 << 26 // 64 MiB

// maxColumns bounds the projected-column count a header may declare.
const maxColumns = 1 << 12

// ErrMalformed is wrapped by every decoder error caused by input that
// is not a well-formed frame stream (truncations, bad magic, length
// mismatches, inconsistent totals).
var ErrMalformed = errors.New("wire: malformed frame stream")

// Header describes a result stream: the total qualifying-row count,
// the access path that executed the query, and the projected column
// names in the order their vectors appear inside each block.
type Header struct {
	Count   int
	Path    string
	Columns []string
}

// Block is one decoded result block: up to blockRows row identifiers
// and one aligned value vector per header column.
type Block struct {
	Rows    column.IDList
	Columns [][]column.Value
}

// Footer closes a result stream.
type Footer struct {
	TotalRows uint64
	LatencyUs uint64
}

// Encoder writes a result stream frame by frame. Each frame is issued
// as a single Write, so an http.ResponseWriter caller can flush after
// every block and the bytes on the wire are always whole frames.
type Encoder struct {
	w     io.Writer
	ncols int
	buf   []byte
}

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: w} }

// begin starts a frame of the given kind in the scratch buffer, with
// room left for the length prefix that frame fills in.
func (e *Encoder) begin(kind byte) []byte {
	return append(e.buf[:0], 0, 0, 0, 0, kind)
}

// frame fills in the length prefix of a frame built from begin and
// writes it, prefix and body together, as one Write.
func (e *Encoder) frame(b []byte) error {
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	e.buf = b
	_, err := e.w.Write(b)
	return err
}

// WriteHeader starts a result stream.
func (e *Encoder) WriteHeader(h Header) error {
	if len(h.Columns) > maxColumns {
		return fmt.Errorf("wire: %d projected columns exceeds the format limit %d", len(h.Columns), maxColumns)
	}
	e.ncols = len(h.Columns)
	b := e.begin(kindHeader)
	b = binary.LittleEndian.AppendUint32(b, magic)
	b = append(b, Version)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Count))
	if len(h.Path) > 255 {
		return fmt.Errorf("wire: path name %q too long", h.Path)
	}
	b = append(b, byte(len(h.Path)))
	b = append(b, h.Path...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(h.Columns)))
	for _, name := range h.Columns {
		if len(name) > 1<<15 {
			return fmt.Errorf("wire: column name too long (%d bytes)", len(name))
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
		b = append(b, name...)
	}
	return e.frame(b)
}

// rowBytes is the worst-case wire size of one row in a raw-encoded
// block: a 4-byte row-id offset plus an 8-byte offset per projected
// column. Frame-of-reference packing usually does much better, but
// the frame-size bound must hold even when every block spans the full
// value range.
func (e *Encoder) rowBytes() int { return 4 + 8*e.ncols }

// maxBlockRows is the largest block the frame-size bound admits for
// the current column count, leaving room for the per-block header and
// the per-vector width/base prefixes.
func (e *Encoder) maxBlockRows() int { return (maxFrame - 64 - 16*(e.ncols+1)) / e.rowBytes() }

// widthFor returns the narrowest of the candidate byte widths whose
// unsigned range holds span.
func widthFor(span uint64, widths ...int) int {
	for _, w := range widths {
		if span>>(8*w) == 0 {
			return w
		}
	}
	return widths[len(widths)-1]
}

// pack stores src[i]-base as width little-endian bytes at dst[width*i:]
// for every i; dst must hold width*len(src) bytes. One loop per width
// moves whole words instead of single bytes.
func pack[T column.RowID | column.Value](dst []byte, src []T, base T, width int) {
	switch width {
	case 1:
		dst = dst[:len(src)]
		for i, v := range src {
			dst[i] = byte(v - base)
		}
	case 2:
		dst = dst[:2*len(src)]
		for i, v := range src {
			binary.LittleEndian.PutUint16(dst[2*i:], uint16(v-base))
		}
	case 4:
		dst = dst[:4*len(src)]
		for i, v := range src {
			binary.LittleEndian.PutUint32(dst[4*i:], uint32(v-base))
		}
	default:
		dst = dst[:8*len(src)]
		for i, v := range src {
			binary.LittleEndian.PutUint64(dst[8*i:], uint64(v-base))
		}
	}
}

// unpackInto is the inverse of pack: dst[i] = base + the width-byte
// offset at raw[width*i:], wrapping in T. raw must hold width*len(dst)
// bytes.
func unpackInto[T column.RowID | column.Value](dst []T, raw []byte, base T, width int) {
	switch width {
	case 1:
		raw = raw[:len(dst)]
		for i := range dst {
			dst[i] = base + T(raw[i])
		}
	case 2:
		raw = raw[:2*len(dst)]
		for i := range dst {
			dst[i] = base + T(binary.LittleEndian.Uint16(raw[2*i:]))
		}
	case 4:
		raw = raw[:4*len(dst)]
		for i := range dst {
			dst[i] = base + T(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	default:
		raw = raw[:8*len(dst)]
		for i := range dst {
			dst[i] = base + T(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
}

// minMax returns the smallest and largest element of v (zeros when v
// is empty).
func minMax[T column.RowID | column.Value](v []T) (lo, hi T) {
	if len(v) == 0 {
		return lo, hi
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo = min(lo, x)
		hi = max(hi, x)
	}
	return lo, hi
}

// WriteBlock emits one result block. cols must hold exactly one vector
// per header column, each as long as rows. Blocks larger than the
// frame-size bound are split transparently.
func (e *Encoder) WriteBlock(rows column.IDList, cols [][]column.Value) error {
	if len(cols) != e.ncols {
		return fmt.Errorf("wire: block has %d column vectors, header declared %d", len(cols), e.ncols)
	}
	for _, vec := range cols {
		if len(vec) != len(rows) {
			return fmt.Errorf("wire: column vector length %d does not match %d rows", len(vec), len(rows))
		}
	}
	step := e.maxBlockRows()
	for start := 0; start < len(rows); start += step {
		end := min(start+step, len(rows))
		sub := cols
		if end-start < len(rows) {
			sub = make([][]column.Value, len(cols))
			for i, vec := range cols {
				sub[i] = vec[start:end]
			}
		}
		if err := e.writeOneBlock(rows[start:end], sub); err != nil {
			return err
		}
	}
	return nil
}

func (e *Encoder) writeOneBlock(rows column.IDList, cols [][]column.Value) error {
	n := len(rows)
	// Row ids and values use frame-of-reference packing: each vector
	// stores its block minimum once and every element as an unsigned
	// offset in the narrowest byte width that holds the block's span.
	// Dense row-only results may instead take the bitset encoding when
	// it is denser still; results with projections must keep result
	// order, which only the packed encoding preserves. A bitset holds
	// each id once, so a block whose ids repeat keeps packed rows: the
	// decoder rejects a bitset whose popcount is not the row count.
	rowBase, rowMax := minMax(rows)
	rowWidth := widthFor(uint64(rowMax-rowBase), 1, 2, 4)
	var words []uint64
	if len(cols) == 0 && n > 0 {
		nwords := int(rowMax)/64 + 1
		if 4+8*nwords < 5+rowWidth*n {
			if bs := column.BitsetFromIDs(rows); bs.Count() == n {
				words = bs.Words()
			}
		}
	}
	// Each vector grows the frame once and is then packed in place.
	b := binary.LittleEndian.AppendUint32(e.begin(kindBlock), uint32(n))
	if words != nil {
		b = append(b, rowsBitset)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(words)))
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	} else {
		b = slices.Grow(b, 6+rowWidth*n)
		b = append(b, rowsRaw, byte(rowWidth))
		b = binary.LittleEndian.AppendUint32(b, uint32(rowBase))
		b = b[:len(b)+rowWidth*n]
		pack(b[len(b)-rowWidth*n:], rows, rowBase, rowWidth)
	}
	for _, vec := range cols {
		lo, hi := minMax(vec)
		// The span is exact even across the full int64 range: two's
		// complement subtraction in uint64 yields hi-lo for any hi >= lo.
		w := widthFor(uint64(hi)-uint64(lo), 1, 2, 4, 8)
		b = slices.Grow(b, 9+w*n)
		b = append(b, byte(w))
		b = binary.LittleEndian.AppendUint64(b, uint64(lo))
		b = b[:len(b)+w*n]
		pack(b[len(b)-w*n:], vec, lo, w)
	}
	return e.frame(b)
}

// WriteTrace emits the optional trace frame carrying the query's
// phase-span tree as JSON. It must come after the blocks and before
// the footer.
func (e *Encoder) WriteTrace(spanJSON []byte) error {
	if len(spanJSON) >= maxFrame {
		return fmt.Errorf("wire: trace body %d bytes exceeds the frame limit", len(spanJSON))
	}
	return e.frame(append(e.begin(kindTrace), spanJSON...))
}

// WriteFooter closes the stream.
func (e *Encoder) WriteFooter(f Footer) error {
	b := binary.LittleEndian.AppendUint64(e.begin(kindFooter), f.TotalRows)
	return e.frame(binary.LittleEndian.AppendUint64(b, f.LatencyUs))
}

// Decoder reads a result stream frame by frame.
type Decoder struct {
	r      *bufio.Reader
	header *Header
	footer *Footer
	trace  []byte
	rows   uint64
	buf    []byte
}

// NewDecoder returns a decoder reading from r.
func NewDecoder(r io.Reader) *Decoder { return &Decoder{r: bufio.NewReader(r)} }

// nextFrame reads one length-prefixed frame body into the scratch
// buffer.
func (d *Decoder) nextFrame() ([]byte, error) {
	var lenPrefix [4]byte
	if _, err := io.ReadFull(d.r, lenPrefix[:]); err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: unexpected end of stream", ErrMalformed)
		}
		return nil, fmt.Errorf("%w: truncated length prefix: %v", ErrMalformed, err)
	}
	n := binary.LittleEndian.Uint32(lenPrefix[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("%w: frame length %d out of range", ErrMalformed, n)
	}
	if cap(d.buf) < int(n) {
		d.buf = make([]byte, n)
	}
	body := d.buf[:n]
	if _, err := io.ReadFull(d.r, body); err != nil {
		return nil, fmt.Errorf("%w: truncated frame body: %v", ErrMalformed, err)
	}
	return body, nil
}

// cursor is a bounds-checked reader over one frame body.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || c.off+n > len(c.b) {
		return nil, fmt.Errorf("%w: frame body too short", ErrMalformed)
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out, nil
}

func (c *cursor) u8() (byte, error) {
	b, err := c.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (c *cursor) u16() (uint16, error) {
	b, err := c.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *cursor) done() error {
	if c.off != len(c.b) {
		return fmt.Errorf("%w: %d trailing bytes in frame", ErrMalformed, len(c.b)-c.off)
	}
	return nil
}

// ReadHeader reads the stream header. It must be called first.
func (d *Decoder) ReadHeader() (Header, error) {
	if d.header != nil {
		return *d.header, nil
	}
	body, err := d.nextFrame()
	if err != nil {
		return Header{}, err
	}
	c := &cursor{b: body}
	kind, err := c.u8()
	if err != nil {
		return Header{}, err
	}
	if kind != kindHeader {
		return Header{}, fmt.Errorf("%w: first frame kind 0x%02x, want header", ErrMalformed, kind)
	}
	m, err := c.u32()
	if err != nil {
		return Header{}, err
	}
	if m != magic {
		return Header{}, fmt.Errorf("%w: bad magic 0x%08x", ErrMalformed, m)
	}
	ver, err := c.u8()
	if err != nil {
		return Header{}, err
	}
	if ver != Version {
		return Header{}, fmt.Errorf("wire: unsupported format version %d (decoder speaks %d)", ver, Version)
	}
	count, err := c.u64()
	if err != nil {
		return Header{}, err
	}
	if count > 1<<40 {
		return Header{}, fmt.Errorf("%w: implausible row count %d", ErrMalformed, count)
	}
	pathLen, err := c.u8()
	if err != nil {
		return Header{}, err
	}
	pathBytes, err := c.take(int(pathLen))
	if err != nil {
		return Header{}, err
	}
	ncols, err := c.u16()
	if err != nil {
		return Header{}, err
	}
	if int(ncols) > maxColumns {
		return Header{}, fmt.Errorf("%w: %d columns exceeds limit %d", ErrMalformed, ncols, maxColumns)
	}
	h := Header{Count: int(count), Path: string(pathBytes)}
	for i := 0; i < int(ncols); i++ {
		nameLen, err := c.u16()
		if err != nil {
			return Header{}, err
		}
		name, err := c.take(int(nameLen))
		if err != nil {
			return Header{}, err
		}
		h.Columns = append(h.Columns, string(name))
	}
	if err := c.done(); err != nil {
		return Header{}, err
	}
	d.header = &h
	return h, nil
}

// Next returns the next block, or ok=false once the footer has been
// read (the footer is then available from Footer). ReadHeader must
// have been called.
func (d *Decoder) Next() (Block, bool, error) {
	if d.header == nil {
		return Block{}, false, errors.New("wire: Next before ReadHeader")
	}
	if d.footer != nil {
		return Block{}, false, nil
	}
next:
	body, err := d.nextFrame()
	if err != nil {
		return Block{}, false, err
	}
	c := &cursor{b: body}
	kind, err := c.u8()
	if err != nil {
		return Block{}, false, err
	}
	switch kind {
	case kindTrace:
		// Optional span tree: stash a copy (the scratch buffer is reused
		// by the next frame) and keep reading.
		d.trace = append([]byte(nil), c.b[c.off:]...)
		goto next
	case kindBlock:
		blk, err := d.readBlock(c)
		if err != nil {
			return Block{}, false, err
		}
		d.rows += uint64(len(blk.Rows))
		return blk, true, nil
	case kindFooter:
		totalRows, err := c.u64()
		if err != nil {
			return Block{}, false, err
		}
		latency, err := c.u64()
		if err != nil {
			return Block{}, false, err
		}
		if err := c.done(); err != nil {
			return Block{}, false, err
		}
		if totalRows != d.rows {
			return Block{}, false, fmt.Errorf("%w: footer says %d rows, blocks carried %d", ErrMalformed, totalRows, d.rows)
		}
		d.footer = &Footer{TotalRows: totalRows, LatencyUs: latency}
		return Block{}, false, nil
	default:
		return Block{}, false, fmt.Errorf("%w: unexpected frame kind 0x%02x", ErrMalformed, kind)
	}
}

func (d *Decoder) readBlock(c *cursor) (Block, error) {
	nrows, err := c.u32()
	if err != nil {
		return Block{}, err
	}
	enc, err := c.u8()
	if err != nil {
		return Block{}, err
	}
	var rows column.IDList
	switch enc {
	case rowsRaw:
		w, err := c.u8()
		if err != nil {
			return Block{}, err
		}
		if w != 1 && w != 2 && w != 4 {
			return Block{}, fmt.Errorf("%w: row offset width %d", ErrMalformed, w)
		}
		base, err := c.u32()
		if err != nil {
			return Block{}, err
		}
		raw, err := c.take(int(w) * int(nrows))
		if err != nil {
			return Block{}, err
		}
		rows = make(column.IDList, nrows)
		unpackInto(rows, raw, base, int(w))
	case rowsBitset:
		nwords, err := c.u32()
		if err != nil {
			return Block{}, err
		}
		raw, err := c.take(8 * int(nwords))
		if err != nil {
			return Block{}, err
		}
		words := make([]uint64, nwords)
		pop := 0
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(raw[8*i:])
			pop += bits.OnesCount64(words[i])
		}
		if pop != int(nrows) {
			return Block{}, fmt.Errorf("%w: bitset carries %d rows, block declared %d", ErrMalformed, pop, nrows)
		}
		rows = column.BitsetFromWords(words).IDs()
	default:
		return Block{}, fmt.Errorf("%w: unknown row encoding 0x%02x", ErrMalformed, enc)
	}
	blk := Block{Rows: rows}
	for range d.header.Columns {
		w, err := c.u8()
		if err != nil {
			return Block{}, err
		}
		if w != 1 && w != 2 && w != 4 && w != 8 {
			return Block{}, fmt.Errorf("%w: value offset width %d", ErrMalformed, w)
		}
		base, err := c.u64()
		if err != nil {
			return Block{}, err
		}
		raw, err := c.take(int(w) * int(nrows))
		if err != nil {
			return Block{}, err
		}
		vec := make([]column.Value, nrows)
		unpackInto(vec, raw, column.Value(base), int(w))
		blk.Columns = append(blk.Columns, vec)
	}
	if err := c.done(); err != nil {
		return Block{}, err
	}
	return blk, nil
}

// Footer returns the stream footer; valid once Next has returned
// ok=false.
func (d *Decoder) Footer() (Footer, error) {
	if d.footer == nil {
		return Footer{}, errors.New("wire: footer not reached")
	}
	return *d.footer, nil
}

// Trace returns the raw JSON of the optional trace frame, or nil when
// the stream carried none. Valid once Next has passed the frame (always
// by the time the footer is reached).
func (d *Decoder) Trace() []byte { return d.trace }

// Result is a fully-decoded response.
type Result struct {
	Header
	Rows      column.IDList
	Columns   map[string][]column.Value
	LatencyUs uint64
	// Trace is the raw JSON span tree of the optional trace frame (nil
	// when the response was not traced).
	Trace []byte
}

// Decode reads and validates one complete result stream.
func Decode(r io.Reader) (*Result, error) {
	d := NewDecoder(r)
	h, err := d.ReadHeader()
	if err != nil {
		return nil, err
	}
	res := &Result{Header: h, Columns: make(map[string][]column.Value)}
	// Pre-create every announced column so a zero-row result still
	// reports its (empty) projections, exactly like the JSON form.
	for _, name := range h.Columns {
		res.Columns[name] = []column.Value{}
	}
	for {
		blk, ok, err := d.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if len(res.Rows) == 0 {
			// The first non-empty block's vectors become the result's
			// as they are, so a one-block reply is decoded straight
			// into it and never copied.
			if len(blk.Rows) > 0 {
				res.Rows = blk.Rows
				for i, name := range h.Columns {
					res.Columns[name] = blk.Columns[i]
				}
			}
			continue
		}
		res.Rows = append(res.Rows, blk.Rows...)
		for i, name := range h.Columns {
			res.Columns[name] = append(res.Columns[name], blk.Columns[i]...)
		}
	}
	f, err := d.Footer()
	if err != nil {
		return nil, err
	}
	res.LatencyUs = f.LatencyUs
	res.Trace = d.Trace()
	if len(h.Columns) == 0 {
		res.Columns = nil
	}
	return res, nil
}

// Encode writes a complete result stream: rows (with aligned vectors
// from cols, in the order of h.Columns) in blocks of blockRows rows
// each (0 or negative: one block), then the footer. It is the
// convenience form of the Encoder used by tests and benchmarks; the
// server drives the Encoder directly so it can flush between blocks.
func Encode(w io.Writer, h Header, rows column.IDList, cols [][]column.Value, blockRows int, latencyUs uint64) error {
	e := NewEncoder(w)
	if err := e.WriteHeader(h); err != nil {
		return err
	}
	if blockRows <= 0 {
		blockRows = len(rows)
	}
	for start := 0; start < len(rows); start += blockRows {
		end := start + blockRows
		if end > len(rows) {
			end = len(rows)
		}
		sub := make([][]column.Value, len(cols))
		for i, vec := range cols {
			sub[i] = vec[start:end]
		}
		if err := e.WriteBlock(rows[start:end], sub); err != nil {
			return err
		}
	}
	return e.WriteFooter(Footer{TotalRows: uint64(len(rows)), LatencyUs: latencyUs})
}

// Negotiate inspects an Accept header value and reports whether the
// client asked for the binary columnar format, and the streamed block
// size it requested (0 = a single block). Unknown media types, an
// empty header, or an explicit JSON preference all keep the JSON path.
func Negotiate(accept string) (binary bool, blockRows int) {
	for _, part := range strings.Split(accept, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		mediaType, params, err := mime.ParseMediaType(part)
		if err != nil {
			continue
		}
		if mediaType != ContentType {
			continue
		}
		if blockStr, ok := params["block"]; ok {
			if n, err := strconv.Atoi(blockStr); err == nil && n > 0 {
				blockRows = n
			}
		}
		return true, blockRows
	}
	return false, 0
}

// AcceptValue renders the Accept header value requesting this format,
// with blockRows > 0 asking the server to stream blocks of that size.
func AcceptValue(blockRows int) string {
	if blockRows > 0 {
		return fmt.Sprintf("%s;block=%d", ContentType, blockRows)
	}
	return ContentType
}
