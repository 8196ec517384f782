package main

import (
	"math/rand"

	"adaptiveindex/internal/column"
)

// opKind is what one operation asks of the system.
type opKind uint8

const (
	opCount opKind = iota
	opSelect
	opInsert
	opDelete
	numOpKinds
)

func (k opKind) isRead() bool { return k <= opSelect }

// op is one pre-generated operation. Reads carry the half-open range
// [lo, hi) on c0; an insert carries the index of its row batch. A delete
// carries nothing: it removes the session's oldest surviving insert
// batch, whose row ids only exist once the server has assigned them.
type op struct {
	kind   opKind
	lo, hi int64
	batch  int32
}

// opStream is everything one caller will send, generated from the seed
// before anything is timed.
type opStream struct {
	ops     []op
	batches [][][]column.Value // insert row batches, writeBatch rows each
}

// streamSeed derives the seed of one caller's stream; caller -1 is the
// warm-up stream, -2 the post-run model reads.
func streamSeed(seed int64, caller int) int64 {
	return seed*1_000_003 + int64(caller+3)*7919
}

// readOp draws one read: even positions count 1% of the domain, odd
// positions select+project 0.05% of it, so every run measures the same
// mix whatever number of ops the timed section completes.
func readOp(rng *rand.Rand, pos, rows int) op {
	kind, frac := opCount, countFrac
	if pos%2 == 1 {
		kind, frac = opSelect, selectFrac
	}
	width := max(int(float64(rows)*frac), 1)
	lo := rng.Intn(rows - width + 1)
	return op{kind: kind, lo: int64(lo), hi: int64(lo + width)}
}

// genReads generates n reads for one caller.
func genReads(seed int64, caller, n, rows int) opStream {
	rng := rand.New(rand.NewSource(streamSeed(seed, caller)))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = readOp(rng, i, rows)
	}
	return opStream{ops: ops}
}

// rowTag is the c2 value of an inserted row: no query selects or projects
// c2, so it can carry the (session, batch, row) identity that lets the
// traced run tie an engine-level insert back to the op that caused it.
func rowTag(session, batch, row int) int64 {
	return int64(1)<<40 | int64(session)<<32 | int64(batch)<<4 | int64(row)
}

// genMixed generates n ops for one mixed_served session: every
// writeEvery-th op is a write, every deleteEvery-th write a delete.
func genMixed(seed int64, session, n, rows int) opStream {
	rng := rand.New(rand.NewSource(streamSeed(seed, session)))
	s := opStream{ops: make([]op, n)}
	reads, writes := 0, 0
	for i := range s.ops {
		if i%writeEvery != writeEvery-1 {
			s.ops[i] = readOp(rng, reads, rows)
			reads++
			continue
		}
		writes++
		if writes%deleteEvery == 0 {
			s.ops[i] = op{kind: opDelete}
			continue
		}
		batch := make([][]column.Value, writeBatch)
		for r := range batch {
			batch[r] = []column.Value{
				column.Value(rng.Intn(rows)), column.Value(rng.Intn(rows)),
				rowTag(session, len(s.batches), r),
			}
		}
		s.ops[i] = op{kind: opInsert, batch: int32(len(s.batches))}
		s.batches = append(s.batches, batch)
	}
	return s
}
