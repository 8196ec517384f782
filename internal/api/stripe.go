package api

import "adaptiveindex/internal/column"

// The striping contract, shared by the in-process shard cluster
// (internal/shard) and the multi-node router (internal/router), which
// applies the identical arithmetic over the wire: global row g lives on
// stripe g mod N at local identifier g div N, and appends in global
// order always land at the next local slot of the owning stripe.

// Owner returns the stripe owning global row g among n stripes.
func Owner(g, n int) int { return g % n }

// Local returns global row g's local identifier on its owning stripe.
func Local(g, n int) int { return g / n }

// Global maps a stripe-local row identifier back to the global space:
// global = local*N + stripe.
func Global(local column.RowID, stripe, n int) column.RowID {
	return local*column.RowID(n) + column.RowID(stripe)
}

// Globalize appends the global identifiers of one stripe's local rows
// to out, in order.
func Globalize(rows column.IDList, stripe, n int, out column.IDList) column.IDList {
	for _, l := range rows {
		out = append(out, Global(l, stripe, n))
	}
	return out
}

// StripeResult is one stripe's contribution to a scatter-gather read:
// the qualifying count, the stripe-local row identifiers, and the
// projected values aligned with them. It is deliberately minimal so
// both an in-process engine result and a decoded wire response can be
// merged by the same code.
type StripeResult struct {
	Count   int
	Rows    column.IDList
	Columns map[string][]column.Value
}

// MergeStriped merges per-stripe results (parts[s] is stripe s of
// len(parts)) into one global result: counts are summed, row
// identifiers are mapped to the global space and concatenated in
// stripe order, and projected columns follow their rows. countOnly
// skips row and projection assembly. A zero part contributes nothing —
// the router uses that for stripes whose node is down (the answer is
// then explicitly partial).
func MergeStriped(parts []StripeResult, project []string, countOnly bool) StripeResult {
	n := len(parts)
	var out StripeResult
	total := 0
	for _, p := range parts {
		out.Count += p.Count
		total += len(p.Rows)
	}
	if countOnly {
		return out
	}
	out.Rows = make(column.IDList, 0, total)
	for s, p := range parts {
		out.Rows = Globalize(p.Rows, s, n, out.Rows)
	}
	if len(project) > 0 {
		out.Columns = make(map[string][]column.Value, len(project))
		for _, col := range project {
			merged := make([]column.Value, 0, total)
			for _, p := range parts {
				merged = append(merged, p.Columns[col]...)
			}
			out.Columns[col] = merged
		}
	}
	return out
}
